import numpy as np


def haar_unitary(rng, dim):
    """Haar-distributed unitary via QR of a complex Ginibre matrix with
    the R-diagonal phase fix."""
    z = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def projector(vec):
    """Rank-1 projector |v><v| for a normalized vector."""
    v = np.asarray(vec, dtype=np.complex128)
    return np.outer(v, v.conj())


def random_density(rng, dim):
    """Random full-rank density matrix (normalized Ginibre G G^dag)."""
    g = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim)))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_hermitian(rng, dim):
    g = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim)))
    return 0.5 * (g + g.conj().T)


class StubRng:
    """Replays a fixed list of uniforms; forces measurement outcomes."""

    def __init__(self, values):
        self._values = list(values)
        self._i = 0

    def random(self):
        v = self._values[self._i % len(self._values)]
        self._i += 1
        return v

