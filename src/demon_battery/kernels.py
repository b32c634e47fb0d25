"""Hot Monte Carlo kernel: batched collision-cycle streams in closed form.

The engine module walks one cycle at a time through validated state
objects; that path is the reference.  The bulk experiments (10^4+ cycles
per sweep point) run through :func:`simulate_stream` instead, which does
no 4x4 algebra per cycle.  Both implement the one protocol the package
has, sigma_x measurement and sigma_x pulse, so an EngineConfig can differ
only in parameters and policy; the kernel runs the threshold policy.

Why a closed form is exact here: the generator g sigma_y (x) sigma_z is
diagonal in the ancilla basis, so the collision unitary splits as

    U = sum_a R_a (x) |a><a|,   R_0 = exp(-i g tau sigma_y),  R_1 = R_0^T.

For system state rho_S = (I + r.sigma)/2 and ancilla psi, the outcome x
leaves the unnormalized ancilla block psi o K_x (elementwise), with
K_x[a, b] = <x| R_a rho_S R_b^dag |x>, and their sum over x is the
dephased block psi o T, T[a, b] = Tr(R_a rho_S R_b^dag).  An ergotropy
sees a coherence only through its modulus, and with c = cos 2g tau and
s = sin 2g tau the tables it needs are

    K_x[a, a] = (1 + x (r_x c +- r_z s)) / 2      (+ for a = 0)
    |K_x[0, 1]|^2 = ((c + x r_x)^2 + r_y^2 s^2) / 4
    T[a, a] = 1,   |T[0, 1]|^2 = c^2 + r_y^2 s^2.

A collision starts from one of k <= 3 system states: |0><0|, r = (0, 0,
1), on a fresh system and under full reset, or after a finite reset of
strength gamma tau and phase phi the relaxed |+> or |->, r = (+-e cos
phi, -+e sin phi, 1 - e^2) with e = exp(-gamma tau / 2).  So the tables
take no 4x4 algebra and are computed once per parameter set, and each
cycle touches only (n,) and (k, n) arrays.  The engine collides the 4x4
joint state instead, so parity between the two checks independent
derivations.

The kernel works on the excited population psi_11 alone: a pure ancilla
has psi_00 = 1 - psi_11 and |psi_01|^2 = psi_00 psi_11, and no output
depends on the azimuth phi.  A Haar draw cos(theta) = 1 - 2u gives
psi_11 = sin^2(theta/2) = u exactly, so the experiments pass u itself
and the kernel evaluates no sin or cos; the unused phi uniform is still
drawn, so the seeds give the same streams.  :func:`simulate_stream`
keeps theta as its first argument, because the benchmark in perfbench/
wraps it and reads the stream length there, so the experiments still
pass arccos(1 - 2u).  Every call resolves the realized branch, its
Bloch z and its length, which every caller's w_out needs; only the
requested fields are returned: the histogram and the reset sweep read
two of eight.

A chained finite-reset stream starts each cycle in the state the
outcome before it leaves, the row channels.CANDIDATE_ROW gives that
outcome, as in the engine: |+> relaxed after +1, |-> after -1.  The
kernel first resolves every cycle's outcome under every candidate.
After the first cycle, whose candidate ``previous`` selects, the
outcomes under the two relaxed states fix the chain's outcome where they
agree; else the cycle repeats the outcome before it (only |+> gives +1)
or flips it (only |-> gives +1).  So an outcome is the last fixed one,
flipped once per flip since: a forward fill and a running parity, with
no loop over cycles.  A stream cut into blocks continues by passing the
previous block's last outcome as ``previous``.

A call writes its temporaries into one float scratch array that the
calling thread keeps (see _scratch).  Every returned field is a fresh
array, never a view of the scratch, so a later call cannot change it.
The in-place arithmetic keeps the grouping of every expression and only
swaps the operands of a single + or *, which is exact.  w_out takes +rz
after +1 and -rz after -1 as the product rz * outcome, exact for +-1,
signed zeros included.
"""

import math
import threading
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import _checks
from .channels import CANDIDATE_ROW, DEGENERATE_P
from .demon import ThresholdFlip


class StreamResult(NamedTuple):
    """Per-cycle outputs of one simulated stream (all length n).

    Every stream resolves its realized branch, and returns only the
    fields it is asked for; the others are None, except outcome, which
    is always there.  w_raw is omega psi_11.
    w_out follows the threshold rule (pulse on +1); w_keep / w_flip are
    the no-pulse and always-pulse variants at the same sampled outcome;
    w_dephased scores the pulse applied to the outcome-averaged (dephased)
    ancilla state, i.e. processing without reading the record.
    """

    w_raw: np.ndarray
    p_plus: np.ndarray
    outcome: np.ndarray
    w_keep: np.ndarray
    w_flip: np.ndarray
    w_out: np.ndarray
    w_dephased: np.ndarray
    pulse_work: np.ndarray


class StreamTables(NamedTuple):
    """Closed-form coefficients for the k candidate system states.

    Rows of the (2k,) tables are branches, 2c + x for candidate c and
    outcome index x (0 is +1 and 1 is -1), so a stream looks up its
    realized branch with one flat ``take``.  T[a, a] = 1 needs no table.
    """

    k00: np.ndarray         # (2k,)   K_x[0, 0]
    k11: np.ndarray         # (2k,)   K_x[1, 1]
    k_coh2: np.ndarray      # (2k,)   |K_x[0, 1]|^2
    t_coh2: np.ndarray      # (k,)    |T[0, 1]|^2


@lru_cache(maxsize=64)
def _tables(g_tau, gamma_tau_se, phase, reset_mode) -> StreamTables:
    """The tables for one parameter set (see the module docstring),
    computed once: every block of a sweep point would otherwise rebuild
    them.  The arrays are read-only because every caller shares them."""
    c, s = math.cos(2.0 * g_tau), math.sin(2.0 * g_tau)
    # the candidates' Bloch vectors (r_x, r_y, r_z), in CANDIDATE_ROW order
    bloch = [(0.0, 0.0, 1.0)]
    if reset_mode == "finite":
        e = math.exp(-0.5 * gamma_tau_se)
        bloch += [(sign * e * math.cos(phase), -sign * e * math.sin(phase),
                   1.0 - math.exp(-gamma_tau_se)) for sign in (1, -1)]
    # (k, 1) columns against the outcomes x = +1, -1 of a row
    r_x, r_y, r_z = np.array(bloch).T[:, :, None]
    x = np.array([1.0, -1.0])
    tables = StreamTables(
        k00=(0.5 * (1.0 + x * (r_x * c + r_z * s))).ravel(),
        k11=(0.5 * (1.0 + x * (r_x * c - r_z * s))).ravel(),
        k_coh2=(0.25 * ((c + x * r_x) ** 2 + (r_y * s) ** 2)).ravel(),
        t_coh2=c * c + (r_y[:, 0] * s) ** 2,
    )
    for table in tables:
        table.setflags(write=False)
    return tables


#: cycles per block: the experiments draw, run and reduce a stream in
#: blocks of this many cycles, and a thread keeps scratch for one block
BLOCK_SIZE = 16384
#: scratch rows, one value per cycle each: contiguous copies of psi11 and
#: u_outcome, psi00, then either the (k, n) candidate probabilities and
#: their second term (k <= 3), or the six rows of the realized branch
_SCRATCH_ROWS = 9
_workspace = threading.local()


def _scratch(n: int) -> np.ndarray:
    """A (_SCRATCH_ROWS, n) float scratch array for one call.  Each thread
    keeps one buffer of BLOCK_SIZE columns and reuses it, so a block
    loop neither allocates nor faults in its temporaries; a longer stream
    gets a buffer of its own that is dropped after the call."""
    if n > BLOCK_SIZE:
        return np.empty((_SCRATCH_ROWS, n))
    buf = getattr(_workspace, "buf", None)
    if buf is None:
        buf = _workspace.buf = np.empty(_SCRATCH_ROWS * BLOCK_SIZE)
    return buf[:_SCRATCH_ROWS * n].reshape(_SCRATCH_ROWS, n)


def _contiguous(values: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``values`` if C-contiguous, else a copy of it in scratch ``row``."""
    if values.flags.c_contiguous:
        return values
    np.copyto(row, values)
    return row


def _half_clipped(values: np.ndarray, half: float) -> np.ndarray:
    """max(half * values, 0), computed in place in ``values``."""
    values *= half
    return np.maximum(values, 0.0, out=values)


def _chain(plus_cand: np.ndarray, previous: int) -> np.ndarray:
    """Outcome +1 of every cycle of a finite-reset chain that follows
    outcome ``previous``, from ``plus_cand[c, i]``, the outcome +1 of
    cycle i under candidate row c (see the module docstring for the
    rule).  Cycle 0 is fixed by ``previous``: the fill starts there."""
    plus, minus = plus_cand[CANDIDATE_ROW[+1]], plus_cand[CANDIDATE_ROW[-1]]
    # a cycle whose candidates differ flips the outcome when |-> gives +1;
    # the parity of a fixed cycle enters its base too, and cancels
    parity = np.bitwise_xor.accumulate(minus)
    base = plus ^ parity
    base[:1] = plus_cand[CANDIDATE_ROW[previous], :1] ^ parity[:1]
    fixed = np.where(plus == minus, np.arange(len(plus)), 0)
    return base[np.maximum.accumulate(fixed)] ^ parity


def simulate_stream(thetas: np.ndarray, phis: np.ndarray, u_outcome: np.ndarray,
                    cfg, previous: int = 0, *,
                    psi11: Optional[np.ndarray] = None,
                    fields: Optional[Sequence[str]] = None) -> StreamResult:
    """Run one stream of collisions for pre-drawn ancilla angles and
    outcome variates under the threshold policy of ``cfg``.

    ``previous`` is the outcome of the cycle before the stream: 0 starts
    a fresh system in |0><0|; +1 or -1 continues a finite-reset chain from
    the relaxed |+> or |-> that outcome leaves.  Under full reset every
    cycle starts from |0><0|, so +1 and -1 change nothing.
    ``psi11`` is the excited population of each ancilla, sin^2(theta/2)
    when omitted; a caller holding the Haar uniform u of cos(theta) =
    1 - 2u passes u itself, which is that population exactly.
    ``fields`` names the StreamResult fields to return, all by default;
    the others come back as None, except ``outcome``, which is always
    returned because a chained stream continues from its last entry.
    ``phis`` is checked for shape only: no output depends on it.
    Raises ValueError for a Bayes policy, a ``previous`` other than 0,
    +1 or -1, an unknown field or a str ``fields``, inputs that are not
    1-D arrays of one length, or a ``psi11`` or ``u_outcome`` outside
    [0, 1].
    """
    if not isinstance(cfg.policy, ThresholdFlip):
        raise ValueError("kernels implement the threshold policy only; "
                         "run Bayes policies through engine.run_trajectory")
    previous = _checks.outcome("previous", previous, tuple(CANDIDATE_ROW))
    if isinstance(fields, str):
        raise ValueError("fields must be a sequence of StreamResult field "
                         f"names, not the str {fields!r}")
    wanted = set(StreamResult._fields if fields is None else fields)
    unknown = wanted - set(StreamResult._fields)
    if unknown:
        raise ValueError(f"unknown StreamResult fields {sorted(unknown)}")
    if psi11 is None:
        psi11 = np.sin(0.5 * np.asarray(thetas, dtype=np.float64)) ** 2
    psi11 = np.asarray(psi11, dtype=np.float64)
    u_outcome = np.asarray(u_outcome, dtype=np.float64)
    if not (psi11.ndim == 1 and np.shape(thetas) == np.shape(phis)
            == psi11.shape == u_outcome.shape):
        raise ValueError("thetas, phis, psi11 and u_outcome must be 1-D "
                         "arrays of one length")
    n = len(psi11)
    ws = _scratch(n)
    # contiguous copies of strided columns make every later pass faster
    psi11 = _contiguous(psi11, ws[0])
    u_outcome = _contiguous(u_outcome, ws[1])
    for name, values in (("psi11", psi11), ("u_outcome", u_outcome)):
        # NaN fails both comparisons, so it is rejected with the rest
        if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1]")
    tab = _tables(cfg.g_tau, cfg.gamma_tau_se, cfg.phase, cfg.reset_mode)
    k = len(tab.t_coh2)    # candidate system states
    omega = cfg.omega
    psi00 = np.subtract(1.0, psi11, out=ws[2])
    out = dict.fromkeys(StreamResult._fields)

    # outcome +1 under every candidate system state (one row each, so every
    # operation runs over a whole row), then the chain's own outcomes, and
    # the row of each cycle's system state, set by the outcome before it
    p_cand = np.multiply(tab.k00[0::2, None], psi00, out=ws[3:3 + k])
    p_cand += np.multiply(tab.k11[0::2, None], psi11, out=ws[3 + k:3 + 2 * k])
    plus_cand = u_outcome < p_cand
    plus_cand |= p_cand > 1.0 - DEGENERATE_P
    plus_cand &= p_cand >= DEGENERATE_P
    if k == 1:
        ci = 0
        plus = plus_cand[0]
    else:
        plus = _chain(plus_cand, previous)
        ci = np.empty(n, dtype=np.intp)
        ci[:1] = CANDIDATE_ROW[previous]
        ci[1:] = np.where(plus[:-1], CANDIDATE_ROW[+1], CANDIDATE_ROW[-1])
    if "p_plus" in wanted:
        out["p_plus"] = p_cand[ci, np.arange(n)]
    out["outcome"] = plus.view(np.int8) * 2 - 1
    if "w_raw" in wanted:
        out["w_raw"] = omega * psi11

    # realized branch psi o K_x, as Bloch z and length of the ancilla; the
    # p_cand rows are free again
    branch = np.multiply(ci, 2, out=ws[3].view(np.int64))
    branch += ~plus
    a00 = tab.k00.take(branch, out=ws[4], mode="clip")
    a00 *= psi00
    a11 = tab.k11.take(branch, out=ws[5], mode="clip")
    a11 *= psi11
    tr = np.add(a00, a11, out=ws[6])
    dz = np.subtract(a00, a11, out=a00)
    rz = np.divide(dz, tr, out=ws[7])
    # rlen = sqrt(dz^2 + 4 psi00 psi11 |K_x[0, 1]|^2) / tr
    rlen = np.multiply(4.0, psi00, out=ws[8])
    rlen *= psi11
    rlen *= tab.k_coh2.take(branch, out=a11, mode="clip")
    rlen += np.multiply(dz, dz, out=a11)
    np.sqrt(rlen, out=rlen)
    rlen /= tr
    half = 0.5 * omega
    if "pulse_work" in wanted:
        out["pulse_work"] = np.where(plus, omega * rz, 0.0)
    if "w_keep" in wanted:
        out["w_keep"] = _half_clipped(rlen - rz, half)
    if "w_flip" in wanted:
        out["w_flip"] = _half_clipped(rlen + rz, half)
    if "w_out" in wanted:
        # +rz after +1 and -rz after -1: a product with +-1 is exact
        w_out = rz * out["outcome"]
        w_out += rlen
        out["w_out"] = _half_clipped(w_out, half)

    if "w_dephased" in wanted:
        # dephased block psi o T, whose diagonal is psi's, then pulsed
        d_z = psi00 - psi11
        d_len = np.sqrt(d_z * d_z + 4.0 * psi00 * psi11 * tab.t_coh2[ci])
        out["w_dephased"] = np.maximum(0.5 * omega * (d_len + d_z), 0.0)
    return StreamResult(**out)
