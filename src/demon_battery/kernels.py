"""Hot Monte Carlo kernel: batched collision-cycle streams in closed form.

The engine module walks one cycle at a time through validated state
objects; that path is the reference.  The bulk experiments (10^4+ cycles
per sweep point) run through :func:`simulate_stream` instead, which does
no 4x4 algebra per cycle.

Why a closed form is exact here: the generator g sigma_y (x) sigma_z is
diagonal in the ancilla basis, so the collision unitary splits as

    U = sum_a R_a (x) |a><a|,   R_0 = exp(-i g tau sigma_y),  R_1 = R_0^T.

For system state rho_S and ancilla psi, the unnormalized ancilla block
left by the sigma_x outcome x is the elementwise product psi o K_x, with
K_x[a, b] = <x| R_a rho_S R_b^dag |x>.  Summed over x it is the dephased
block psi o T, T[a, b] = Tr(R_a rho_S R_b^dag), and the system energy
change is linear in psi_00 and psi_11.  The system state entering a
collision is one of at most k = 3 candidates: |0><0| (the first cycle,
and every cycle under full reset) or the relaxed |+> or |-> after a
finite reset.  So K, T and the energy coefficients are tabulated once per
call, and each cycle touches only (n,) and (n, k) arrays.  Ergotropies
see the coherence psi_01 only through its modulus, so no output depends
on the azimuth phi.

A chained finite-reset stream chooses its candidate by the previous
outcome.  The kernel first resolves the outcome for all k candidates of
every cycle, which gives each cycle a successor map {0, 1, 2} -> {1, 2};
the candidate a cycle sees is the composition of all earlier maps
applied to the first cycle's candidate, found by Hillis-Steele pointer
doubling over the (n, k) successor table (Blelloch, "Prefix Sums and
Their Applications", CMU-CS-90-190) in ceil(log2 n) vectorized steps.
A stream cut into blocks continues by starting each block from the
candidate the previous block's last outcome selects (:func:`next_start`).
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channels import (DEGENERATE_P, collision_unitary, reset_closed_form,
                       sigma_x_measurement)
from .demon import ThresholdFlip
from .qmath import KET_MINUS, KET_PLUS
from .states import ground_state


class StreamResult(NamedTuple):
    """Per-cycle outputs of one simulated stream (all length n).

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
    delta_e_col: np.ndarray


class StreamTables(NamedTuple):
    """Closed-form coefficients for the k candidate system states.

    Outcome index 0 is +1 and 1 is -1; ancilla index a is 0 or 1.
    """

    k_diag: np.ndarray      # (k, 2, 2) K_x[a, a]
    k_coh2: np.ndarray      # (k, 2)    |K_x[0, 1]|^2
    t_diag: np.ndarray      # (k, 2)    T[a, a]
    t_coh2: np.ndarray      # (k,)      |T[0, 1]|^2
    delta_e: np.ndarray     # (k, 2)    system energy change if psi = |a><a|
    next_index: np.ndarray  # (2,)      candidate after outcome +1, -1


_SIGMA_X_KRAUS = sigma_x_measurement().kraus


def prepare_stream_inputs(cfg) -> StreamTables:
    """Tabulate the closed form for an EngineConfig.  Kernels only support
    the shipped preset: sigma_x measurement with the threshold policy."""
    if not isinstance(cfg.policy, ThresholdFlip):
        raise ValueError("kernels implement the threshold policy only; "
                         "run Bayes policies through engine.run_trajectory")
    kraus = cfg.measurement.kraus
    if tuple(cfg.measurement.labels) != (+1, -1) or len(kraus) != 2 or any(
            not np.allclose(m_op, m_ref, rtol=0.0, atol=1e-12)
            for m_op, m_ref in zip(kraus, _SIGMA_X_KRAUS)):
        raise ValueError("kernels implement the sigma_x measurement only")
    return _tables(cfg.collision, cfg.reset, cfg.reset_mode)


@lru_cache(maxsize=64)
def _tables(collision, reset, reset_mode) -> StreamTables:
    """The tables for one parameter set, computed once: every chunk of a
    sweep point would otherwise rebuild them.  The arrays are read-only
    because every caller shares them."""
    if reset_mode == "full":
        candidates = ground_state().mat[np.newaxis]
        next_index = np.array([0, 0])
    else:
        candidates = np.stack([
            ground_state().mat,
            reset_closed_form(+1, reset).mat,
            reset_closed_form(-1, reset).mat,
        ])
        next_index = np.array([1, 2])
    # U[2s+a, 2t+b] vanishes unless a == b, and its a-block is R_a
    u = collision_unitary(collision).reshape(2, 2, 2, 2)
    rot = np.stack([u[:, 0, :, 0], u[:, 1, :, 1]])
    # m[c, a, b] = R_a rho_c R_b^dag
    m = np.einsum("asu,cuv,btv->cabst", rot, candidates, rot.conj())
    xbasis = np.stack([KET_PLUS, KET_MINUS])
    k_x = np.einsum("xs,cabst,xt->cxab", xbasis.conj(), m, xbasis)
    t = np.einsum("cabss->cab", m)
    diag = [0, 1]
    rz_in = (candidates[:, 0, 0] - candidates[:, 1, 1]).real
    rz_out = (m[:, diag, diag, 0, 0] - m[:, diag, diag, 1, 1]).real
    tables = StreamTables(
        k_diag=k_x[..., diag, diag].real,
        k_coh2=np.abs(k_x[..., 0, 1]) ** 2,
        t_diag=t[..., diag, diag].real,
        t_coh2=np.abs(t[:, 0, 1]) ** 2,
        delta_e=-0.5 * reset.omega_s * (rz_out - rz_in[:, None]),
        next_index=next_index,
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _route(successor: np.ndarray, start: int = 0) -> np.ndarray:
    """Candidate index of every cycle of a chain that starts at ``start``.

    ``successor[i, c]`` is the candidate after cycle i when cycle i saw c.
    Each row is a map of k candidates, coded as the base-k number whose
    digit c is its value at c; composing two maps is then a lookup in a
    k^k x k^k table.  After the step of stride d, code i holds the
    composition of the maps of cycles i-2d+1 .. i, so it ends as that of
    cycles 0 .. i, whose value at ``start`` is the candidate of cycle i + 1.
    """
    n, k = successor.shape
    weights = k ** np.arange(k)
    maps = np.arange(k ** k)[:, None] // weights % k
    compose = (maps[:, maps] @ weights).ravel()    # [g, f] -> g o f
    code = successor @ weights
    d = 1
    while d < n:
        # the right side is built in full before any code is overwritten
        code[d:] = compose[k ** k * code[d:] + code[:-d]]
        d *= 2
    route = np.empty(n, dtype=np.intp)
    route[:1] = start
    route[1:] = code[:-1] // weights[start] % k
    return route


def next_start(outcome: int, cfg) -> int:
    """Candidate system state of the cycle after one with this outcome
    (+1 or -1): where the next block of a chained stream starts."""
    return int(prepare_stream_inputs(cfg).next_index[0 if outcome == 1 else 1])


def simulate_stream(thetas: np.ndarray, phis: np.ndarray, u_outcome: np.ndarray,
                    cfg, start: int = 0) -> StreamResult:
    """Run one stream of collisions for pre-drawn ancilla angles and
    outcome variates.  The first cycle sees candidate system state
    ``start``: 0 is |0><0|; under finite reset 1 and 2 are the relaxed
    |+> and |->, which continue a chain cut after outcome +1 or -1.

    ``phis`` is checked for shape only: no output depends on it.
    """
    tab = prepare_stream_inputs(cfg)
    thetas = np.asarray(thetas, dtype=np.float64)
    u_outcome = np.asarray(u_outcome, dtype=np.float64)
    if not (thetas.shape == np.shape(phis) == u_outcome.shape):
        raise ValueError("thetas, phis and u_outcome must share one shape")
    k = len(tab.t_coh2)    # candidate system states
    if start not in range(k):
        raise ValueError(f"start must index one of the {k} candidate "
                         f"system states, got {start!r}")
    omega = cfg.omega
    half = 0.5 * thetas
    psi00 = np.cos(half) ** 2
    psi11 = np.sin(half) ** 2

    # outcome +1 under every candidate system state, then the route
    p_cand = (psi00[:, None] * tab.k_diag[:, 0, 0]
              + psi11[:, None] * tab.k_diag[:, 0, 1])
    plus_cand = (p_cand >= DEGENERATE_P) & (
        (p_cand > 1.0 - DEGENERATE_P) | (u_outcome[:, None] < p_cand))
    if k == 1:
        ci = np.zeros(thetas.shape[0], dtype=np.intp)
        p_plus = p_cand[:, 0]
        plus = plus_cand[:, 0]
    else:
        ci = _route(np.where(plus_cand, *tab.next_index), start)
        rows = np.arange(thetas.shape[0])
        p_plus = p_cand[rows, ci]
        plus = plus_cand[rows, ci]

    # realized branch psi o K_x, as Bloch z and length of the ancilla
    branch = 2 * ci + (~plus)
    k_diag = tab.k_diag.reshape(-1, 2)
    a00 = psi00 * k_diag[branch, 0]
    a11 = psi11 * k_diag[branch, 1]
    tr = a00 + a11
    dz = a00 - a11
    rz = dz / tr
    rlen = np.sqrt(dz * dz + 4.0 * psi00 * psi11
                   * tab.k_coh2.reshape(-1)[branch]) / tr
    w_keep = np.maximum(0.5 * omega * (rlen - rz), 0.0)
    w_flip = np.maximum(0.5 * omega * (rlen + rz), 0.0)

    # dephased block psi o T, then pulsed
    t_diag = tab.t_diag[ci]
    d_z = psi00 * t_diag[:, 0] - psi11 * t_diag[:, 1]
    d_len = np.sqrt(d_z * d_z + 4.0 * psi00 * psi11 * tab.t_coh2[ci])

    delta_e = tab.delta_e[ci]
    return StreamResult(
        w_raw=omega * psi11,
        p_plus=p_plus,
        outcome=np.where(plus, 1, -1).astype(np.int8),
        w_keep=w_keep,
        w_flip=w_flip,
        w_out=np.where(plus, w_flip, w_keep),
        w_dephased=np.maximum(0.5 * omega * (d_len + d_z), 0.0),
        pulse_work=np.where(plus, omega * rz, 0.0),
        delta_e_col=psi00 * delta_e[:, 0] + psi11 * delta_e[:, 1],
    )
