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

For system state rho_S and ancilla psi, the unnormalized ancilla block
left by the sigma_x outcome x is the elementwise product psi o K_x, with
K_x[a, b] = <x| R_a rho_S R_b^dag |x>.  Summed over x it is the dephased
block psi o T, T[a, b] = Tr(R_a rho_S R_b^dag), and the system energy
change is linear in psi_00 and psi_11.  The system state entering a
collision is one of at most k = 3 candidates: |0><0| (the first cycle,
and every cycle under full reset) or the relaxed |+> or |-> after a
finite reset.  So K, T and the energy coefficients are tabulated once per
call, and each cycle touches only (n,) and (k, n) arrays.  Ergotropies
see the coherence psi_01 only through its modulus, so no output depends
on the azimuth phi.

The kernel therefore works on the excited population psi_11 alone: a
pure ancilla has psi_00 = 1 - psi_11 and |psi_01|^2 = psi_00 psi_11.  A
Haar draw cos(theta) = 1 - 2u gives psi_11 = sin^2(theta/2) = u exactly,
so the experiments pass u itself and the kernel evaluates no sin or cos.
They still draw three uniforms per cycle (the phi one goes unused), so
the seeds give the same streams.  :func:`simulate_stream` keeps theta as
its first argument, and the experiments still pass arccos(1 - 2u) there,
because the benchmark in perfbench/ wraps that function and reads the
stream length from its first argument.  Only the requested fields are
computed: the histogram and the reset sweep read two of nine.

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
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .channels import DEGENERATE_P, collision_unitary, reset_closed_form
from .demon import ThresholdFlip
from .qmath import KET_MINUS, KET_PLUS
from .states import ground_state


class StreamResult(NamedTuple):
    """Per-cycle outputs of one simulated stream (all length n).

    A stream computes only the fields it is asked for; the others are
    None, except outcome, which is always there.  w_raw is omega psi_11.
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


def prepare_stream_inputs(cfg) -> StreamTables:
    """Tabulate the closed form for an EngineConfig.  Kernels implement
    the threshold policy only."""
    if not isinstance(cfg.policy, ThresholdFlip):
        raise ValueError("kernels implement the threshold policy only; "
                         "run Bayes policies through engine.run_trajectory")
    return _tables(cfg.collision, cfg.reset, cfg.reset_mode)


@lru_cache(maxsize=64)
def _tables(collision, reset, reset_mode) -> StreamTables:
    """The tables for one parameter set, computed once: every chunk of a
    sweep point would otherwise rebuild them.  The arrays are read-only
    because every caller shares them."""
    if reset_mode == "full":
        candidates = ground_state().mat[np.newaxis]
        next_index = np.array([0, 0], dtype=np.int8)
    else:
        candidates = np.stack([
            ground_state().mat,
            reset_closed_form(+1, reset).mat,
            reset_closed_form(-1, reset).mat,
        ])
        next_index = np.array([1, 2], dtype=np.int8)
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
    # the smallest integer type that holds every lookup index below k^2k
    dtype = np.min_scalar_type(k ** (2 * k))
    # [g, f] -> g o f
    compose = (maps[:, maps] @ weights).ravel().astype(dtype)
    code = (weights @ successor.T).astype(dtype)
    d = 1
    while d < n:
        # the lookup index is built in full before any code is overwritten
        pair = code[d:] * k ** k
        pair += code[:-d]
        code[d:] = compose.take(pair)
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
                    cfg, start: int = 0, *, psi11: Optional[np.ndarray] = None,
                    fields: Optional[Sequence[str]] = None) -> StreamResult:
    """Run one stream of collisions for pre-drawn ancilla angles and
    outcome variates.  The first cycle sees candidate system state
    ``start``: 0 is |0><0|; under finite reset 1 and 2 are the relaxed
    |+> and |->, which continue a chain cut after outcome +1 or -1.

    ``psi11`` is the excited population of each ancilla, sin^2(theta/2)
    when omitted; a caller holding the Haar uniform u of cos(theta) =
    1 - 2u passes u itself, which is that population exactly.
    ``fields`` names the StreamResult fields to compute, all by default;
    the others come back as None, except ``outcome``, which is always
    computed because a chained stream continues from its last entry.
    ``phis`` is checked for shape only: no output depends on it.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if not (thetas.shape == np.shape(phis) == np.shape(u_outcome)):
        raise ValueError("thetas, phis and u_outcome must share one shape")
    if psi11 is None:
        psi11 = np.sin(0.5 * thetas) ** 2
    return _stream(psi11, u_outcome, cfg, start,
                   StreamResult._fields if fields is None else fields)


def _stream(psi11, u_outcome, cfg, start: int,
            fields: Sequence[str]) -> StreamResult:
    """The kernel behind :func:`simulate_stream`: the named fields of one
    stream from the excited populations ``psi11`` and the outcome
    variates."""
    tab = prepare_stream_inputs(cfg)
    # contiguous copies of strided columns make every later pass faster
    psi11 = np.ascontiguousarray(psi11, dtype=np.float64)
    u_outcome = np.ascontiguousarray(u_outcome, dtype=np.float64)
    if psi11.shape != u_outcome.shape:
        raise ValueError("psi11, thetas and u_outcome must share one shape")
    k = len(tab.t_coh2)    # candidate system states
    if start not in range(k):
        raise ValueError(f"start must index one of the {k} candidate "
                         f"system states, got {start!r}")
    wanted = set(fields)
    unknown = wanted - set(StreamResult._fields)
    if unknown:
        raise ValueError(f"unknown StreamResult fields {sorted(unknown)}")
    omega = cfg.omega
    psi00 = 1.0 - psi11
    out = dict.fromkeys(StreamResult._fields)

    # outcome +1 under every candidate system state (one row each, so every
    # operation runs over a whole row), then the route; with one
    # candidate, ci is the scalar 0 and the tables broadcast
    p_cand = (tab.k_diag[:, 0, 0, None] * psi00
              + tab.k_diag[:, 0, 1, None] * psi11)
    plus_cand = (p_cand >= DEGENERATE_P) & (
        (p_cand > 1.0 - DEGENERATE_P) | (u_outcome < p_cand))
    if k == 1:
        ci = pick = 0
    else:
        # next_index[0] after +1, [1] after -1 (take is faster than where)
        successor = tab.next_index.take(~plus_cand * 1)
        ci = _route(successor.T, start)
        pick = (ci, np.arange(len(psi11)))
    plus = plus_cand[pick]
    out["outcome"] = np.where(plus, 1, -1).astype(np.int8)
    if "p_plus" in wanted:
        out["p_plus"] = p_cand[pick]
    if "w_raw" in wanted:
        out["w_raw"] = omega * psi11

    # realized branch psi o K_x, as Bloch z and length of the ancilla
    if wanted & {"w_keep", "w_flip", "w_out", "pulse_work"}:
        branch = 2 * ci + (~plus)
        k_diag = tab.k_diag.reshape(-1, 2)
        a00 = psi00 * k_diag[branch, 0]
        a11 = psi11 * k_diag[branch, 1]
        tr = a00 + a11
        dz = a00 - a11
        rz = dz / tr
        if "pulse_work" in wanted:
            out["pulse_work"] = np.where(plus, omega * rz, 0.0)
    if wanted & {"w_keep", "w_flip", "w_out"}:
        rlen = np.sqrt(dz * dz + 4.0 * psi00 * psi11
                       * tab.k_coh2.reshape(-1)[branch]) / tr
        half = 0.5 * omega
        if "w_keep" in wanted:
            out["w_keep"] = np.maximum(half * (rlen - rz), 0.0)
        if "w_flip" in wanted:
            out["w_flip"] = np.maximum(half * (rlen + rz), 0.0)
        if "w_out" in wanted:
            out["w_out"] = np.maximum(
                half * (rlen + np.where(plus, rz, -rz)), 0.0)

    if "w_dephased" in wanted:
        # dephased block psi o T, then pulsed
        t_diag = tab.t_diag[ci]
        d_z = psi00 * t_diag[..., 0] - psi11 * t_diag[..., 1]
        d_len = np.sqrt(d_z * d_z + 4.0 * psi00 * psi11 * tab.t_coh2[ci])
        out["w_dephased"] = np.maximum(0.5 * omega * (d_len + d_z), 0.0)
    if "delta_e_col" in wanted:
        delta_e = tab.delta_e[ci]
        out["delta_e_col"] = psi00 * delta_e[..., 0] + psi11 * delta_e[..., 1]
    return StreamResult(**out)
