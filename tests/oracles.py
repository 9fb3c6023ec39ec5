"""Independent brute-force oracles shared by the tests.

Everything here is written the slow, obvious way (explicit matrix products
and plain loops) and stays independent of the library code paths it checks.
"""

import itertools
import json

import numpy as np

from cimsel.channel import ChannelMatrix, ConfigAssignment, MimoConfig


def selection_diagonals(config: MimoConfig, sel: ConfigAssignment):
    """Explicit 0/1 diagonal selection matrices (transmit side, receive side)."""
    x = np.zeros((config.cols, config.cols))
    for t, c in enumerate(sel.tx):
        x[t * config.n_states + c, t * config.n_states + c] = 1.0
    y = np.zeros((config.rows, config.rows))
    for r, c in enumerate(sel.rx):
        y[r * config.n_states + c, r * config.n_states + c] = 1.0
    return x, y


def trace_objective(g: ChannelMatrix, sel: ConfigAssignment) -> float:
    """Objective via explicit matrix products: Tr(H H^H) with H = Y G X."""
    x, y = selection_diagonals(g.config, sel)
    h = y @ g.entries @ x
    return float(np.trace(h @ h.conj().T).real)


def violation_quadratic(b, r, n_blocks) -> float:
    """One-hot violation via the quadratic form with its constant restored."""
    b = np.asarray(b, dtype=float)
    ones = np.ones(len(b))
    return float(b @ r @ b - 2.0 * ones @ b + n_blocks)


def all_bit_vectors(d):
    """All 0/1 vectors of length d, lexicographic."""
    return [np.array(bits, dtype=np.int64) for bits in itertools.product((0, 1), repeat=d)]


def all_spin_vectors(d):
    """All +-1 vectors of length d, lexicographic over (-1, +1)."""
    return [np.array(s, dtype=np.int64) for s in itertools.product((-1, 1), repeat=d)]


def feasible_assignments(config: MimoConfig):
    """Every assignment, in lexicographic (tx-major) order."""
    for states in itertools.product(range(config.n_states), repeat=config.n_antennas):
        yield ConfigAssignment(tx=states[: config.n_t], rx=states[config.n_t:])


def assignment_bits(sel: ConfigAssignment, config: MimoConfig):
    """0/1 selection vector of an assignment (transmit bits first)."""
    bits = np.zeros(config.d, dtype=np.int64)
    for antenna, state in enumerate(sel.tx + sel.rx):
        bits[antenna * config.n_states + state] = 1
    return bits


def binary_objective(q, b) -> float:
    """The quadratic form ``b^T q b``."""
    b = np.asarray(b, dtype=float)
    return float(b @ q @ b)


def read_instance(path):
    """Rebuild ``(coupling matrix, lambda)`` from an Ising export file."""
    with open(path) as fh:
        payload = json.load(fh)
    dim = payload["dim"]
    j = np.zeros((dim, dim))
    j[np.triu_indices(dim)] = payload["j"]
    return j + np.triu(j, 1).T, payload["lambda"]


def brute_force_best(g: ChannelMatrix):
    """Constrained optimum by plain loops over every assignment."""
    best_val, best_sel = -np.inf, None
    for sel in feasible_assignments(g.config):
        val = trace_objective(g, sel)
        if val > best_val:
            best_val, best_sel = val, sel
    return best_val, best_sel


def channel_from_amplitudes(amps, n_t, n_r, n_states, seed=0) -> ChannelMatrix:
    """Build a channel whose entries are the given (real) amplitudes."""
    cfg = MimoConfig(n_t=n_t, n_r=n_r, n_states=n_states)
    entries = np.asarray(amps, dtype=complex)
    return ChannelMatrix(config=cfg, entries=entries, seed=seed)


# The unfused Euler step, one allocating numpy expression per term: the
# reference the in-place integrator is checked against.
E_FLOOR = 1e-12


def reference_step_arrays(x, e, t, jm, params):
    """One Euler step on batched state arrays; returns new (x, e)."""
    eps = params.gamma * t
    with np.errstate(over="ignore", invalid="ignore"):
        x_sq = x * x
        dx = (params.p - 1.0) * x - x_sq * x + eps * e * (x @ jm)
        e_new = e + params.dt * (-params.beta * (x_sq - params.a) * e)
        x_new = x + params.dt * dx
        np.clip(x_new, -params.x_clip, params.x_clip, out=x_new)
        np.maximum(e_new, E_FLOOR, out=e_new)
    return x_new, e_new


def reference_integrate(jm, x0, params, record_every):
    """Batch integration by repeated reference steps, with the same
    abort-and-freeze rule and snapshot schedule as the library.

    Returns ``(x, aborted, snaps, snap_steps)``; ``snaps`` holds raw
    amplitudes, not readouts, so callers can compare both.
    """
    x = np.array(x0, dtype=float, copy=True)
    e = np.ones_like(x)
    aborted = np.zeros(len(x), dtype=bool)
    snaps, snap_steps = [x.copy()], [0]
    for k in range(1, params.steps + 1):
        x, e = reference_step_arrays(x, e, (k - 1) * params.dt, jm, params)
        bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(e).all(axis=1))
        aborted |= bad
        x[bad] = 0.0
        e[bad] = 1.0
        if k % record_every == 0 or k == params.steps:
            if snap_steps[-1] != k:
                snaps.append(x.copy())
                snap_steps.append(k)
    return x, aborted, np.stack(snaps), np.asarray(snap_steps)


def every_step_integrate(jm, x0, params, record_every=0):
    """The integrator with its finiteness check after every step: the loop
    of ``cim._integrate`` before the check moved to readout steps, driving
    the same ``cim._EulerStep`` kernel.  Returns ``(x, aborted, snaps,
    snap_steps)`` like ``cim._integrate``."""
    from cimsel.cim import _EulerStep, _one_blas_thread, readout

    x = np.array(x0, dtype=float, copy=True)
    e = np.ones_like(x)
    euler_step = _EulerStep(jm, x.shape, params)
    aborted = np.zeros(len(x), dtype=bool)
    snaps, snap_steps = [], []
    if record_every:
        snaps.append(readout(x))
        snap_steps.append(0)
    # overflow is the divergence signal, caught via isfinite below; the
    # numpy warnings would only repeat it
    with _one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, params.steps + 1):
            euler_step(x, e, (k - 1) * params.dt)
            # cheap whole-batch probe; NaN/inf contaminate the sums if present
            if not np.isfinite(x.sum() + e.sum()):
                bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(e).all(axis=1))
                aborted |= bad
                x[bad] = 0.0
                e[bad] = 1.0
            if record_every and (k % record_every == 0 or k == params.steps):
                snaps.append(readout(x))
                snap_steps.append(k)
    snap_arr = np.stack(snaps) if snaps else None
    step_arr = np.asarray(snap_steps, dtype=np.int64) if snaps else None
    return x, aborted, snap_arr, step_arr


def decode_every_readout(g: ChannelMatrix, lam, params, seed, record_every):
    """``bench.run_instance``'s trace arrays, final ``p_c``, ``best`` and
    ``best_assignment``, decoding and scoring every row of the readout table
    rather than each changed readout once."""
    from cimsel.baselines import random_selection
    from cimsel.bench import _D_FALLBACK, cim_master_seed
    from cimsel.channel import score_states
    from cimsel.cim import solve
    from cimsel.formulation import compile_instance, decode_states
    from cimsel.rng import substream

    outcomes = solve(compile_instance(g, lam), params, cim_master_seed(seed), record_every)
    aborted = np.array([o.aborted for o in outcomes])
    table = np.stack([o.trajectory for o in outcomes])
    n_anneals, n_samples, dim = table.shape
    fallback = random_selection(g, substream(seed, _D_FALLBACK))
    feasible, states = decode_states(table.reshape(-1, dim), g.config)
    feasible = feasible.reshape(n_anneals, n_samples) & ~aborted[:, None]
    scores = score_states(g, states).reshape(n_anneals, n_samples)
    scores = np.where(feasible, scores, fallback.objective)
    k_best = int(np.argmax(scores[:, -1]))
    if feasible[k_best, -1]:
        best_states = states.reshape(n_anneals, n_samples, -1)[k_best, -1]
        n_t = g.config.n_t
        best_assignment = ConfigAssignment(tx=tuple(best_states[:n_t]),
                                           rx=tuple(best_states[n_t:]))
    else:
        best_assignment = fallback.assignment
    trace_best = scores.max(axis=0)
    return {
        "trace_steps": outcomes[0].trajectory_steps,
        "trace_best": trace_best,
        "trace_avg": np.minimum(scores.mean(axis=0), trace_best),
        "trace_pc": feasible.mean(axis=0),
        "p_c": float(feasible[:, -1].mean()),
        "best": float(scores[k_best, -1]),
        "best_assignment": best_assignment,
        "n_aborted": int(aborted.sum()),
    }


def substream_table(master_seed, n_streams, low, high, size):
    """The start table the slow way: one generator per stream, row ``k``
    drawn from ``substream(master_seed, k)``."""
    from cimsel.rng import substream

    return np.stack(
        [substream(master_seed, k).uniform(low, high, size) for k in range(n_streams)]
    )
