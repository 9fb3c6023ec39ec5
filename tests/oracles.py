"""Independent brute-force oracles shared by the tests.

Everything here is written the slow, obvious way (explicit matrix products
and plain loops) and stays independent of the library code paths it checks.
"""

import itertools

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


def brute_force_best(g: ChannelMatrix):
    """Constrained optimum by plain loops over every assignment."""
    cfg = g.config
    best_val, best_sel = -np.inf, None
    for states in itertools.product(range(cfg.n_states), repeat=cfg.n_antennas):
        sel = ConfigAssignment(tx=states[: cfg.n_t], rx=states[cfg.n_t:])
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
