"""Classical emulation of an amplitude-heterogeneity-corrected Ising solver.

The machine is a network of soft-spin amplitudes ``x_i`` coupled through the
instance matrix ``J`` and stabilised by per-spin error variables ``e_i``:

    dx_i/dt = (p - 1) x_i - x_i^3 + eps * e_i * sum_{j != i} J_ij x_j
    de_i/dt = -beta * (x_i^2 - a) * e_i,        eps = gamma * t

The error variables pump energy into spins whose amplitude sits below the
target ``a`` and bleed it from spins above, which destabilises local minima
of the quadratic form.  Integration is explicit Euler with a fixed step;
the readout after the final step is ``s_i = sign(x_i)`` and the solver's
score is ``s0^T J s0`` (to be maximised).

Notes on the numerics:

* ``eps = gamma * t`` grows without bound over a run (with the default
  constants it reaches 1000 by the last step).  Late in the run the
  coupling term dominates and the amplitude clamp ``x_clip`` plus the decay
  of ``e`` are what keep the state bounded.  This is deliberate; changing
  the ramp changes the solver.
* All randomness lives in the initial amplitudes; the integration itself is
  deterministic.  ``(J, params, master_seed)`` fully determines every
  outcome of :func:`solve`, independent of execution order.  Anneal ``k``
  starts from ``substream(master_seed, k).uniform(-init_scale, init_scale,
  dim)``; :func:`rng.uniform_table` draws all of these rows at once, bit for
  bit equal to that loop (``tests/test_rng.py`` checks it), on every call,
  so no table is kept between solves.
* ``sign(0)`` reads out as +1 (a measure-zero tie; the rule just has to be
  fixed).
* Both state variables are updated from the pre-update amplitudes within a
  step, so the update is order-independent across indices.  With the
  constants folded, one step from time ``t`` reads

      x <- clip(x * (c_x - dt x^2) + e * (x @ (dt eps J)), -x_clip, x_clip)
      e <- max(e * (c_e - dt beta x^2), E_FLOOR)

  with ``c_x = 1 + dt (p - 1)`` and ``c_e = 1 + dt beta a``.  One kernel,
  ``_EulerStep``, applies it in place to a batch over buffers allocated once
  per run, and :func:`solve` runs it on all anneals at once, so there is a
  single step path and a single entry point.  Against the unfolded
  form the regrouped arithmetic moves amplitudes in the last few bits (up
  to a few 1e-13 after 1000 steps); on the tested plans no readout changes.
* An anneal whose state goes non-finite (possible only with aggressive
  user-supplied parameters) is aborted: its row is frozen at zero and the
  outcome is flagged rather than dropped.  Where the parameters keep a
  non-finite row non-finite (the default operating point among them), the
  check runs only at readout steps: each recorded sample and the final
  step.  Otherwise it runs after every step.  The argument is in
  :func:`_integrate`; the abort flags and readouts are the same either way.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .formulation import IsingInstance
# unused here; perfbench/tracing.py wraps cimsel.cim.substream until ROADMAP item 1
from .rng import substream, uniform_table

__all__ = [
    "E_FLOOR",
    "CimParams",
    "AnnealOutcome",
    "solve",
    "readout",
    "ising_energy",
    "write_trajectory_csv",
]

# Lower clamp for the error variables, which must stay positive.
E_FLOOR = 1e-12


@dataclass(frozen=True)
class CimParams:
    """Dynamical-model constants and run sizes.

    Defaults are the reference operating point used throughout the
    benchmarks: pump ``p`` just below threshold, unit error-correction rate,
    target squared amplitude ``a = 2``, coupling ramp ``eps = gamma * t``
    with ``gamma = 100``, and 1000 Euler steps of ``dt = 0.01``.
    """

    p: float = 0.98
    beta: float = 1.0
    a: float = 2.0
    gamma: float = 100.0
    dt: float = 0.01
    steps: int = 1000
    n_anneals: int = 1000
    init_scale: float = 0.01
    x_clip: float = 10.0

    def __post_init__(self):
        for name in ("p", "beta", "a", "gamma", "dt", "init_scale", "x_clip"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("a", "dt", "init_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("steps", "n_anneals"):
            value = getattr(self, name)
            try:
                count = None if isinstance(value, bool) else operator.index(value)
            except TypeError:
                count = None
            if count is None or count < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.x_clip <= np.sqrt(self.a):
            raise ValueError(
                f"x_clip must exceed sqrt(a) = {np.sqrt(self.a):.4g}, got {self.x_clip}"
            )


@dataclass(eq=False)
class AnnealOutcome:
    """Readout of one anneal: final spins, optional trajectory."""

    spins: np.ndarray
    aborted: bool = False
    trajectory: Optional[np.ndarray] = None
    trajectory_steps: Optional[np.ndarray] = None


def _coupling_matrix(j) -> np.ndarray:
    return j.j if isinstance(j, IsingInstance) else np.asarray(j, dtype=float)


def readout(x: np.ndarray) -> np.ndarray:
    """Spin readout ``sign(x)`` with zeros mapped to +1 (and NaN to -1)."""
    spins = np.empty(np.shape(x), dtype=np.int8)
    np.greater_equal(x, 0.0, out=spins.view(np.bool_))
    spins *= 2
    spins -= 1
    return spins


def ising_energy(j, spins: np.ndarray) -> float:
    """Quadratic score ``s^T J s`` of a spin vector (larger is better here)."""
    jm = _coupling_matrix(j)
    s = np.asarray(spins, dtype=float)
    return float(s @ jm @ s)


class _EulerStep:
    """The in-place Euler step of a batch of anneals over preallocated buffers.

    One instance serves one ``(n_anneals, dim)`` batch for a whole run;
    calling it advances ``x`` and ``e`` in place from model time ``t`` to
    ``t + dt`` with no array allocation.  ``eps`` uses the time at the start
    of the step, so the coupling term vanishes on the very first step, and
    both updates read the pre-update amplitudes.
    """

    def __init__(self, jm: np.ndarray, shape, params: CimParams):
        self.jm = np.asarray(jm, dtype=float)
        # the per-step constants, each computed by the expression the step
        # used to evaluate on every call
        self.dt_gamma = params.dt * params.gamma
        self.c_x = 1.0 + params.dt * (params.p - 1.0)
        self.c_e = 1.0 + params.dt * params.beta * params.a
        self.e_rate = -params.dt * params.beta
        self.x_rate = -params.dt
        self.x_clip = params.x_clip
        # the e factor over the largest reachable |x|, as the step rounds it
        x_max = max(params.x_clip, params.init_scale)
        self.divergence_sticks = self.c_e > 0 and x_max * x_max * self.e_rate + self.c_e > 0
        self.j_scaled = np.empty_like(self.jm)
        self.x_sq = np.empty(shape)
        self.coupling = np.empty(shape)
        self.factor = np.empty(shape)

    def __call__(self, x: np.ndarray, e: np.ndarray, t: float) -> None:
        x_sq, coupling, factor = self.x_sq, self.coupling, self.factor
        np.square(x, out=x_sq)
        # (dt * eps * J) costs dim^2 multiplies against n_anneals * dim for
        # scaling the matmul's output
        np.multiply(self.jm, self.dt_gamma * t, out=self.j_scaled)
        np.matmul(x, self.j_scaled, out=coupling)
        coupling *= e
        # e <- max(e * (c_e - dt*beta*x^2), E_FLOOR)
        np.multiply(x_sq, self.e_rate, out=factor)
        factor += self.c_e
        e *= factor
        np.maximum(e, E_FLOOR, out=e)
        # x <- clip(x * (c_x - dt*x^2) + dt*eps*e*(x @ J))
        x_sq *= self.x_rate
        x_sq += self.c_x
        x *= x_sq
        x += coupling
        x.clip(-self.x_clip, self.x_clip, out=x)


@functools.cache
def _openblas_threads():
    """``(get, set)`` thread-count functions of the OpenBLAS numpy loaded, or
    ``None`` when none is found (another BLAS, or no ``/proc``)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore the caller's
    count; without OpenBLAS, do nothing.

    The step's ``(n_anneals, dim) @ (dim, dim)`` matmul is too small to gain
    from a split: on two threads it ran slower and the second thread spun,
    and under ``--workers`` the threads of each process compete for the same
    cores.  Worker processes are the parallelism.  OpenBLAS splits a matmul
    over rows and columns, never the summed axis, so the thread count does
    not change a result bit.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    caller = get()
    set_(1)
    try:
        yield
    finally:
        set_(caller)


def _integrate(jm, x0, params, record_every=0):
    """Integrate a batch of anneals (rows of ``x0``) for ``params.steps`` steps.

    Returns ``(x, aborted, snaps, snap_steps)`` where ``snaps`` stacks sign
    readouts of shape ``(n_samples, n_anneals, dim)`` taken at step indices
    ``0, record_every, 2*record_every, ...`` plus the final step.  Rows that
    go non-finite are flagged in ``aborted`` and frozen at zero so the rest
    of the batch keeps integrating.  Every ``|x0|`` must be at most
    ``params.init_scale``, as :func:`solve` draws it.

    When the kernel's ``divergence_sticks`` holds, the finiteness check runs
    only at snapshot steps and the final step; otherwise after every step.
    The flag holds when ``c_e > 0`` and the ``e`` factor
    ``fl(fl(fl(X*X) * (-dt*beta)) + c_e)`` is positive at
    ``X = max(x_clip, init_scale)``.  A finite ``|x|`` never exceeds ``X``.
    For ``beta > 0`` the factor falls as ``|x|`` grows, and for ``beta <= 0``
    it is at least ``c_e``; rounding is monotone, so the factor is positive
    for every finite ``x``.  After a step, ``x`` is finite or NaN (the clamp
    maps +-inf to +-x_clip and keeps NaN) and ``e`` is finite, NaN or
    ``+inf`` (``np.maximum`` keeps NaN and lifts ``-inf``).  A NaN ``x``
    makes every later ``x`` and ``e`` of its entry NaN, a NaN ``e`` does the
    same, and ``e = +inf`` times a positive factor stays ``+inf``.  So a row
    that goes non-finite stays non-finite until the next check, which flags
    it and zeroes it as the every-step check would have.  Rows never mix
    (``x @ J`` is row by row), so the other rows, the aborted mask and every
    readout are unchanged; an aborted row holds zero amplitudes at every
    readout either way.
    """
    x = np.array(x0, dtype=float, copy=True)
    e = np.ones_like(x)
    euler_step = _EulerStep(jm, x.shape, params)
    check_every = (record_every or params.steps) if euler_step.divergence_sticks else 1
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
            last = k == params.steps
            # cheap whole-batch probe; NaN/inf contaminate the sums if present
            if (k % check_every == 0 or last) and not np.isfinite(x.sum() + e.sum()):
                bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(e).all(axis=1))
                aborted |= bad
                x[bad] = 0.0
                e[bad] = 1.0
            if record_every and (k % record_every == 0 or last):
                snaps.append(readout(x))
                snap_steps.append(k)
    snap_arr = np.stack(snaps) if snaps else None
    step_arr = np.asarray(snap_steps, dtype=np.int64) if snaps else None
    return x, aborted, snap_arr, step_arr


def solve(
    j, params: CimParams, master_seed: int, record_every: int = 0
) -> list[AnnealOutcome]:
    """Run ``params.n_anneals`` independent anneals and return all outcomes.

    Anneal ``k`` draws its initialisation from the stream
    ``(master_seed, k)``, so the result list is ordered by ``k`` and is a
    pure function of ``(j, params, master_seed)``.  The batch is integrated
    as one vectorised system; anneals that diverge come back flagged
    ``aborted`` instead of being dropped.
    """
    jm = _coupling_matrix(j)
    x0 = uniform_table(
        master_seed, params.n_anneals, -params.init_scale, params.init_scale, jm.shape[0]
    )
    x, aborted, snaps, snap_steps = _integrate(jm, x0, params, record_every)
    spins = readout(x)
    outcomes = []
    for k in range(params.n_anneals):
        outcomes.append(
            AnnealOutcome(
                spins=spins[k],
                aborted=bool(aborted[k]),
                trajectory=snaps[:, k, :] if snaps is not None else None,
                trajectory_steps=snap_steps,
            )
        )
    return outcomes


def write_trajectory_csv(outcome: AnnealOutcome, j, params: CimParams, path) -> None:
    """Dump one anneal's recorded readouts: step, t, per-spin sign, energy."""
    if outcome.trajectory is None:
        raise ValueError("outcome has no recorded trajectory")
    jm = _coupling_matrix(j)
    dim = jm.shape[1]
    with open(path, "w") as fh:
        fh.write("step,t," + ",".join(f"s{i}" for i in range(dim)) + ",energy\n")
        for k, spins in zip(outcome.trajectory_steps, outcome.trajectory):
            energy = ising_energy(jm, spins)
            cells = [str(int(k)), repr(float(k) * params.dt)]
            cells += [str(int(s)) for s in spins]
            cells.append(repr(energy))
            fh.write(",".join(cells) + "\n")
