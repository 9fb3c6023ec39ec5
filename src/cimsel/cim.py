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
  coupling term dominates, and the decay of ``e`` alone keeps the state
  bounded.  On the default solves of the paper-scale benchmark commands
  (2x2x2 and 4x4x4, 42 solves of 1000 anneals) the clamp ``x_clip``
  changed a value on 0-11 steps per solve, all between steps 25 and 58;
  the floor ``E_FLOOR`` never did (the smallest ``e`` was 2.2e-4), and
  ``max|x|`` after the last step was 1.45-2.73.  This is deliberate;
  changing the ramp changes the solver.
* All randomness lives in the initial amplitudes; the integration itself is
  deterministic.  ``(J, params, master_seed)`` fully determines every
  record of :func:`solve`, independent of execution order and of the other
  couplings of a batch.  Anneal ``k`` starts from
  ``substream(master_seed, k).uniform(-init_scale, init_scale, dim)``;
  :func:`rng.uniform_table` draws all of these rows at once, bit for bit
  equal to that loop (``tests/test_rng.py`` checks it), on every call, so
  no table is kept between solves.
* ``sign(0)`` reads out as +1 (a measure-zero tie; the rule just has to be
  fixed).
* Both state variables are updated from the pre-update amplitudes within a
  step, so the update is order-independent across indices.  With the
  constants folded, one step from time ``t`` reads

      x <- clip(x * (c_x - dt x^2) + e * (x @ (dt eps J)), -x_clip, x_clip)
      e <- max(e * (c_e - dt beta x^2), E_FLOOR)

  with ``c_x = 1 + dt (p - 1)`` and ``c_e = 1 + dt beta a``.  One kernel,
  ``_EulerStep``, owns one run: it adopts :func:`solve`'s start table as
  ``x`` and steps all anneals at once in place, a whole span of steps per
  call, so there is a single step body and a single entry point.  A run
  stops between spans only for a finiteness check or the observer.
  Against the unfolded form the regrouped arithmetic moves amplitudes in
  the last few bits (up to a few 1e-13 after 1000 steps); on the tested
  plans no readout changes.
* The step computes ``x @ (dt eps J)`` in row blocks that OpenBLAS's
  SkylakeX kernel runs on its small-matrix path (``_SMALL_GEMM_MNK``); the
  other passes run on the whole batch.  That path adds in another order,
  so at 1000 anneals from dim 32 on amplitudes move in their last bits
  against one product: by at most 5.2e-9 after 1000 steps over 28 default
  solves at dims 33 and 65, none of whose sampled readouts changed.
* One solve may run a stack of couplings of one size (an
  :class:`~cimsel.formulation.IsingBatch`, or a ``(n, dim, dim)`` array),
  each on its own consecutive ``n_anneals`` rows and every one from the
  same start table: a penalty-weight sweep runs
  :func:`couplings_per_solve` weights of an instance per solve.  Each
  elementwise pass then runs once on the whole batch, and each coupling's
  rows are multiplied by its own scaled ``J`` in the row blocks its rows
  alone would take.  So every row sees the operations, operands and BLAS
  calls of its own solve, and every record, readout and ``e`` of a
  coupling is bit for bit its own solve's (``TestCouplingBatch``).  The
  clamp and floor decisions below are taken over the whole batch; taken
  there, they only add ``clip``/``maximum`` passes that change no bit.
* The kernel skips the passes of that step that provably change no bit;
  ``tests/test_cim.py::TestCheckSchedule`` checks it byte for byte against
  the kernel that runs every pass, on plans where each of them binds, one
  of them a batch of two couplings where they bind for one.

  - *Floor.*  The kernel carries ``e_low``, a lower bound on every
    non-NaN ``e``.  The clamp test below takes ``m``, the batch maximum of
    the next step's ``x^2`` (``fl(x_clip^2)`` after a clamp).  Rounding is
    monotone, so every ``e`` factor of that step is at least
    ``f = min(c_e, fl(fl(m * (-dt beta)) + c_e))``.  While
    ``fl(e_low * f) >= E_FLOOR`` (so ``f > 0``), that product is the next
    bound and ``max(e, E_FLOOR)`` is skipped; NaN and ``+inf`` pass through
    it unchanged anyway.  Otherwise the floor runs, and ``e_low`` is re-read
    as the least non-NaN ``e`` unless the next ``f <= 0`` discards it.  A
    run starts from ``e_low = 0``, and an abort resets it to 0.  At the
    defaults the floor ran on 1-5 of 1000 steps (24 solves of 1000 anneals
    at dims 9 and 33).
  - *Clamp.*  The step squares the new ``x`` at its end, for the next
    step.  Rounding is monotone, so ``fl(x^2) < fl(x_clip^2)`` implies
    ``|x| <= x_clip``, and ``clip`` runs only when the batch maximum of
    ``x^2`` fails that test (NaN fails it too).
  - *Shared product.*  At ``beta = 1`` the two rates ``-dt beta`` and
    ``-dt`` are equal, so ``fl(x^2 * rate)`` is computed once for both
    factors.
* An anneal whose state goes non-finite (possible only with aggressive
  user-supplied parameters) is aborted: its row is frozen at zero and the
  anneal is flagged rather than dropped.  Where the parameters keep a
  non-finite row non-finite (the default operating point among them), the
  check runs only every ``record_every`` steps and at the final step.
  Otherwise it runs after every step.  The argument is in
  :func:`_integrate`; the abort flags and readouts are the same either way.
* A run is seen from outside only through :func:`solve`'s ``observer``,
  handed the step and the kernel at each readout step, which
  :func:`_integrate` alone schedules; :func:`solve`'s records hold the
  final readout alone, so a caller that scores readouts as they arrive
  keeps no readout table and restates no schedule.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._checks import integer, real
from ._files import write_csv
from .formulation import IsingBatch, IsingInstance
# unused here; perfbench/tracing.py wraps cimsel.cim.substream until ROADMAP item 1
from .rng import substream, uniform_table

__all__ = [
    "E_FLOOR",
    "CimParams",
    "couplings_per_solve",
    "solve",
    "readout",
    "ising_energy",
    "write_trajectory_csv",
]

# Lower clamp for the error variables, which must stay positive.
E_FLOOR = 1e-12

# OpenBLAS's SkylakeX kernel sends a dgemm with M*N*K <= 100**3 to its
# small-matrix path (x @ J at dim 33: 29 us for 918 rows, 53 us for 919),
# so the step multiplies in the fewest equal row blocks under that bound.
# Blocks of 58 rows or more took 0.58-0.82 of one product's time, and of 37
# rows or fewer 1.11-1.68 (1000 anneals, dims 9-257, one BLAS thread).  So a
# block holds at least _MIN_BLOCK_ROWS rows, and past dim 141 one product runs.
_SMALL_GEMM_MNK = 10**6
_MIN_BLOCK_ROWS = 50

# A step's fixed cost is shared by every row of the batch, so couplings of
# the same size run faster stacked into one solve, up to about this many
# (anneal, spin) cells.  Per anneal-step of the kernel alone, with 1000
# anneals a coupling on one BLAS thread of a 2-vCPU AVX-512 Xeon (OpenBLAS
# SkylakeX kernel), 1, 2 and 3 couplings cost 30.2, 26.4 and 26.4 ns at
# dim 9 and 41.2, 36.3 and 37.1 ns at dim 13; at dim 17, 2 cost 48.9 ns
# against 49.7 for 1, and 3 cost more.
_BATCH_CELLS = 30_000


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
            object.__setattr__(self, name, real(name, getattr(self, name)))
        for name in ("steps", "n_anneals"):
            object.__setattr__(self, name, integer(name, getattr(self, name), 1))
        for name in ("a", "dt", "init_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not math.isfinite(2 * self.init_scale):
            raise ValueError(f"init_scale must keep its draw range 2*init_scale finite, "
                             f"got {self.init_scale}")
        if self.x_clip <= np.sqrt(self.a):
            raise ValueError(
                f"x_clip must exceed sqrt(a) = {np.sqrt(self.a):.4g}, got {self.x_clip}"
            )


def couplings_per_solve(n_anneals: int, dim: int) -> int:
    """How many couplings of ``dim`` spins one :func:`solve` of
    ``n_anneals`` anneals each should batch: as many as ``_BATCH_CELLS``
    holds, and at least one."""
    return max(1, _BATCH_CELLS // (n_anneals * dim))


def _coupling_matrix(j) -> np.ndarray:
    return j.j if isinstance(j, (IsingInstance, IsingBatch)) else np.asarray(j, dtype=float)


def readout(x: np.ndarray) -> np.ndarray:
    """Spin readout ``sign(x)`` with zeros mapped to +1 (and NaN to -1)."""
    spins = np.empty(np.shape(x), dtype=np.int8)
    np.greater_equal(x, 0.0, out=spins.view(np.bool_))
    spins *= 2
    spins -= 1
    return spins


def ising_energy(j, spins: np.ndarray) -> float:
    """Quadratic score ``s^T J s`` of a spin vector (larger is better here).

    The ``±J_ij`` terms are summed exactly with ``math.fsum``, so the value
    does not depend on the order in which a BLAS kernel would add them.
    """
    s = np.asarray(spins, dtype=float)
    return math.fsum((np.outer(s, s) * _coupling_matrix(j)).ravel().tolist())


class _EulerStep:
    """One run of the in-place Euler step over a batch of anneals.

    The kernel adopts the ``(n_rows, dim)`` float amplitudes ``x`` it is
    given, without copying, and owns them with ``e = 1``, the ``aborted``
    flags and its work buffers; ``jm`` is one coupling matrix or a stack of
    them, one for each equal, consecutive share of the rows.
    :meth:`advance` runs a span of steps in one Python loop, advancing ``x``
    and ``e`` in place and allocating nothing; one span of many steps gives
    the bits of the same steps run one span each.  Step ``k`` starts from
    model time ``(k - 1) * dt`` and ``eps`` uses that time, so the coupling
    term vanishes on the first step, and both updates read the pre-update
    amplitudes.  The kernel carries
    ``x^2`` and a lower bound on ``e`` between spans (module notes), so only
    :meth:`abort_nonfinite` writes them then; ``e`` may be set before the
    first span."""

    def __init__(self, jm: np.ndarray, x: np.ndarray, params: CimParams):
        jm = np.asarray(jm, dtype=float)
        self.jm = jm.reshape(-1, *jm.shape[-2:])
        # the per-step constants, each computed by the expression the step
        # used to evaluate on every call
        self.dt = params.dt
        self.dt_gamma = params.dt * params.gamma
        self.c_x = 1.0 + params.dt * (params.p - 1.0)
        self.c_e = 1.0 + params.dt * params.beta * params.a
        self.e_rate = -params.dt * params.beta
        self.x_rate = -params.dt
        self.x_clip = params.x_clip
        self.clip_sq = params.x_clip * params.x_clip
        # at beta = 1 both factors share the product fl(x^2 * rate)
        self.shared_rate = self.e_rate == self.x_rate
        # the smallest e factor any reachable |x| gives, as the step rounds
        # it: at |x| = X for beta >= 0, at x = 0 (c_e) for beta < 0
        x_max = max(params.x_clip, params.init_scale)
        self.divergence_sticks = min(self.c_e, x_max * x_max * self.e_rate + self.c_e) > 0
        self.x = x
        self.e = np.ones_like(x)
        self.aborted = np.zeros(len(x), dtype=bool)
        # x_sq holds x^2 between steps; e_low bounds every non-NaN e from
        # below, and f every e factor of the next step
        self.x_sq = np.square(x)
        self.e_low = self.f = 0.0
        self.j_scaled = np.empty_like(self.jm)
        self.coupling = np.empty_like(x)
        self.factor = np.empty_like(x)
        # each coupling's rows in the fewest equal, contiguous row blocks of
        # at most `rows` rows, as (x, scaled J, coupling) views; one block a
        # coupling when blocks would be too thin
        n_couplings, (n, dim) = len(self.jm), x.shape
        if n % n_couplings:
            raise ValueError(f"{n} rows do not split evenly over {n_couplings} couplings")
        per = n // n_couplings
        rows = _SMALL_GEMM_MNK // max(dim * dim, 1)
        n_blocks = -(-per // rows) if rows >= _MIN_BLOCK_ROWS else 1
        edges = [per * i // n_blocks for i in range(n_blocks + 1)]
        self.blocks = [(x[c * per + a:c * per + b], self.j_scaled[c],
                        self.coupling[c * per + a:c * per + b])
                       for c in range(n_couplings) for a, b in zip(edges, edges[1:])]

    def advance(self, k0: int, k1: int) -> None:
        """Run steps ``k0 + 1 … k1``; step ``k`` starts from model time ``(k - 1) * dt``."""
        x, e, x_sq, coupling, factor = self.x, self.e, self.x_sq, self.coupling, self.factor
        jm, j_scaled, blocks = self.jm, self.j_scaled, self.blocks
        dt, dt_gamma, c_x, c_e = self.dt, self.dt_gamma, self.c_x, self.c_e
        e_rate, x_rate, shared_rate = self.e_rate, self.x_rate, self.shared_rate
        x_clip, clip_sq, e_low, f = self.x_clip, self.clip_sq, self.e_low, self.f
        add, multiply, matmul, square = np.add, np.multiply, np.matmul, np.square
        maximum, max_reduce, fmin_reduce = np.maximum, np.maximum.reduce, np.fmin.reduce
        for k in range(k0 + 1, k1 + 1):
            # a lower bound on every non-NaN e after this step's update
            e_low *= f
            # (dt * eps * J) costs dim^2 multiplies against n_anneals * dim
            # for scaling the matmul's output
            multiply(jm, dt_gamma * ((k - 1) * dt), j_scaled)
            for x_block, j_block, coupling_block in blocks:
                matmul(x_block, j_block, coupling_block)
            multiply(coupling, e, coupling)
            # e <- max(e * (c_e - dt*beta*x^2), E_FLOOR)
            if shared_rate:
                multiply(x_sq, x_rate, x_sq)
                add(x_sq, c_e, factor)
            else:
                multiply(x_sq, e_rate, factor)
                add(factor, c_e, factor)
                multiply(x_sq, x_rate, x_sq)
            multiply(e, factor, e)
            floored = not e_low >= E_FLOOR
            if floored:
                maximum(e, E_FLOOR, out=e)
            # x <- clip(x * (c_x - dt*x^2) + dt*eps*e*(x @ J))
            add(x_sq, c_x, x_sq)
            multiply(x, x_sq, x)
            add(x, coupling, x)
            # the next step's x^2; fl(x^2) < fl(x_clip^2) implies
            # |x| <= x_clip, and NaN fails the test, so a non-finite x still
            # goes through clip
            square(x, x_sq)
            x_sq_max = float(max_reduce(x_sq, None))
            if not x_sq_max < clip_sq:
                x.clip(-x_clip, x_clip, out=x)
                square(x, x_sq)
                x_sq_max = clip_sq
            f = min(c_e, x_sq_max * e_rate + c_e)
            if floored:
                # fmin skips NaN; at f <= 0 the next step floors whatever
                # the bound
                e_low = float(fmin_reduce(e, None)) if f > 0 else 0.0
        self.e_low, self.f = e_low, f

    def abort_nonfinite(self) -> None:
        """Flag the rows that went non-finite and freeze them at ``x = 0``, ``e = 1``."""
        # cheap whole-batch probe; NaN/inf contaminate the sums if present
        if not np.isfinite(self.x.sum() + self.e.sum()):
            bad = ~(np.isfinite(self.x).all(axis=1) & np.isfinite(self.e).all(axis=1))
            self.aborted |= bad
            self.x[bad] = self.x_sq[bad] = 0.0
            self.e[bad] = 1.0
            # e = 1 may lie below the carried bound
            self.e_low = 0.0


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

    The step's ``(rows, dim) @ (dim, dim)`` products are too small to gain
    from a split: on two threads one whole-batch product ran slower and the
    second thread spun, and running the row blocks on two threads raised
    the CPU time of a dim-33 compare by about a third for 18% less wall
    time.  Under ``--workers`` the threads of each process compete for the
    same cores.  Worker processes are the parallelism.  OpenBLAS splits a
    matmul over rows and columns, never the summed axis, so the thread
    count does not change a result bit.
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


def _integrate(jm, x0, params, record_every=0, observer=None):
    """Integrate a batch of anneals (rows of ``x0``) for ``params.steps`` steps.

    Returns ``(x, aborted)``, where ``x`` is ``x0`` itself: the kernel
    adopts the float array and advances it in place, and ``observer`` sees
    the kernel as :func:`solve` describes.  Rows that go non-finite are
    flagged in ``aborted`` and frozen at zero so the rest of the batch keeps
    integrating; they read out as +1 from the sample at which they are
    flagged.  Every ``|x0|`` must be at most ``params.init_scale``, as
    :func:`solve` draws it.

    The kernel runs one span from each stop to the next, where a stop is a
    finiteness check, an observer call or the final step.  When the
    kernel's ``divergence_sticks`` holds, the check runs only at observer
    steps and the final step, so a sweep or compare solve is one span and a
    default trace solve 100; otherwise the check runs after every step, and
    every span is one step.
    The flag holds when ``c_e > 0`` and the ``e`` factor
    ``fl(fl(fl(X*X) * (-dt*beta)) + c_e)`` is positive at
    ``X = max(x_clip, init_scale)``.  A finite ``|x|`` never exceeds ``X``.
    For ``beta > 0`` the factor falls as ``|x|`` grows, and for ``beta <= 0``
    it is at least ``c_e``; rounding is monotone, so the factor is positive
    for every finite ``x``.  After a step, ``x`` is finite or NaN (the clamp
    maps +-inf to +-x_clip and keeps NaN) and ``e`` is finite, NaN or
    ``+inf`` (``np.maximum`` keeps NaN and lifts ``-inf``, and where the
    kernel skips it every other ``e`` is at least ``E_FLOOR``).  A NaN ``x``
    makes every later ``x`` and ``e`` of its entry NaN, a NaN ``e`` does the
    same, and ``e = +inf`` times a positive factor stays ``+inf``.  So a row
    that goes non-finite stays non-finite until the next check, which flags
    it and zeroes it as the every-step check would have.  Rows never mix
    (``x @ J`` is row by row), so the other rows, the aborted mask and every
    readout are unchanged; an aborted row holds zero amplitudes at every
    readout either way.
    """
    observe = observer if observer is not None else lambda k, run: None
    observe_every = record_every or params.steps
    # overflow is the divergence signal, caught by abort_nonfinite; the
    # numpy warnings would only repeat it, from the start table's x^2 on
    with _one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        run = _EulerStep(jm, x0, params)
        check_every = (record_every or params.steps) if run.divergence_sticks else 1
        if record_every:
            observe(0, run)
        k0 = 0
        for k in (*range(check_every, params.steps, check_every), params.steps):
            run.advance(k0, k)
            run.abort_nonfinite()
            if k % observe_every == 0 and k < params.steps:
                observe(k, run)
            k0 = k
    # the last call sees x, e and aborted alone.  The block views keep
    # coupling alive, so they go first: freeing coupling after factor
    # raised sweep-2x2x2's peak RSS by 0.13 MB
    del run.x_sq, run.blocks, run.coupling, run.factor
    observe(params.steps, run)
    return run.x, run.aborted


def solve(j, params: CimParams, master_seed: int, record_every: int = 0,
          observer: Callable[[int, _EulerStep], object] | None = None) -> np.recarray:
    """Run ``params.n_anneals`` independent anneals; one record per anneal.

    Anneal ``k`` draws its initialisation from the stream
    ``(master_seed, k)``, so record ``k`` is anneal ``k`` and the result is
    a pure function of ``(j, params, master_seed)``.  The batch is
    integrated as one vectorised system.  For a stack of ``n`` couplings
    (an ``IsingBatch`` or a ``(n, dim, dim)`` array) each runs those
    anneals, and records ``c * n_anneals … (c + 1) * n_anneals - 1`` of the
    ``n * n_anneals`` are coupling ``c``'s, bit for bit its own solve's;
    the observer sees the rows of all of them.  Each record holds the final
    readout ``spins`` (``dim`` int8 signs) and ``aborted``, set where the
    anneal diverged instead of dropping it.  Columns such as
    ``solve(...).spins`` are whole-batch arrays.

    ``observer(k, run)``, when given, sees the run at step ``k``: with
    ``record_every > 0`` at step 0, every ``record_every`` steps and the
    last step, once each, else at the last step only.  It reads the
    ``(n_anneals, dim)`` arrays ``run.x`` and ``run.e`` and the
    ``run.aborted`` mask, writes none of them, and takes ``readout(run.x)``
    itself; an aborted anneal reads all +1 from its abort on.  Sampled
    readouts and their steps leave the solver only this way, so
    ``record_every > 0`` without an observer raises ``ValueError``.  Before
    the last call the kernel drops its work buffers, so what the observer
    allocates there does not raise the integrator's peak.
    """
    record_every = integer("record_every", record_every, 0)
    if record_every and observer is None:
        raise ValueError("record_every > 0 needs an observer to take its readouts")
    jm = _coupling_matrix(j)
    n_couplings, dim = (len(jm) if jm.ndim == 3 else 1), jm.shape[-1]
    # the fresh start table becomes the integrator's x; a batch stacks one
    # copy of it per coupling
    x = uniform_table(master_seed, params.n_anneals, -params.init_scale, params.init_scale, dim)
    if n_couplings > 1:
        x = np.tile(x, (n_couplings, 1))
    x, aborted = _integrate(jm, x, params, record_every, observer)
    # allocated once the kernel has dropped its work buffers
    anneals = np.recarray(len(x), dtype=[("spins", np.int8, (dim,)), ("aborted", np.bool_)])
    anneals.aborted, anneals.spins = aborted, readout(x)
    return anneals


def write_trajectory_csv(trajectory, j, params: CimParams, path) -> None:
    """Dump one anneal's recorded readouts: step, t, per-spin sign, energy.

    ``trajectory`` holds ``(k, spins)`` pairs: the anneal's readout at each
    step ``k`` that :func:`solve` hands its ``observer``.
    """
    jm = _coupling_matrix(j)
    dim = jm.shape[1]
    write_csv(path, ["step", "t", *(f"s{i}" for i in range(dim)), "energy"], (
        [k, float(k) * params.dt, *spins.tolist(), ising_energy(jm, spins)]
        for k, spins in trajectory
    ))
