"""Monte-Carlo benchmark harness.

Reproduces the evaluation protocol end to end: draw channel instances,
compile each into an Ising instance per penalty weight, run the solver's
anneals (several weights of an instance to one solve), decode, apply the
random-selection fallback, and aggregate the two headline metrics

* ``E_rho`` - expected objective value per method, and
* ``P_c``  - probability that a raw solver readout is feasible,

over ``(penalty weight, step)`` samples.  One path serves both paper
figures: a penalty-weight sweep samples each weight once, at the final
readout, and a time trace samples its one weight at every recorded readout;
the same rows, summaries, result type and writers come out of either.
Each readout is decoded and scored as the solver takes it, in every row
at the first readout and after it only in the rows whose signs flipped.
A trace keeps a log of those rows' scores and feasibility bits, keyed by
step, not the readouts.  Once the solve has ended, one walk over the
steps applies that log to one score vector in place, reduces the
vector at each step that changed, and builds the weight's result from
it.  Metric rows are built from the per-instance records as they are
written.

Scoring rules
-------------
Per anneal, the solver's output is its decoded assignment when feasible;
when infeasible the *instance-level* fallback assignment (a single seeded
random selection per instance) stands in.  ``cim_best`` is the maximum and
``cim_avg`` the mean of those per-anneal scores, which keeps
``cim_best >= cim_avg`` an identity and makes the solver collapse exactly
onto random selection when nothing is feasible.  ``cim_avg_raw`` averages
feasible decodes only (NaN when there are none).

Determinism
-----------
Channel seeds, solver streams, fallback draws and the random baseline are
all derived from ``(master_seed, instance_id)``, and every objective a row
reports is computed by one shared scoring routine, so the full metric table
is a pure function of the plan: worker counts and scheduling cannot change
a byte of the output.  Channel instances are shared across penalty weights
and methods, and the random-selection baseline scores the same draw the
solver falls back on (common random numbers throughout).  That cuts
variance, and makes ``cim_best >= rs`` an identity on every instance where
some anneal falls back (``P_c < 1``).  Elsewhere it need not hold: when
every anneal decodes feasible, the best decode can score below the random
draw.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ._checks import integer, real
from ._files import write_csv, write_json
from .baselines import (ES_BUDGET_DEFAULT, BaselineResult, exhaustive_search, nsa,
                        random_selection, search_space_size)
from .channel import ChannelMatrix, ConfigAssignment, MimoConfig, generate_channel, score_states
from .cim import CimParams, couplings_per_solve, readout, solve
from .formulation import IsingBatch, compile_instance, coupling_parts, decode_states
from .rng import derive_seed, substream

__all__ = [
    "DominanceError",
    "ExperimentPlan",
    "MetricRow",
    "MethodSummary",
    "CimInstanceResult",
    "InstanceRecord",
    "HarnessResult",
    "CSV_COLUMNS",
    "run_instance",
    "sweep_lambda",
    "time_trace",
    "summarize_comparison",
    "instance_channel_seed",
    "cim_master_seed",
    "write_metric_rows",
    "write_summary_json",
    "write_trace_summary_json",
]

# stream-derivation domains under the master seed
_D_CHANNEL, _D_INSTANCE = 0, 1
# domains under the per-instance seed
_D_CIM, _D_FALLBACK = 0, 1

CSV_COLUMNS = ("instance_id", "method", "lambda", "step", "objective", "feasible", "fallback", "seed")


class DominanceError(RuntimeError):
    """A guaranteed ordering between methods failed; always a bug."""


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything a benchmark run depends on.

    The plan is the schema of outside input: the command line hands it the
    values it was given, unconverted, and the plan checks them.
    """

    config: MimoConfig
    lambdas: tuple[float, ...] = (0.5,)
    cim: CimParams = CimParams()
    n_instances: int = 1000
    master_seed: int = 0
    trace_stride: int = 10
    es_budget: int = ES_BUDGET_DEFAULT

    def __post_init__(self):
        minimum = {"n_instances": 1, "master_seed": 0, "trace_stride": 1, "es_budget": 0}
        for name, low in minimum.items():
            object.__setattr__(self, name, integer(name, getattr(self, name), low))
        if not isinstance(self.lambdas, (list, tuple)):
            raise ValueError(f"lambdas must be a list or tuple, got {self.lambdas!r}")
        lambdas = tuple(real(f"lambdas[{i}]", v) for i, v in enumerate(self.lambdas))
        object.__setattr__(self, "lambdas", lambdas)
        if not self.lambdas:
            raise ValueError("lambdas must be non-empty")
        if any(not 0.0 <= v <= 1.0 for v in self.lambdas):
            raise ValueError(f"penalty weights must lie in [0, 1], got lambdas {self.lambdas}")
        if len(set(self.lambdas)) < len(self.lambdas):
            raise ValueError(f"penalty weights must be distinct, got lambdas {self.lambdas}")


@dataclass
class MetricRow:
    """One benchmark observation; maps 1:1 onto a results-CSV line."""

    instance_id: int
    method: str
    lam: float
    step: int
    objective: float
    feasible: bool
    fallback: bool
    seed: int


@dataclass
class MethodSummary:
    """``E_rho`` of one method at one (penalty weight, step) sample, over
    instances; ``p_c`` is the solver's for the ``cim`` methods, else 1."""

    method: str
    lam: float
    step: int
    e_rho: float
    p_c: float
    stderr: float
    n: int


@dataclass
class CimInstanceResult:
    """Solver-side record for one (instance, penalty weight) pair."""

    best: float
    best_assignment: ConfigAssignment
    avg: float
    avg_raw: float
    p_c: float
    n_feasible: int
    n_anneals: int
    n_aborted: int
    trace_steps: Optional[np.ndarray] = None
    trace_best: Optional[np.ndarray] = None
    trace_avg: Optional[np.ndarray] = None
    trace_pc: Optional[np.ndarray] = None


@dataclass
class InstanceRecord:
    """Everything measured on one channel instance."""

    instance_id: int
    channel_seed: int
    es_objective: Optional[float]
    nsa_objective: float
    rs_objective: float
    cim: dict[float, CimInstanceResult] = field(default_factory=dict)
    wall_clock: float = 0.0


@dataclass
class HarnessResult:
    """A sweep or trace: its summaries, the per-instance records they
    reduce, and one line per failed instance."""

    plan: ExperimentPlan
    summaries: list[MethodSummary]
    records: list[InstanceRecord]
    failures: list[str]

    def rows(self) -> Iterator[MetricRow]:
        """Yield the metric rows, built afresh from the records each call."""
        for record, lam, step, _, methods in _samples(self.plan, self.records):
            for method, objective, feasible, fallback in methods:
                yield MetricRow(record.instance_id, method, lam, step, objective, feasible,
                                fallback, record.channel_seed)


class _ReadoutScorer:
    """A solve's observer: decode and score each readout as it is taken.

    ``steps`` records each step ``k`` the solver hands it.  The scorer
    reads the rows ``anneals`` of ``run.x``, one weight's share of a batch.
    Each readout writes their signs ``>= 0`` into one of two ``(n_anneals, dim)``
    bool buffers and compares them in place with the other, which holds the
    readout before; a readout with no flipped sign costs that one
    comparison.  Every row of the first readout (``rows`` is a slice) and
    the flipped rows of each later one are read out, decoded and scored, and
    ``changes`` logs them as ``(k, rows, scores, ok)``; the decoded states
    are dropped.  Nothing per (anneal, sample) is kept.  Once the solve has
    ended, :meth:`result` builds the weight's result from the log.
    """

    def __init__(self, g: ChannelMatrix, anneals: slice = slice(None)):
        self.g, self.anneals = g, anneals
        self.steps = []
        self.changes = []
        # the latest readout's signs, and the buffer the next one's go to
        self.signs = self.spare = None

    def __call__(self, k: int, run) -> None:
        g, x = self.g, run.x[self.anneals]
        self.steps.append(k)
        if self.signs is None:
            self.signs = np.greater_equal(x, 0)
            self.spare = np.empty_like(self.signs)
            rows = slice(None)
        else:
            before, signs = self.signs, self.spare
            np.greater_equal(x, 0, out=signs)
            flips = np.not_equal(before, signs, out=before)
            self.signs, self.spare = signs, flips
            if not flips.any():
                return
            rows = np.flatnonzero(flips.any(axis=1))
        ok, states = decode_states(readout(x[rows]), g.config)
        self.changes.append((k, rows, score_states(g, states), ok))

    def result(self, anneals: np.recarray, fallback: BaselineResult) -> CimInstanceResult:
        """The weight's result from its records ``anneals`` of the solve,
        with per-step trace arrays when more than the final readout was
        handed to the scorer.

        One walk over the recorded steps writes each log entry, after the
        fallback, in place into the first entry's vectors, which cover every
        row: an aborted anneal is infeasible at every step, and an
        infeasible readout scores ``fallback.objective``.  Only the logged
        steps are reduced, to the best score, the mean score (clamped to the
        best) and the feasible share; every other step carries the figures
        of the one before.  The mean adds the anneals in turn, bit for bit
        as numpy reduces one ``(n_anneals, n_samples)`` score matrix over
        its rows.  The final-readout fields come from the vectors the walk
        ends with, and the best anneal's assignment from its final readout
        in ``anneals.spins``, the signs last decoded here.
        """
        n_anneals, live = len(anneals), ~anneals.aborted
        _, _, final, feasible = self.changes[0]
        log = {k: change for k, *change in self.changes}
        figures = np.empty((3, len(self.steps)))
        for sample, k in enumerate(self.steps):
            if k in log:
                rows, raw, ok = log[k]
                feasible[rows] = ok & live[rows]
                final[rows] = np.where(feasible[rows], raw, fallback.objective)
                figures[:, sample] = (final.max(), np.add.accumulate(final)[-1] / n_anneals,
                                      np.count_nonzero(feasible) / n_anneals)
            else:
                figures[:, sample] = figures[:, sample - 1]
        config, k_best = self.g.config, int(np.argmax(final))
        best_assignment = fallback.assignment
        if feasible[k_best]:
            _, (states,) = decode_states(anneals.spins[k_best:k_best + 1], config)
            best_assignment = ConfigAssignment(tx=tuple(states[:config.n_t]),
                                               rx=tuple(states[config.n_t:]))
        n_feasible = int(feasible.sum())
        # mean <= max is a mathematical identity of the per-anneal scores, but
        # summation rounding can land the mean one ulp above it; clamp it back
        result = CimInstanceResult(
            best=float(final[k_best]),
            best_assignment=best_assignment,
            avg=min(float(final.mean()), float(final[k_best])),
            avg_raw=float(final[feasible].mean()) if n_feasible else float("nan"),
            p_c=float(feasible.mean()),
            n_feasible=n_feasible,
            n_anneals=n_anneals,
            n_aborted=int(anneals.aborted.sum()),
        )
        # a trace hands step 0 and the last step, a sweep the last step only
        if len(self.steps) > 1:
            best, avg, pc = figures
            result.trace_steps = np.array(self.steps, dtype=np.int64)
            result.trace_best, result.trace_avg, result.trace_pc = best, np.minimum(avg, best), pc
        return result


@dataclass(frozen=True)
class _InstanceContext:
    """What every penalty weight of one channel instance shares, built from
    the channel and its per-instance control seed: the objective and
    penalty couplings (each weight only blends them), the solver's stream
    root, and the fallback draw, which the random baseline scores too."""

    g: ChannelMatrix
    parts: tuple[np.ndarray, np.ndarray]
    master_seed: int
    fallback: BaselineResult

    @classmethod
    def build(cls, g: ChannelMatrix, seed: int) -> _InstanceContext:
        return cls(g, coupling_parts(g), cim_master_seed(seed),
                   random_selection(g, substream(seed, _D_FALLBACK)))

    def results(self, lams: Sequence[float], cim_params: CimParams,
                record_every: int) -> list[CimInstanceResult]:
        """The instance's result at each weight of ``lams``, in order.

        Consecutive weights share one solve, ``couplings_per_solve`` at a
        time, each in its own rows and scored by its own
        :class:`_ReadoutScorer`, and each gets the bits of its own solve.
        """
        size = couplings_per_solve(cim_params.n_anneals, self.g.config.d + 1)
        results = []
        for i in range(0, len(lams), size):
            results += self.solve_batch(lams[i:i + size], cim_params, record_every)
        return results

    def solve_batch(self, lams: Sequence[float], cim_params: CimParams,
                    record_every: int) -> list[CimInstanceResult]:
        """The results at ``lams`` from one solve of their stacked couplings."""
        n = cim_params.n_anneals
        batch = IsingBatch(np.stack([compile_instance(self.g, lam, self.parts).j for lam in lams]),
                           self.g.config)
        scorers = [_ReadoutScorer(self.g, slice(i * n, (i + 1) * n)) for i in range(len(lams))]

        def observer(k, run):
            for scorer in scorers:
                scorer(k, run)

        anneals = solve(batch, cim_params, self.master_seed, record_every, observer=observer)
        return [scorer.result(anneals[scorer.anneals], self.fallback) for scorer in scorers]


def run_instance(g: ChannelMatrix, lam: float, cim_params: CimParams, seed: int,
                 record_every: int = 0) -> CimInstanceResult:
    """Compile, solve and score one channel instance at one penalty weight.

    ``seed`` is the per-instance control seed: the solver's anneal streams
    and the fallback draw are derived from it, so results are independent
    of scheduling and of the other penalty weights being swept.  It runs
    the harness's one solve path on a group of one weight; a sweep groups
    several and gets these bits at each.

    :class:`_ReadoutScorer`, the solve's observer, scores each readout as it
    is taken, at the step the solver hands it: the final readout alone, or
    every recorded step, whose last is that same readout.  No readout table
    and no ``(n_anneals, n_samples)`` array is kept.  After the solve the
    scorer builds the result, bit for bit as from one score matrix.
    """
    (result,) = _InstanceContext.build(g, seed).solve_batch((lam,), cim_params, record_every)
    return result


def _instance_record(plan: ExperimentPlan, instance_id: int, record_every: int) -> InstanceRecord:
    tic = time.perf_counter()
    channel_seed = instance_channel_seed(plan.master_seed, instance_id)
    g = generate_channel(plan.config, channel_seed)
    context = _InstanceContext.build(g, derive_seed(plan.master_seed, _D_INSTANCE, instance_id))
    es = None
    if search_space_size(plan.config) <= plan.es_budget:
        es = exhaustive_search(g, plan.es_budget)
    # the random baseline scores the fallback draw: the solver's fallback
    # and the RS method then score the same draw (common random numbers), so
    # cim_best >= rs holds on every instance where some anneal falls back
    record = InstanceRecord(
        instance_id=instance_id,
        channel_seed=channel_seed,
        es_objective=es.objective if es else None,
        nsa_objective=nsa(g).objective,
        rs_objective=context.fallback.objective,
    )
    results = context.results(plan.lambdas, plan.cim, record_every)
    record.cim = dict(zip(plan.lambdas, results))
    record.wall_clock = time.perf_counter() - tic
    return record


def _record_task(args):
    """Worker entry point.  The errors one bad instance can raise (bad
    values, arithmetic faults) are returned, so that instance cannot abort a
    sweep; any other exception is a bug and propagates."""
    plan, instance_id, record_every = args
    try:
        return _instance_record(plan, instance_id, record_every), None
    except (ValueError, ArithmeticError) as exc:
        return None, f"instance {instance_id} failed: {exc!r}"


def _harness(plan: ExperimentPlan, record_every: int, workers: int) -> HarnessResult:
    """Per-instance records at every weight of the plan, optionally in
    parallel, in instance order (``map`` keeps the task order), and their
    summaries; ``record_every`` 0 samples the final readout only.  A pool
    starts all its processes, so it holds no more than there are instances,
    and one instance runs in this process."""
    tasks = [(plan, k, record_every) for k in range(plan.n_instances)]
    workers = min(workers, plan.n_instances)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_record_task, tasks))
    else:
        results = [_record_task(task) for task in tasks]
    records = [rec for rec, err in results if err is None]
    failures = [err for _, err in results if err is not None]
    return HarnessResult(plan, _summarize(plan, records), records, failures)


def _samples(plan: ExperimentPlan, records: Sequence[InstanceRecord]):
    """Yield ``(record, weight, step, P_c, methods)`` per (instance, weight,
    step) sample, in row order; ``methods`` lists the sample's rows as
    ``(method, objective, feasible, fallback)``.

    A result without trace arrays (a sweep's) is sampled at its final
    readout and adds the baseline rows and ``cim_avg_raw``; a trace's at
    every readout it recorded.  The rows are a pure function of the plan.
    """
    for record in records:
        for lam in plan.lambdas:
            res = record.cim[lam]
            sweep = res.trace_steps is None
            if sweep:
                samples = [(plan.cim.steps, res.best, res.avg, res.p_c)]
            else:
                samples = zip(*(a.tolist() for a in (
                    res.trace_steps, res.trace_best, res.trace_avg, res.trace_pc)))
            for step, best, avg, pc in samples:
                # (method, objective, feasible, fallback) of each row:
                # best-of-anneals falls back only when no anneal is
                # feasible, the average when any is not
                methods = [("cim_best", best, True, pc == 0.0), ("cim_avg", avg, True, pc < 1.0)]
                if sweep:
                    baselines = (("es", record.es_objective), ("nsa", record.nsa_objective),
                                 ("rs", record.rs_objective))
                    methods[:0] = [(m, v, True, False) for m, v in baselines if v is not None]
                    methods.append(("cim_avg_raw", res.avg_raw, res.n_feasible > 0, False))
                yield record, lam, step, pc, methods


def _summarize(plan: ExperimentPlan, records: Sequence[InstanceRecord]) -> list[MethodSummary]:
    """One summary per (weight, step, method) group of rows, in row order.

    NaN objectives (``cim_avg_raw`` where no anneal is feasible) are left
    out, and a group with none left is skipped.  ``p_c`` is the mean of the
    per-instance ``P_c`` at the group's (weight, step).
    """
    groups: dict[tuple[float, int, str], list[float]] = {}
    p_c: dict[tuple[float, int], list[float]] = {}
    for _, lam, step, pc, methods in _samples(plan, records):
        for method, objective, _, _ in methods:
            groups.setdefault((lam, step, method), []).append(objective)
        p_c.setdefault((lam, step), []).append(pc)
    summaries = []
    for (lam, step, method), values in groups.items():
        vals = np.array(values)
        vals = vals[~np.isnan(vals)]
        n = len(vals)
        if n == 0:
            continue
        summaries.append(
            MethodSummary(
                method=method,
                lam=lam,
                step=step,
                e_rho=float(vals.mean()),
                p_c=float(np.mean(p_c[lam, step])) if method.startswith("cim") else 1.0,
                stderr=float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
                n=n,
            )
        )
    return summaries


def sweep_lambda(plan: ExperimentPlan, workers: int = 1) -> HarnessResult:
    """Final-readout metrics for every (method, penalty weight) pair.

    Channel instances are shared across penalty weights and methods; rows
    are ordered by (instance, weight, method).
    """
    return _harness(plan, 0, workers)


def time_trace(plan: ExperimentPlan, workers: int = 1) -> HarnessResult:
    """``cim_best``/``cim_avg`` metrics from sign readouts along the
    integration.

    The plan's one penalty weight is traced; a plan with more raises
    ``ValueError``.  Readouts are sampled at step 0, every
    ``plan.trace_stride`` steps and the final step; per-step scores use the
    same post-fallback rule as the final readout, and ``P_c`` is the
    fraction of feasible readouts over all (instance, anneal) pairs at that
    step.
    """
    if len(plan.lambdas) != 1:
        raise ValueError(f"a trace runs one penalty weight, the plan holds {plan.lambdas}")
    return _harness(plan, plan.trace_stride, workers)


def summarize_comparison(sweep: HarnessResult) -> list[MethodSummary]:
    """Check the guaranteed orderings of a sweep and return its summaries.

    The exhaustive optimum must dominate every method on every instance,
    best-of-anneals must dominate the anneal average, and where some anneal
    falls back (``P_c < 1``) it must dominate the random baseline, whose
    draw that anneal scores.  All are identities of the construction, so
    violations are bugs and raise :class:`DominanceError` immediately.
    """
    for record in sweep.records:
        for lam, res in record.cim.items():
            if not res.best >= res.avg:
                raise DominanceError(
                    f"instance {record.instance_id}: best {res.best} below average {res.avg}"
                )
            if res.p_c < 1.0 and not res.best >= record.rs_objective:
                raise DominanceError(
                    f"instance {record.instance_id}, lambda {lam}: best {res.best} below "
                    f"random baseline {record.rs_objective} although some anneal falls back"
                )
            if record.es_objective is not None:
                for value in (record.nsa_objective, record.rs_objective, res.best, res.avg):
                    if not record.es_objective >= value:
                        raise DominanceError(
                            f"instance {record.instance_id}: exhaustive optimum "
                            f"{record.es_objective} below method value {value}"
                        )
    return sweep.summaries


def instance_channel_seed(master_seed: int, instance_id: int) -> int:
    """Channel seed-of-record for instance ``instance_id`` of a run.

    Shared by the benchmark harness and the file generator so that files
    written for a master seed reproduce the instances a sweep would use.
    """
    return derive_seed(master_seed, _D_CHANNEL, instance_id)


def cim_master_seed(instance_seed: int) -> int:
    """Solver stream root of an instance seed.

    It does not depend on the penalty weight: every weight of an instance
    anneals from the start table drawn under it, which is what lets the
    harness run several weights as one batch of one solve.
    """
    return derive_seed(instance_seed, _D_CIM)


def write_metric_rows(rows: Iterable[MetricRow], path) -> None:
    """Write the results CSV, one line per row as the rows are read.

    First line is a ``# format: 1`` version comment, then the fixed header
    ``instance_id,method,lambda,step,objective,feasible,fallback,seed``.
    """
    write_csv(path, CSV_COLUMNS, (
        (r.instance_id, r.method, float(r.lam), r.step, float(r.objective), bool(r.feasible),
         bool(r.fallback), r.seed)
        for r in rows
    ), version=1)


def _none_if_nan(v: float):
    return None if isinstance(v, float) and math.isnan(v) else v


def write_summary_json(summaries: Sequence[MethodSummary], path) -> None:
    """Write a sweep's per-(method, weight) summaries."""
    write_json(path, {"format": 1, "rows": [
        {
            "method": s.method,
            "lambda": s.lam,
            "e_rho": _none_if_nan(s.e_rho),
            "p_c": _none_if_nan(s.p_c),
            "stderr": _none_if_nan(s.stderr),
            "n": s.n,
        }
        for s in summaries
    ]})


def write_trace_summary_json(trace: HarnessResult, path) -> None:
    """Write a trace's per-step ``cim_best``/``cim_avg`` means and ``P_c``."""
    avg = {s.step: s.e_rho for s in trace.summaries if s.method == "cim_avg"}
    write_json(path, {"format": 1, "lambda": trace.plan.lambdas[0], "rows": [
        {
            "step": s.step,
            "e_rho_best": _none_if_nan(s.e_rho),
            "e_rho_avg": _none_if_nan(avg[s.step]),
            "p_c": _none_if_nan(s.p_c),
        }
        for s in trace.summaries
        if s.method == "cim_best"
    ]})
