"""Monte-Carlo benchmark harness.

Reproduces the evaluation protocol end to end: draw channel instances,
compile each into an Ising instance per penalty weight, run the solver's
anneals, decode, apply the random-selection fallback, and aggregate the two
headline metrics

* ``E_rho`` - expected objective value per method, and
* ``P_c``  - probability that a raw solver readout is feasible,

either at the final step (penalty-weight sweeps) or at sampled steps along
the integration (time traces).

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

import json
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .baselines import ES_BUDGET_DEFAULT, exhaustive_search, nsa, random_selection, search_space_size
from .channel import ChannelMatrix, ConfigAssignment, MimoConfig, generate_channel, score_states
from .cim import CimParams, readout_steps, solve
from .formulation import compile_instance, decode_states
from .rng import derive_seed, substream

__all__ = [
    "DominanceError",
    "ExperimentPlan",
    "MetricRow",
    "MethodSummary",
    "TraceStepSummary",
    "CimInstanceResult",
    "InstanceRecord",
    "SweepResult",
    "TraceResult",
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

METHOD_ORDER = ("es", "nsa", "rs", "cim_best", "cim_avg", "cim_avg_raw")

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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in self.lambdas):
            raise ValueError(f"penalty weights must be numbers, got {self.lambdas!r}")
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        if not self.lambdas:
            raise ValueError("lambdas must be non-empty")
        if any(not 0.0 <= v <= 1.0 for v in self.lambdas):
            raise ValueError(f"penalty weights must lie in [0, 1], got {self.lambdas}")
        if len(set(self.lambdas)) < len(self.lambdas):
            raise ValueError(f"penalty weights must be distinct, got {self.lambdas}")


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
    method: str
    lam: float
    e_rho: float
    p_c: float
    stderr: float
    n: int


@dataclass
class TraceStepSummary:
    step: int
    e_rho_best: float
    e_rho_avg: float
    p_c: float


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
class SweepResult:
    rows: list[MetricRow]
    summaries: list[MethodSummary]
    records: list[InstanceRecord]
    failures: list[str]


@dataclass
class TraceResult:
    lam: float
    rows: list[MetricRow]
    step_summaries: list[TraceStepSummary]
    records: list[InstanceRecord]
    failures: list[str]


def run_instance(
    g: ChannelMatrix,
    lam: float,
    cim_params: CimParams,
    seed: int,
    record_every: int = 0,
) -> CimInstanceResult:
    """Compile, solve and score one channel instance at one penalty weight.

    ``seed`` is the per-instance control seed: the solver's anneal streams
    and the fallback draw are derived from it, so results are independent
    of scheduling and of the other penalty weights being swept.

    Scoring works on one ``(n_anneals, n_samples)`` readout table: the final
    readout alone, or the recorded trajectory, whose last sample is that same
    readout.  Trace arrays reduce the table over anneals; the final-readout
    fields come from its last column, so they do not depend on
    ``record_every``.  Only readouts that differ from their anneal's previous
    sample are decoded and scored; the others reuse that result.
    """
    config = g.config
    inst = compile_instance(g, lam)
    anneals = solve(inst, cim_params, cim_master_seed(seed), record_every=record_every)
    aborted = anneals.aborted
    table = anneals.trajectory if record_every else anneals.spins[:, None, :]
    n_anneals, n_samples = table.shape[:2]
    fallback = random_selection(g, substream(seed, _D_FALLBACK))
    # a sample equal to its anneal's previous one decodes and scores the
    # same, so decode each changed readout once; ``first`` maps every sample
    # to the row of its changed readout in the anneal-major table
    changed = np.ones((n_anneals, n_samples), dtype=bool)
    changed[:, 1:] = (table[:, 1:] != table[:, :-1]).any(axis=2)
    first = (np.cumsum(changed) - 1).reshape(n_anneals, n_samples)
    feasible, states = decode_states(table[changed], config)
    feasible = feasible[first] & ~aborted[:, None]
    scores = np.where(feasible, score_states(g, states)[first], fallback.objective)

    final, final_feasible = scores[:, -1], feasible[:, -1]
    k_best = int(np.argmax(final))
    if final_feasible[k_best]:
        best_states = states[first[k_best, -1]]
        best_assignment = ConfigAssignment(
            tx=tuple(best_states[: config.n_t]), rx=tuple(best_states[config.n_t :])
        )
    else:
        best_assignment = fallback.assignment
    n_feasible = int(final_feasible.sum())

    # mean <= max is a mathematical identity of the per-anneal scores, but
    # summation rounding can land the mean one ulp above it; clamp it back
    result = CimInstanceResult(
        best=float(final[k_best]),
        best_assignment=best_assignment,
        avg=min(float(final.mean()), float(final[k_best])),
        avg_raw=float(final[final_feasible].mean()) if n_feasible else float("nan"),
        p_c=float(final_feasible.mean()),
        n_feasible=n_feasible,
        n_anneals=n_anneals,
        n_aborted=int(aborted.sum()),
    )
    if record_every:
        result.trace_steps = readout_steps(cim_params.steps, record_every)
        result.trace_best = scores.max(axis=0)
        result.trace_avg = np.minimum(scores.mean(axis=0), result.trace_best)
        result.trace_pc = feasible.mean(axis=0)
    return result


def _instance_record(plan: ExperimentPlan, instance_id: int, record_every: int) -> InstanceRecord:
    tic = time.perf_counter()
    channel_seed = instance_channel_seed(plan.master_seed, instance_id)
    g = generate_channel(plan.config, channel_seed)
    inst_seed = derive_seed(plan.master_seed, _D_INSTANCE, instance_id)
    es = None
    if search_space_size(plan.config) <= plan.es_budget:
        es = exhaustive_search(g, plan.es_budget)
    # the random baseline reuses the fallback stream: the solver's fallback
    # and the RS method then score the same draw (common random numbers), so
    # cim_best >= rs holds on every instance where some anneal falls back
    record = InstanceRecord(
        instance_id=instance_id,
        channel_seed=channel_seed,
        es_objective=es.objective if es else None,
        nsa_objective=nsa(g).objective,
        rs_objective=random_selection(g, substream(inst_seed, _D_FALLBACK)).objective,
    )
    for lam in plan.lambdas:
        record.cim[lam] = run_instance(g, lam, plan.cim, inst_seed, record_every=record_every)
    record.wall_clock = time.perf_counter() - tic
    return record


def _record_task(args):
    """Worker entry point.  The errors one bad instance can raise (bad
    values, arithmetic faults) are returned, so that instance cannot abort a
    sweep; any other exception is a bug and propagates."""
    plan, instance_id, record_every = args
    try:
        return instance_id, _instance_record(plan, instance_id, record_every), None
    except (ValueError, ArithmeticError) as exc:
        return instance_id, None, f"instance {instance_id} failed: {exc!r}"


def _run_records(
    plan: ExperimentPlan, record_every: int, workers: int
) -> tuple[list[InstanceRecord], list[str]]:
    """Compute per-instance records at every weight of the plan, optionally
    in parallel, merged by id."""
    tasks = [(plan, k, record_every) for k in range(plan.n_instances)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_record_task, tasks))
    else:
        results = [_record_task(task) for task in tasks]
    results.sort(key=lambda item: item[0])
    records = [rec for _, rec, err in results if err is None]
    failures = [err for _, _, err in results if err is not None]
    return records, failures


def _baseline_rows(record: InstanceRecord, common: dict) -> list[MetricRow]:
    common = dict(common, feasible=True, fallback=False)
    rows = []
    if record.es_objective is not None:
        rows.append(MetricRow(method="es", objective=record.es_objective, **common))
    rows.append(MetricRow(method="nsa", objective=record.nsa_objective, **common))
    rows.append(MetricRow(method="rs", objective=record.rs_objective, **common))
    return rows


def _cim_rows(common: dict, best: float, avg: float, p_c: float) -> list[MetricRow]:
    """The ``cim_best``/``cim_avg`` rows of one readout: best-of-anneals
    falls back only when no anneal is feasible, the average when any is not."""
    return [
        MetricRow(method="cim_best", objective=best, feasible=True, fallback=p_c == 0.0, **common),
        MetricRow(method="cim_avg", objective=avg, feasible=True, fallback=p_c < 1.0, **common),
    ]


def sweep_lambda(plan: ExperimentPlan, workers: int = 1) -> SweepResult:
    """Final-readout metrics for every (method, penalty weight) pair.

    Channel instances are shared across penalty weights and methods; rows
    are ordered by (instance, weight, method) and are a pure function of
    the plan.
    """
    records, failures = _run_records(plan, 0, workers)
    rows: list[MetricRow] = []
    for record in records:
        for lam in plan.lambdas:
            res = record.cim[lam]
            common = dict(
                instance_id=record.instance_id, lam=lam, step=plan.cim.steps,
                seed=record.channel_seed,
            )
            rows.extend(_baseline_rows(record, common))
            rows.extend(_cim_rows(common, res.best, res.avg, res.p_c))
            rows.append(
                MetricRow(
                    method="cim_avg_raw", objective=res.avg_raw,
                    feasible=res.n_feasible > 0, fallback=False, **common,
                )
            )
    summaries = _summarize(records, plan.lambdas)
    return SweepResult(rows=rows, summaries=summaries, records=records, failures=failures)


def _summarize(records: list[InstanceRecord], lambdas: Sequence[float]) -> list[MethodSummary]:
    summaries = []
    for lam in lambdas:
        per_method = {
            "es": np.array([r.es_objective for r in records if r.es_objective is not None]),
            "nsa": np.array([r.nsa_objective for r in records]),
            "rs": np.array([r.rs_objective for r in records]),
            "cim_best": np.array([r.cim[lam].best for r in records]),
            "cim_avg": np.array([r.cim[lam].avg for r in records]),
            "cim_avg_raw": np.array([r.cim[lam].avg_raw for r in records]),
        }
        pc = float(np.mean([r.cim[lam].p_c for r in records])) if records else float("nan")
        for method in METHOD_ORDER:
            vals = per_method[method]
            vals = vals[~np.isnan(vals)] if len(vals) else vals
            n = len(vals)
            if n == 0:
                continue
            e_rho = float(vals.mean())
            stderr = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
            summaries.append(
                MethodSummary(
                    method=method,
                    lam=lam,
                    e_rho=e_rho,
                    p_c=pc if method.startswith("cim") else 1.0,
                    stderr=stderr,
                    n=n,
                )
            )
    return summaries


def time_trace(plan: ExperimentPlan, workers: int = 1) -> TraceResult:
    """Metrics from instantaneous sign readouts along the integration.

    The plan's one penalty weight is traced; a plan with more raises
    ``ValueError``.  Readouts are sampled at step 0, every
    ``plan.trace_stride`` steps and the final step; per-step scores use the
    same post-fallback rule as the final readout, and ``P_c`` is the
    fraction of feasible readouts over all (instance, anneal) pairs at that
    step.
    """
    if len(plan.lambdas) != 1:
        raise ValueError(f"a trace runs one penalty weight, the plan holds {plan.lambdas}")
    (lam,) = plan.lambdas
    records, failures = _run_records(plan, plan.trace_stride, workers)
    rows: list[MetricRow] = []
    for record in records:
        res = record.cim[lam]
        samples = zip(res.trace_steps, res.trace_best, res.trace_avg, res.trace_pc)
        for step, best, avg, p_c in samples:
            common = dict(
                instance_id=record.instance_id, lam=lam, step=int(step), seed=record.channel_seed
            )
            rows.extend(_cim_rows(common, float(best), float(avg), p_c))
    steps = records[0].cim[lam].trace_steps if records else np.array([], dtype=int)
    step_summaries = []
    for i, step in enumerate(steps):
        step_summaries.append(
            TraceStepSummary(
                step=int(step),
                e_rho_best=float(np.mean([r.cim[lam].trace_best[i] for r in records])),
                e_rho_avg=float(np.mean([r.cim[lam].trace_avg[i] for r in records])),
                p_c=float(np.mean([r.cim[lam].trace_pc[i] for r in records])),
            )
        )
    return TraceResult(
        lam=lam, rows=rows, step_summaries=step_summaries, records=records, failures=failures
    )


def summarize_comparison(sweep: SweepResult) -> list[MethodSummary]:
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
    """Solver stream root used by :func:`run_instance` for a given instance seed."""
    return derive_seed(instance_seed, _D_CIM)


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _fmt_bool(v: bool) -> str:
    return "true" if v else "false"


def write_metric_rows(rows: Sequence[MetricRow], path) -> None:
    """Write the results CSV.

    First line is a ``# format: 1`` version comment, then the fixed header
    ``instance_id,method,lambda,step,objective,feasible,fallback,seed``.
    Floats use shortest round-trip formatting so output is byte-stable.
    """
    with open(path, "w") as fh:
        fh.write("# format: 1\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in rows:
            fh.write(
                ",".join(
                    (
                        str(r.instance_id),
                        r.method,
                        _fmt_float(r.lam),
                        str(r.step),
                        _fmt_float(r.objective),
                        _fmt_bool(r.feasible),
                        _fmt_bool(r.fallback),
                        str(r.seed),
                    )
                )
                + "\n"
            )


def _none_if_nan(v: float):
    return None if isinstance(v, float) and math.isnan(v) else v


def write_summary_json(summaries: Sequence[MethodSummary], path) -> None:
    payload = {
        "format": 1,
        "rows": [
            {
                "method": s.method,
                "lambda": s.lam,
                "e_rho": _none_if_nan(s.e_rho),
                "p_c": _none_if_nan(s.p_c),
                "stderr": _none_if_nan(s.stderr),
                "n": s.n,
            }
            for s in summaries
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def write_trace_summary_json(trace: TraceResult, path) -> None:
    payload = {
        "format": 1,
        "lambda": trace.lam,
        "rows": [
            {
                "step": s.step,
                "e_rho_best": _none_if_nan(s.e_rho_best),
                "e_rho_avg": _none_if_nan(s.e_rho_avg),
                "p_c": _none_if_nan(s.p_c),
            }
            for s in trace.step_summaries
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
