"""One harness path: a sweep is the final sample of a trace, and the
benchmark's hooks on the harness stay on the call path.

The sweep and the trace share one row builder and one summarizer, so the
sweep's final-readout figures and the trace's last sample must agree.  The
benchmark under ``perfbench/`` wraps functions by their module attribute
(``perfbench/tracing.py``'s ``LAYERS``) and captures the harness results
through ``bench.sweep_lambda`` and ``bench.time_trace`` (``perfbench/child.py``);
a rename or a call that bypasses the attribute would make every benchmark
command fail, so both are checked here.
"""

import ast
import math
from collections import defaultdict
from pathlib import Path

import pytest

from cimsel import bench, cim, cli
from cimsel.bench import ExperimentPlan, sweep_lambda, time_trace
from cimsel.channel import MimoConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

PLAN = ExperimentPlan(
    config=MimoConfig(2, 2, 2),
    lambdas=(0.45,),
    cim=cim.CimParams(steps=300, n_anneals=60),
    n_instances=8,
    master_seed=5,
    trace_stride=10,
)


@pytest.fixture(scope="module")
def sweep_and_trace():
    return sweep_lambda(PLAN), time_trace(PLAN)


def test_plan_covers_every_fallback_case(sweep_and_trace):
    # the rows' fallback flags are compared below: some instance has no
    # feasible anneal, some has a few and some has all
    sweep, _ = sweep_and_trace
    p_c = [res.p_c for r in sweep.records for res in r.cim.values()]
    assert min(p_c) == 0.0 and max(p_c) == 1.0 and any(0.0 < v < 1.0 for v in p_c)


def test_sweep_is_the_final_sample_of_a_trace(sweep_and_trace):
    sweep, trace = sweep_and_trace
    (lam,) = PLAN.lambdas
    assert not sweep.failures and not trace.failures
    assert [r.instance_id for r in sweep.records] == [r.instance_id for r in trace.records]
    for swept, traced in zip(sweep.records, trace.records):
        s, t = swept.cim[lam], traced.cim[lam]
        assert s.trace_steps is None
        assert t.trace_steps[-1] == PLAN.cim.steps
        assert t.trace_best[-1] == s.best
        assert t.trace_pc[-1] == s.p_c
        # the same per-anneal scores, summed in another order: the trace
        # averages a column of its (anneal, sample) table, the sweep a vector
        assert math.isclose(t.trace_avg[-1], s.avg, rel_tol=1e-12)
        # the final-readout fields do not depend on the recording
        assert (t.best, t.avg, t.p_c, t.n_feasible) == (s.best, s.avg, s.p_c, s.n_feasible)

    final = {s.method: s for s in trace.summaries if s.step == PLAN.cim.steps}
    swept = {s.method: s for s in sweep.summaries}
    assert final.keys() == {"cim_best", "cim_avg"}
    assert final["cim_best"] == swept["cim_best"]
    assert final["cim_avg"].p_c == swept["cim_avg"].p_c
    assert final["cim_avg"].n == swept["cim_avg"].n
    assert math.isclose(final["cim_avg"].e_rho, swept["cim_avg"].e_rho, rel_tol=1e-12)

    def cim_rows(result):
        return [(r.instance_id, r.method, r.lam, r.step, r.feasible, r.fallback, r.seed)
                for r in result.rows()
                if r.step == PLAN.cim.steps and r.method in ("cim_best", "cim_avg")]

    assert cim_rows(trace) == cim_rows(sweep)


def _layers():
    """``LAYERS`` of the benchmark's tracer, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS in {TRACING}")


def test_benchmark_layers_resolve():
    modules = {"bench": bench, "cim": cim}
    layers = _layers()
    assert layers
    for _, module, attr in layers:
        assert callable(getattr(modules[module], attr)), f"cimsel.{module}.{attr}"


def test_benchmark_hooks_are_called(monkeypatch, tmp_path):
    # every harness function the tracer wraps, and the two entry points the
    # benchmark captures results through, are looked up at call time.  The
    # harness solves every group of weights through one path, which does
    # not pass through run_instance; cimsel solve is its one caller
    results = defaultdict(list)

    def recording(attr, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            results[attr].append(result)
            return result
        return wrapper

    attrs = {attr for _, module, attr in _layers() if module == "bench"}
    attrs |= {"sweep_lambda", "time_trace", "run_instance"}
    for attr in attrs:
        monkeypatch.setattr(bench, attr, recording(attr, getattr(bench, attr)))

    common = ["--n-t", "2", "--n-r", "2", "--n-states", "2", "--n-instances", "2",
              "--anneals", "4", "--steps", "20", "--seed", "1", "--workers", "1"]
    commands = {
        "sweep": ["--lambdas", "0.3,0.7"],
        "compare": ["--lambdas", "0.7"],
        "trace": ["--lam", "0.8", "--stride", "5"],
    }
    for command, extra in commands.items():
        before = {attr: len(results[attr]) for attr in ("sweep_lambda", "time_trace")}
        out = tmp_path / command
        assert cli.main([command, *common, *extra, "--out", str(out)]) == 0
        entry = "time_trace" if command == "trace" else "sweep_lambda"
        other = "sweep_lambda" if command == "trace" else "time_trace"
        assert len(results[entry]) == before[entry] + 1
        assert len(results[other]) == before[other]
        # what the benchmark reads off a captured result
        captured = results[entry][-1]
        assert captured.failures == [] and len(captured.records) == 2
        for record in captured.records:
            assert record.wall_clock > 0.0 and record.es_objective is not None
            for res in record.cim.values():
                assert res.n_anneals == 4
                assert (res.trace_steps is None) == (command != "trace")

    assert results["run_instance"] == []
    assert sorted(attr for attr in attrs - {"run_instance"} if not results[attr]) == []

    gen = tmp_path / "gen"
    assert cli.main(["gen", "--n-t", "2", "--n-r", "2", "--n-states", "2", "--seed", "1",
                     "--out", str(gen)]) == 0
    assert cli.main(["solve", str(gen / "channel_00000.json"), "--lam", "0.7",
                     "--anneals", "4", "--steps", "20", "--seed", "1"]) == 0
    (solved,) = results["run_instance"]
    assert solved.n_anneals == 4 and solved.trace_steps is None
