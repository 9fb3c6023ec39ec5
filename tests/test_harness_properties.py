"""Property-based tests of the harness contract.

Hypothesis draws small plans: configs up to ``3x3x3``, 1-5 distinct
penalty weights, 1-40 anneals, 1-80 steps, trace strides from 1 to past the
last step, and solver constants that sometimes abort rows.  For each plan a
sweep of all its weights and a trace of its first weight must

* write ``results.csv``, ``summary.json``, ``trace.csv`` and
  ``trace_summary.json`` byte for byte alike at one and two workers, and
  with one weight a solve (``cim._BATCH_CELLS`` 0) as at the default;
* pass ``summarize_comparison``;
* agree on the final record fields of the traced weight;
* keep ``cim_best >= rs`` wherever ``P_c < 1``, and ``cim_best`` equal to
  the fallback draw's objective, which the random baseline scores,
  wherever ``P_c`` is 0.

Every two-worker run of the module maps over one pool of two processes.

A ``sweep`` config file with one key renamed, one key deleted, or one
value replaced by one the schema rejects must run (exit 0) or exit 2 with
an ``error:`` line naming the key, never a traceback or exit 4.
"""

import concurrent.futures
import contextlib
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cimsel import cim, cli
from cimsel.bench import (
    ExperimentPlan,
    summarize_comparison,
    sweep_lambda,
    time_trace,
    write_metric_rows,
    write_summary_json,
    write_trace_summary_json,
)
from cimsel.channel import MimoConfig
from cimsel.cim import CimParams

# the default constants; two sets that abort some rows of a solve within
# 60 steps (found by a random search over the constants); one that aborts
# every row of a solve of 31 steps or more
PARTIAL_ABORTS = dict(beta=-224.0, dt=3.1, gamma=6.33, a=0.159, init_scale=0.437, x_clip=28.7)
CONSTANTS = (
    {},
    PARTIAL_ABORTS,
    dict(beta=-95.0, dt=1.35, gamma=3.6, a=5.75, init_scale=1.65, x_clip=90.6),
    dict(beta=-5.0, dt=1e8),
)


@st.composite
def plans(draw):
    steps = draw(st.integers(1, 80))
    return ExperimentPlan(
        config=MimoConfig(*(draw(st.integers(1, 3)) for _ in range(3))),
        lambdas=tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5, unique=True))),
        cim=CimParams(steps=steps, n_anneals=draw(st.integers(1, 40)),
                      **draw(st.sampled_from(CONSTANTS))),
        # a pool of two needs two instances
        n_instances=draw(st.integers(2, 3)),
        master_seed=draw(st.integers(0, 2**32 - 1)),
        trace_stride=draw(st.integers(1, steps + 10)),
    )


@pytest.fixture(scope="module")
def shared_pool():
    """One pool of two processes for every two-worker harness of the
    module: the harness enters and leaves it without shutting it down.  Its
    processes start before any test patches the solve-group budget, so
    they keep the default."""
    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool, \
            pytest.MonkeyPatch.context() as patch:
        pool.submit(int).result()
        patch.setattr(concurrent.futures, "ProcessPoolExecutor",
                      lambda max_workers: contextlib.nullcontext(pool))
        yield pool


def _run(plan: ExperimentPlan, workers: int, batch_cells: int):
    """The sweep, the trace of the plan's first weight, and the bytes of
    the four files they write."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cim, "_BATCH_CELLS", batch_cells)
        sweep = sweep_lambda(plan, workers)
        trace = time_trace(dataclasses.replace(plan, lambdas=plan.lambdas[:1]), workers)
    summarize_comparison(sweep)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_metric_rows(sweep.rows(), out / "results.csv")
        write_summary_json(sweep.summaries, out / "summary.json")
        write_metric_rows(trace.rows(), out / "trace.csv")
        write_trace_summary_json(trace, out / "trace_summary.json")
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    return sweep, trace, files


@settings(max_examples=50, deadline=None)
@given(plan=plans())
# some rows abort in solves of three weights
@example(plan=ExperimentPlan(MimoConfig(2, 2, 2), lambdas=(0.2, 0.5, 0.8),
                             cim=CimParams(steps=60, n_anneals=40, **PARTIAL_ABORTS),
                             n_instances=2, master_seed=1, trace_stride=7))
# the smallest plan: one anneal of one step, a stride past the end
@example(plan=ExperimentPlan(MimoConfig(1, 1, 1), lambdas=(0.0, 1.0),
                             cim=CimParams(steps=1, n_anneals=1), n_instances=2, trace_stride=5))
# five weights, all in one solve at the default budget
@example(plan=ExperimentPlan(MimoConfig(3, 3, 3), lambdas=(0.1, 0.3, 0.5, 0.7, 0.9),
                             cim=CimParams(steps=80, n_anneals=40), n_instances=3, master_seed=9,
                             trace_stride=1))
def test_harness_contract(shared_pool, plan):
    sweep, trace, files = _run(plan, 1, cim._BATCH_CELLS)
    assert _run(plan, 2, cim._BATCH_CELLS)[2] == files
    assert _run(plan, 1, 0)[2] == files

    assert not sweep.failures and not trace.failures
    assert len(sweep.records) == len(trace.records) == plan.n_instances
    lam = plan.lambdas[0]
    for swept, traced in zip(sweep.records, trace.records):
        s, t = swept.cim[lam], traced.cim[lam]
        assert (t.best, t.avg, t.p_c, t.n_feasible) == (s.best, s.avg, s.p_c, s.n_feasible)
        # where no anneal decodes feasible, best-of-anneals scores the
        # fallback draw; where some anneal falls back, it scores that draw
        # at least
        samples = [(res.best, res.p_c) for res in swept.cim.values()]
        samples += zip(t.trace_best.tolist(), t.trace_pc.tolist())
        rs = swept.rs_objective
        assert traced.rs_objective == rs
        for best, p_c in samples:
            if p_c == 0.0:
                assert best == rs
            if p_c < 1.0:
                assert best >= rs


def test_partial_abort_constants_abort_some_rows():
    # the strategy reaches solves where some rows abort and others run on
    plan = ExperimentPlan(MimoConfig(2, 2, 2), lambdas=(0.5,),
                          cim=CimParams(steps=60, n_anneals=40, **PARTIAL_ABORTS),
                          n_instances=2, master_seed=1)
    aborted = [record.cim[0.5].n_aborted for record in sweep_lambda(plan).records]
    assert any(0 < n < 40 for n in aborted), aborted


def _sweep_config(**top) -> dict:
    """A valid ``sweep`` config of one instance of 2 anneals of 5 steps,
    which holds every key the plan and ``CimParams`` read."""
    return {"n_t": 2, "n_r": 2, "n_states": 2, "n_instances": 1, "lambdas": [0.5],
            "master_seed": 0, "trace_stride": 10, "es_budget": 100, "workers": 1,
            "cim": dataclasses.asdict(CimParams(steps=5, n_anneals=2)), **top}


# values the schema rejects in place of another; no valid huge size
REJECTED = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.integers(max_value=0),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: not v.is_integer()),
    st.lists(st.one_of(st.integers(-2, 2), st.floats(-2, 2), st.none(), st.booleans(),
                       st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)


@st.composite
def mutated_configs(draw):
    """A valid sweep config with one key renamed or deleted or one value
    replaced, and the names the mutation touched."""
    config = _sweep_config(
        **{key: draw(st.integers(1, 2)) for key in ("n_t", "n_r", "n_states")},
        lambdas=draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3, unique=True)),
        master_seed=draw(st.integers(0, 2**32 - 1)),
        trace_stride=draw(st.integers(1, 10)),
        es_budget=draw(st.integers(0, 100)),
    )
    path = draw(st.sampled_from([(key,) for key in config] + [("cim", key) for key in config["cim"]]))
    *outer, key = path
    mapping = config[outer[0]] if outer else config
    change = draw(st.sampled_from(("rename", "delete", "replace")))
    if change == "rename":
        name = draw(st.from_regex(r"[a-z][a-z_]{0,11}", fullmatch=True)
                    .filter(lambda name: name not in mapping))
        mapping[name] = mapping.pop(key)
        return config, (key, name)
    if change == "delete":
        del mapping[key]
    else:
        mapping[key] = draw(REJECTED)
    return config, (key,)


@settings(max_examples=40, deadline=None)
@given(case=mutated_configs())
# out-of-range and repeated weights name lambdas
@example(case=(_sweep_config(lambdas=[-1]), ("lambdas",)))
@example(case=(_sweep_config(lambdas=[0.5, 0.5]), ("lambdas",)))
@example(case=(_sweep_config(cim=None), ("cim",)))
@example(case=(_sweep_config(cim={"dt": 0.01, "d_t": 0.01}), ("d_t",)))
def test_mutated_config_runs_or_names_the_key(case):
    config, names = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["sweep", "--config", str(path), "--out", str(Path(tmp) / "out")])
            except SystemExit as exc:
                code = exc.code
    err = err.getvalue()
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        (line,) = [line for line in err.splitlines() if line.startswith("error:")]
        assert any(re.search(rf"\b{re.escape(name)}\b", line) for name in names), (names, line)
