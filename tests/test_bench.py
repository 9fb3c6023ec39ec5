import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from cimsel.bench import (
    CSV_COLUMNS,
    CimInstanceResult,
    DominanceError,
    ExperimentPlan,
    InstanceRecord,
    MethodSummary,
    SweepResult,
    instance_channel_seed,
    run_instance,
    summarize_comparison,
    sweep_lambda,
    time_trace,
    write_metric_rows,
    write_summary_json,
)
from cimsel.baselines import exhaustive_search
from cimsel.channel import ConfigAssignment, MimoConfig, generate_channel
from cimsel.cim import CimParams
from oracles import all_spin_vectors, assignment_bits, feasible_assignments

CFG222 = MimoConfig(2, 2, 2)
FAST_CIM = CimParams(steps=300, n_anneals=40)


def small_plan(**overrides):
    defaults = dict(
        config=CFG222,
        lambdas=(0.2, 0.8),
        cim=FAST_CIM,
        n_instances=5,
        master_seed=17,
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


class TestExperimentPlan:
    """The plan is the schema of outside input: it checks, never converts."""

    def test_defaults(self):
        plan = ExperimentPlan(config=CFG222)
        assert plan.lambdas == (0.5,) and plan.cim == CimParams()

    @pytest.mark.parametrize("name,value,match", [
        ("n_instances", True, "n_instances must be an integer"),
        ("n_instances", 2.5, "n_instances must be an integer"),
        ("n_instances", 2.0, "n_instances must be an integer"),
        ("n_instances", 0, "n_instances must be >= 1"),
        ("master_seed", False, "master_seed must be an integer"),
        ("master_seed", 1.7, "master_seed must be an integer"),
        ("master_seed", -1, "master_seed must be >= 0"),
        ("trace_stride", True, "trace_stride must be an integer"),
        ("trace_stride", 2.9, "trace_stride must be an integer"),
        ("trace_stride", 0, "trace_stride must be >= 1"),
        ("es_budget", True, "es_budget must be an integer"),
        ("es_budget", 10.5, "es_budget must be an integer"),
        ("es_budget", -1, "es_budget must be >= 0"),
        ("lambdas", (), "lambdas must be non-empty"),
        ("lambdas", (True,), "penalty weights must be numbers"),
        ("lambdas", ("0.5",), "penalty weights must be numbers"),
        ("lambdas", (-0.1,), "penalty weights must lie in"),
    ])
    def test_rejects(self, name, value, match):
        with pytest.raises(ValueError, match=match):
            small_plan(**{name: value})

    def test_numpy_integers_accepted(self):
        plan = small_plan(n_instances=np.int64(3), master_seed=np.int32(0), es_budget=0)
        assert plan.n_instances == 3


class TestRunInstance:
    def test_degenerate_single_state(self):
        cfg = MimoConfig(2, 2, 1)
        g = generate_channel(cfg, seed=4)
        res = run_instance(g, 0.5, CimParams(steps=100, n_anneals=10), seed=1)
        only = exhaustive_search(g)
        assert res.best == pytest.approx(only.objective, rel=1e-12)
        assert res.best_assignment == only.assignment
        assert res.p_c == 1.0  # the single assignment is always feasible

    def test_full_penalty_weight_feasibility(self):
        # over 100 instances, essentially every anneal decodes feasible
        params = CimParams(steps=500, n_anneals=50)
        rates = []
        for k in range(100):
            g = generate_channel(CFG222, seed=k)
            rates.append(run_instance(g, 1.0, params, seed=k).p_c)
        assert np.mean(rates) >= 0.99

    def test_zero_weight_collapses_to_fallback(self):
        # pure-objective couplings are all ferromagnetic: every readout is
        # all-ones and infeasible, so the output is the fallback draw itself
        from cimsel.channel import objective
        from cimsel.rng import substream
        from cimsel.baselines import random_selection

        for k in range(5):
            g = generate_channel(CFG222, seed=100 + k)
            res = run_instance(g, 0.0, FAST_CIM, seed=k)
            assert res.p_c == 0.0
            assert res.fallback_used
            assert res.best >= res.avg
            assert res.avg == pytest.approx(res.best, rel=1e-12)
            from cimsel.bench import _D_FALLBACK

            draw = random_selection(g, substream(k, _D_FALLBACK))
            assert res.best_assignment == draw.assignment
            assert res.best == draw.objective == objective(g, draw.assignment)

    def test_best_dominates_average(self):
        for lam in (0.0, 0.3, 0.6, 1.0):
            g = generate_channel(CFG222, seed=7)
            res = run_instance(g, lam, FAST_CIM, seed=3)
            assert res.best >= res.avg
            assert 0.0 <= res.p_c <= 1.0

    @pytest.mark.parametrize(
        "lam,params,stride,n_aborted",
        [(1.0, CimParams(dt=0.1, steps=300, n_anneals=40), 50, 0),  # some feasible
         (0.0, FAST_CIM, 7, 0),  # nothing feasible: every score is the fallback
         (1.0, CimParams(dt=50.0, steps=300, n_anneals=4), 100, 4)],  # every anneal aborts
    )
    def test_final_readout_independent_of_trace(self, lam, params, stride, n_aborted):
        # the trace's last sample is the final readout, so recording a trace
        # must not move a single bit of the final-readout fields
        g = generate_channel(CFG222, seed=7)
        plain = run_instance(g, lam, params, seed=3)
        traced = run_instance(g, lam, params, seed=3, record_every=stride)
        assert plain.trace_steps is None
        assert 0.0 <= plain.p_c < 1.0
        assert plain.n_aborted == traced.n_aborted == n_aborted
        for name in ("best", "avg", "avg_raw", "p_c", "n_feasible", "best_assignment"):
            a, b = getattr(plain, name), getattr(traced, name)
            assert a == b or (np.isnan(a) and np.isnan(b)), name
        assert traced.trace_steps[-1] == params.steps
        assert traced.trace_best[-1] == traced.best
        assert traced.trace_pc[-1] == traced.p_c

    def test_determinism_and_weight_pairing(self):
        g = generate_channel(CFG222, seed=7)
        a = run_instance(g, 0.6, FAST_CIM, seed=3)
        b = run_instance(g, 0.6, FAST_CIM, seed=3)
        assert (a.best, a.avg, a.p_c) == (b.best, b.avg, b.p_c)
        assert a.best_assignment == b.best_assignment


class TestSweepLambda:
    def test_rows_and_schema(self):
        plan = small_plan()
        result = sweep_lambda(plan)
        methods_per_lam = 6  # es, nsa, rs, cim_best, cim_avg, cim_avg_raw
        assert len(result.rows) == plan.n_instances * len(plan.lambdas) * methods_per_lam
        for row in result.rows:
            assert row.method in ("es", "nsa", "rs", "cim_best", "cim_avg", "cim_avg_raw")
            assert row.step == plan.cim.steps
            assert row.seed == instance_channel_seed(plan.master_seed, row.instance_id)
        assert not result.failures

    def test_baselines_independent_of_weight(self):
        result = sweep_lambda(small_plan())
        for method in ("es", "nsa", "rs"):
            rows = [r for r in result.rows if r.method == method]
            by_instance = {}
            for r in rows:
                by_instance.setdefault(r.instance_id, set()).add(r.objective)
            assert all(len(vals) == 1 for vals in by_instance.values())

    def test_identical_channels_across_weights(self):
        # common random numbers: the cim rows at different weights share the
        # channel seed per instance
        result = sweep_lambda(small_plan())
        for instance_id in range(5):
            seeds = {r.seed for r in result.rows if r.instance_id == instance_id}
            assert len(seeds) == 1

    def test_deterministic_and_worker_invariant(self):
        plan = small_plan(n_instances=4)
        serial = sweep_lambda(plan, workers=1)
        parallel = sweep_lambda(plan, workers=2)
        again = sweep_lambda(plan, workers=1)
        for a, b in ((serial, parallel), (serial, again)):
            assert len(a.rows) == len(b.rows)
            for ra, rb in zip(a.rows, b.rows):
                assert (ra.instance_id, ra.method, ra.lam) == (rb.instance_id, rb.method, rb.lam)
                assert ra.objective == rb.objective or (
                    np.isnan(ra.objective) and np.isnan(rb.objective)
                )

    def test_feasibility_rises_with_weight(self):
        plan = small_plan(lambdas=(0.0, 0.5, 1.0), n_instances=15)
        result = sweep_lambda(plan)
        pc = [(s.lam, s.p_c) for s in result.summaries if s.method == "cim_best"]
        lams, pcs = zip(*sorted(pc))
        rho, _ = spearmanr(lams, pcs)
        assert rho > 0
        assert pcs[-1] > pcs[0]

    def test_penalty_endpoint_dominates_unconstrained(self):
        # invariant: final-step feasibility at full weight beats zero weight
        plan = small_plan(lambdas=(0.0, 1.0), n_instances=100,
                          cim=CimParams(steps=300, n_anneals=20))
        result = sweep_lambda(plan)
        pc = {s.lam: s.p_c for s in result.summaries if s.method == "cim_best"}
        assert 0.0 <= pc[0.0] <= 1.0 and 0.0 <= pc[1.0] <= 1.0
        assert pc[1.0] >= pc[0.0]

    def test_empty_lambdas_rejected(self):
        with pytest.raises(ValueError):
            sweep_lambda(small_plan(lambdas=()))

    def test_fallback_paired_with_random_baseline(self):
        # at zero weight nothing decodes feasible, so the cim rows collapse
        # onto the random-selection rows exactly (shared draw)
        plan = small_plan(lambdas=(0.0,), n_instances=6)
        result = sweep_lambda(plan)
        rs = {r.instance_id: r.objective for r in result.rows if r.method == "rs"}
        best = {r.instance_id: r.objective for r in result.rows if r.method == "cim_best"}
        assert rs == best

    def test_cim_best_never_below_random_baseline(self):
        result = sweep_lambda(small_plan(lambdas=(0.05, 0.5, 0.95), n_instances=6))
        rs = {(r.instance_id, r.lam): r.objective for r in result.rows if r.method == "rs"}
        best = {(r.instance_id, r.lam): r.objective for r in result.rows if r.method == "cim_best"}
        assert all(best[k] >= rs[k] for k in best)

    def test_cim_best_can_fall_below_random_baseline(self):
        # cim_best >= rs needs an anneal that falls back; when every anneal
        # decodes feasible, the best decode can score below the random draw
        plan = small_plan(lambdas=(0.95,), n_instances=3, master_seed=3,
                          cim=CimParams(n_anneals=1, steps=300))
        sweep = sweep_lambda(plan)
        record = sweep.records[2]
        res = record.cim[0.95]
        assert res.p_c == 1.0
        assert res.best == pytest.approx(3.334, abs=1e-3)
        assert record.rs_objective == pytest.approx(3.841, abs=1e-3)
        summarize_comparison(sweep)  # correct, so no DominanceError

    def test_cim_best_dominates_avg_rowwise(self):
        result = sweep_lambda(small_plan(lambdas=(0.05, 0.5, 0.95)))
        best = {(r.instance_id, r.lam): r.objective for r in result.rows if r.method == "cim_best"}
        avg = {(r.instance_id, r.lam): r.objective for r in result.rows if r.method == "cim_avg"}
        assert best.keys() == avg.keys()
        assert all(best[k] >= avg[k] for k in best)


class TestTimeTrace:
    def test_bookkeeping(self):
        plan = small_plan(n_instances=3, trace_stride=50, cim=CimParams(steps=200, n_anneals=10))
        result = time_trace(plan, 0.7)
        expected_steps = [0, 50, 100, 150, 200]
        assert [s.step for s in result.step_summaries] == expected_steps
        # one best and one avg row per instance per sampled step
        assert len(result.rows) == 3 * len(expected_steps) * 2

    def test_initial_feasibility_matches_enumeration(self):
        # random signs at step 0: the feasibility probability equals the
        # exact count of feasible spin vectors over the whole hypercube
        feasible_encodings = set()
        for sel in feasible_assignments(CFG222):
            s = 2 * assignment_bits(sel, CFG222) - 1
            feasible_encodings.add((1, *s))
            feasible_encodings.add((-1, *-s))
        exact = sum(
            tuple(s0) in feasible_encodings for s0 in all_spin_vectors(9)
        ) / 2 ** 9
        assert exact == pytest.approx(1 / 16)

        plan = small_plan(
            n_instances=20, trace_stride=100, cim=CimParams(steps=100, n_anneals=100)
        )
        result = time_trace(plan, 0.6)
        p0 = result.step_summaries[0].p_c
        n_samples = 20 * 100
        sigma = np.sqrt(exact * (1 - exact) / n_samples)
        assert abs(p0 - exact) < 5 * sigma

    def test_trace_values_settle(self):
        plan = small_plan(n_instances=10, trace_stride=100,
                          cim=CimParams(steps=1000, n_anneals=30))
        result = time_trace(plan, 0.8)
        tail = [s for s in result.step_summaries if s.step >= 800]
        e_vals = [s.e_rho_best for s in tail]
        assert (max(e_vals) - min(e_vals)) / abs(e_vals[-1]) < 0.05


class TestCompareMethods:
    def test_ordering_with_standard_errors(self):
        plan = small_plan(lambdas=(0.6,), n_instances=100,
                          cim=CimParams(steps=300, n_anneals=50))
        summaries = summarize_comparison(sweep_lambda(plan))
        by = {s.method: s for s in summaries}
        assert by["es"].e_rho >= by["nsa"].e_rho - 1e-12
        assert by["nsa"].e_rho - by["rs"].e_rho > 2 * (by["nsa"].stderr + by["rs"].stderr)
        assert by["es"].e_rho - by["rs"].e_rho > 2 * (by["es"].stderr + by["rs"].stderr)

    def test_dominance_assertions_run(self):
        plan = small_plan(lambdas=(0.1, 0.9), n_instances=6)
        sweep = sweep_lambda(plan)
        summaries = summarize_comparison(sweep)
        assert summaries is sweep.summaries
        assert {s.method for s in summaries} == {
            "es", "nsa", "rs", "cim_best", "cim_avg", "cim_avg_raw"
        }


@st.composite
def cim_params(draw):
    """``CimParams`` the checks accept, at small run sizes.  Within 40 steps a
    row aborts only when its error variable overflows, which takes a ``dt``
    in the top decades and a negative ``beta``."""
    a = draw(st.floats(0.01, 4.0))
    return CimParams(
        p=draw(st.floats(-1.0, 2.0)),
        beta=draw(st.floats(-5.0, 5.0)),
        a=a,
        gamma=draw(st.floats(-100.0, 500.0)),
        dt=10.0 ** draw(st.floats(-3.0, 8.0)),
        steps=draw(st.integers(1, 40)),
        n_anneals=draw(st.integers(1, 8)),
        init_scale=draw(st.floats(1e-4, 1.0)),
        x_clip=math.sqrt(a) + draw(st.floats(0.01, 20.0)),
    )


class TestDominanceProperty:
    @given(params=cim_params(), lam=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    # every anneal aborts: the random draws reach such constants only rarely
    @example(params=CimParams(beta=-5.0, dt=1e8, steps=40, n_anneals=8), lam=0.5, seed=0)
    @settings(deadline=None)
    def test_identities_hold(self, params, lam, seed):
        plan = ExperimentPlan(config=CFG222, lambdas=(lam,), cim=params, n_instances=1,
                              master_seed=seed)
        sweep = sweep_lambda(plan)
        assert not sweep.failures
        # es >= cim_best >= cim_avg, checked with DominanceError
        summarize_comparison(sweep)
        (record,) = sweep.records
        res = record.cim[plan.lambdas[0]]
        if res.p_c < 1.0:
            assert res.best >= record.rs_objective


def _hand_sweep(best, avg, es):
    res = CimInstanceResult(
        best=best, best_assignment=ConfigAssignment(tx=(0, 0), rx=(0, 0)),
        avg=avg, avg_raw=avg, p_c=1.0, n_feasible=10, n_anneals=10, n_aborted=0,
        fallback_used=False,
    )
    record = InstanceRecord(
        instance_id=3, channel_seed=0, es_objective=es,
        nsa_objective=1.0, rs_objective=1.0, cim={0.5: res},
    )
    return SweepResult(rows=[], summaries=[], records=[record], failures=[])


class TestDominanceChecks:
    """The checks raise a real exception, so they also run under python -O."""

    def test_consistent_record_passes(self):
        assert summarize_comparison(_hand_sweep(best=2.0, avg=1.5, es=2.0)) == []

    @pytest.mark.parametrize(
        "best,avg,es,match",
        [(1.0, 1.5, 2.0, "below average"),  # best < avg
         (2.5, 1.5, 2.0, "below method value"),  # es < best
         (2.0, 1.5, 0.5, "below method value"),  # es < nsa, rs
         (float("nan"), 1.5, 2.0, "below average")],  # NaN never dominates
    )
    def test_violation_raises(self, best, avg, es, match):
        with pytest.raises(DominanceError, match=match):
            summarize_comparison(_hand_sweep(best, avg, es))


class TestWriters:
    def test_csv_schema(self, tmp_path):
        result = sweep_lambda(small_plan(n_instances=2))
        path = tmp_path / "results.csv"
        write_metric_rows(result.rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# format: 1"
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2 + len(result.rows)
        for line in lines[2:]:
            assert len(line.split(",")) == len(CSV_COLUMNS)

    def test_summary_json(self, tmp_path):
        import json

        result = sweep_lambda(small_plan(n_instances=2))
        path = tmp_path / "summary.json"
        write_summary_json(result.summaries, path)
        payload = json.load(open(path))
        assert payload["format"] == 1
        assert {row["method"] for row in payload["rows"]} >= {"es", "nsa", "rs", "cim_best"}
        for row in payload["rows"]:
            assert set(row) == {"method", "lambda", "e_rho", "p_c", "stderr", "n"}

    def test_nan_becomes_null(self, tmp_path):
        import json

        rows = [MethodSummary(method="cim_avg_raw", lam=0.1, e_rho=float("nan"),
                              p_c=0.0, stderr=0.0, n=0)]
        path = tmp_path / "summary.json"
        write_summary_json(rows, path)
        assert json.load(open(path))["rows"][0]["e_rho"] is None
