import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from cimsel import bench, cim
from cimsel.bench import (
    _ReadoutScorer,
    CSV_COLUMNS,
    CimInstanceResult,
    DominanceError,
    ExperimentPlan,
    InstanceRecord,
    HarnessResult,
    MethodSummary,
    instance_channel_seed,
    run_instance,
    summarize_comparison,
    sweep_lambda,
    time_trace,
    write_metric_rows,
    write_summary_json,
    write_trace_summary_json,
)
from cimsel.baselines import BaselineResult, exhaustive_search
from cimsel.channel import ConfigAssignment, MimoConfig, generate_channel, score_states
from cimsel.cim import CimParams, readout
from cimsel.formulation import decode_states
from oracles import (
    all_spin_vectors,
    assignment_bits,
    decode_every_readout,
    feasible_assignments,
    readout_steps,
)

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
        ("lambdas", (True,), "lambdas.0. must be a finite number, got True"),
        ("lambdas", ("0.5",), "lambdas.0. must be a finite number, got '0.5'"),
        ("lambdas", (-0.1,), "penalty weights must lie in"),
        ("lambdas", (0.5, 0.2, 0.5), "penalty weights must be distinct"),
        ("lambdas", (1, 1.0), "penalty weights must be distinct"),
        ("lambdas", 0.5, "lambdas must be a list or tuple, got 0.5"),
    ])
    def test_rejects(self, name, value, match):
        with pytest.raises(ValueError, match=match):
            small_plan(**{name: value})

    def test_numpy_integers_accepted(self):
        plan = small_plan(n_instances=np.int64(3), master_seed=np.int32(0), es_budget=0)
        assert plan.n_instances == 3

    def test_config_takes_the_plan_integer_rule(self):
        config = MimoConfig(np.int64(2), np.int32(2), np.uint8(2))
        assert config == CFG222 and type(config.n_t) is int
        assert small_plan(config=config).config == CFG222


class TestRunInstance:
    def test_degenerate_single_state(self):
        cfg = MimoConfig(2, 2, 1)
        g = generate_channel(cfg, seed=4)
        res = run_instance(g, 0.5, CimParams(steps=100, n_anneals=10), seed=1)
        only = exhaustive_search(g)
        assert res.best == pytest.approx(only.objective, rel=1e-12)
        assert res.best_assignment == only.assignment
        assert res.p_c == 1.0  # the single assignment is always feasible

    @pytest.mark.parametrize("record_every,match", [
        (-5, "record_every must be >= 0, got -5"),
        (2.5, "record_every must be an integer, got 2.5"),
    ])
    def test_rejects_record_every(self, record_every, match):
        g = generate_channel(CFG222, seed=4)
        with pytest.raises(ValueError, match=match):
            run_instance(g, 0.5, FAST_CIM, seed=1, record_every=record_every)

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
            assert res.n_feasible == 0
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

    # the error variables overflow near step 835: at 0.5, 34 of 40
    # anneals abort and none ends feasible, so the fallback stands in;
    # at 0.7, 11 abort and 29 end feasible
    ABORTING = CimParams(beta=-1.0, dt=0.015, steps=835, n_anneals=40)

    @pytest.mark.parametrize("lam,params", [
        pytest.param(0.5, ABORTING, id="0.5"),
        pytest.param(0.7, ABORTING, id="0.7"),
        # every anneal ends feasible, 2 of 40 start so
        pytest.param(0.9, FAST_CIM, id="0.9-all-feasible"),
    ])
    def test_decode_once_matches_decoding_every_readout(self, lam, params):
        g = generate_channel(CFG222, seed=5)
        # strides that give 2, 26 and 51 samples
        edges = [next(s for s in range(1, params.steps + 1)
                      if len(readout_steps(params.steps, s)) == n)
                 for n in (2, 26, 51)]
        # every step, a stride that does not divide the steps, the default
        # trace stride, one past the final step (two samples), and the edges
        for stride in (1, 7, 10, params.steps + 1, *edges):
            got = run_instance(g, lam, params, seed=7, record_every=stride)
            want = decode_every_readout(g, lam, params, 7, stride)
            assert got.n_aborted == want["n_aborted"]
            assert want["trace_pc"].min() < 1.0  # some readouts fall back
            for name in ("trace_steps", "trace_best", "trace_avg", "trace_pc"):
                a, b = getattr(got, name), want[name]
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, stride)
            for name in ("p_c", "best", "best_assignment"):
                assert getattr(got, name) == want[name], (name, stride)
        if params is self.ABORTING:
            assert 0 < got.n_aborted < params.n_anneals
        else:
            assert got.p_c == 1.0 and got.n_aborted == 0

    @pytest.mark.parametrize("steps,repeats", [
        pytest.param(range(2), (), id="2"),
        pytest.param(range(26), (), id="26"),
        pytest.param(range(51), (), id="51"),
        # samples whose readouts repeat the one before, the last included,
        # log nothing and carry the figures of the sample before them
        pytest.param(range(26), (1, 7, 8, 9, 24, 25), id="26-gaps"),
        # a stride-10 grid whose last step is off the grid
        pytest.param([*range(0, 245, 10), 245], (), id="stride-10-last-off-grid"),
    ])
    def test_replay_block_edges(self, steps, repeats):
        # fresh readouts change rows at every sample but the repeated ones,
        # and every sample's figures must match the reductions of one
        # (anneals, samples) score matrix.  Most readouts encode an
        # assignment, so the sums hold many distinct scores and their order
        # shows in the bits.  The log is keyed by the step handed to the
        # scorer, and its first entry covers every row.
        steps = list(steps)
        n_samples = len(steps)
        g = generate_channel(CFG222, seed=5)
        rng = np.random.default_rng(n_samples)
        n_anneals = 200
        codes = np.array([[1, *(2 * assignment_bits(sel, CFG222) - 1)]
                          for sel in feasible_assignments(CFG222)], dtype=np.int8)
        readouts = codes[rng.integers(len(codes), size=(n_samples, n_anneals))]
        readouts *= rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_samples, n_anneals, 1))
        junk = rng.random((n_samples, n_anneals)) < 0.2
        readouts[junk] = rng.choice(np.array([-1, 1], dtype=np.int8), size=(junk.sum(), 9))
        for sample in repeats:
            readouts[sample] = readouts[sample - 1]
        aborted = rng.random(n_anneals) < 0.1
        scorer = _ReadoutScorer(g)
        # the scorer reads its readout from run.x; sign(+-1) is the readout
        for k, spins in zip(steps, readouts):
            scorer(k, SimpleNamespace(x=spins))
        assert scorer.steps == steps
        logged = [k for sample, k in enumerate(steps) if sample not in repeats]
        assert [c[0] for c in scorer.changes] == logged
        assert scorer.changes[0][1] == slice(None)
        # the solve's records: the last readouts and the abort mask
        records = np.recarray(n_anneals, dtype=[("spins", np.int8, (9,)), ("aborted", np.bool_)])
        records.spins, records.aborted = readouts[-1], aborted
        fallback = BaselineResult(next(feasible_assignments(CFG222)), 1.5, 0)
        res = scorer.result(records, fallback)

        table = np.stack(list(readouts), axis=1)
        ok, states = decode_states(table.reshape(-1, 9), CFG222)
        feasible = ok.reshape(n_anneals, n_samples) & ~aborted[:, None]
        raw = score_states(g, states).reshape(n_anneals, n_samples)
        scores = np.where(feasible, raw, 1.5)
        assert 0 < feasible.sum() < feasible.size
        want_best = scores.max(axis=0)
        want = (want_best, np.minimum(scores.mean(axis=0), want_best), feasible.mean(axis=0))
        for a, b in zip((res.trace_best, res.trace_avg, res.trace_pc), want):
            assert a.tobytes() == b.tobytes()
        assert res.trace_steps.dtype == np.int64 and res.trace_steps.tolist() == steps
        # the walk leaves the final per-anneal vectors in the first log entry
        _, _, final, final_ok = scorer.changes[0]
        assert final.tobytes() == scores[:, -1].tobytes()
        assert final_ok.tobytes() == feasible[:, -1].tobytes()
        assert res.best == scores[:, -1].max() == want_best[-1]
        assert res.p_c == feasible[:, -1].mean() == want[2][-1]
        assert res.n_feasible == feasible[:, -1].sum()
        assert res.avg == min(scores[:, -1].mean(), res.best)
        assert res.avg_raw == scores[feasible[:, -1], -1].mean()
        assert (res.n_anneals, res.n_aborted) == (n_anneals, aborted.sum())

    def test_reads_out_the_first_readout_and_the_flipped_rows(self, monkeypatch):
        # a stride-1 trace reads out every row of its first readout and,
        # of each later one, only the rows with a flipped sign
        converted, scorers = [], []

        def counting_readout(x):
            converted.append(len(x))
            return readout(x)

        class RecordingScorer(bench._ReadoutScorer):
            def __init__(self, *args):
                super().__init__(*args)
                scorers.append(self)

        monkeypatch.setattr(bench, "readout", counting_readout)
        monkeypatch.setattr(bench, "_ReadoutScorer", RecordingScorer)
        params = CimParams(steps=300, n_anneals=200)
        g = generate_channel(CFG222, seed=3)
        res = run_instance(g, 0.5, params, seed=1, record_every=1)
        (scorer,) = scorers
        logged = sum(len(rows) for _, rows, _, _ in scorer.changes[1:])
        assert converted[0] == params.n_anneals and len(converted) == len(scorer.changes)
        assert sum(converted) == params.n_anneals + logged
        # some samples flip signs and most flip none
        assert 1 < len(scorer.changes) < params.steps // 2
        assert len(res.trace_steps) == params.steps + 1

    def test_trace_holds_no_readout_table(self):
        # a stride-1 trace keeps the scorer's log of changed rows, not a
        # readout table nor an (anneals, samples) score matrix, nor any
        # temporary that large: its peak stays below one float64 matrix
        cases = [
            (MimoConfig(4, 4, 4), 0.7, CimParams(steps=500, n_anneals=200)),
            # the default size at a weight where anneals flip to the end
            (CFG222, 0.5, CimParams()),
        ]
        for config, lam, params in cases:
            g = generate_channel(config, seed=3)
            matrix_bytes = params.n_anneals * (params.steps + 1) * 8
            tracemalloc.start()
            try:
                res = run_instance(g, lam, params, seed=1, record_every=1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(res.trace_steps) == params.steps + 1
            assert peak < matrix_bytes, (config, peak, matrix_bytes)

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
        rows = list(result.rows())
        assert len(rows) == plan.n_instances * len(plan.lambdas) * methods_per_lam
        # every call builds the same rows afresh
        assert list(result.rows()) == rows
        for row in rows:
            assert row.method in ("es", "nsa", "rs", "cim_best", "cim_avg", "cim_avg_raw")
            assert row.step == plan.cim.steps
            assert row.seed == instance_channel_seed(plan.master_seed, row.instance_id)
        assert not result.failures

    def test_baselines_independent_of_weight(self):
        result = sweep_lambda(small_plan())
        for method in ("es", "nsa", "rs"):
            rows = [r for r in result.rows() if r.method == method]
            by_instance = {}
            for r in rows:
                by_instance.setdefault(r.instance_id, set()).add(r.objective)
            assert all(len(vals) == 1 for vals in by_instance.values())

    def test_identical_channels_across_weights(self):
        # common random numbers: the cim rows at different weights share the
        # channel seed per instance
        result = sweep_lambda(small_plan())
        for instance_id in range(5):
            seeds = {r.seed for r in result.rows() if r.instance_id == instance_id}
            assert len(seeds) == 1

    def test_deterministic_and_worker_invariant(self):
        plan = small_plan(n_instances=4)
        serial = sweep_lambda(plan, workers=1)
        parallel = sweep_lambda(plan, workers=2)
        again = sweep_lambda(plan, workers=1)
        for a, b in ((serial, parallel), (serial, again)):
            rows_a, rows_b = list(a.rows()), list(b.rows())
            assert len(rows_a) == len(rows_b)
            for ra, rb in zip(rows_a, rows_b):
                assert (ra.instance_id, ra.method, ra.lam) == (rb.instance_id, rb.method, rb.lam)
                assert ra.objective == rb.objective or (
                    np.isnan(ra.objective) and np.isnan(rb.objective)
                )

    def test_pool_holds_no_more_workers_than_instances(self, monkeypatch, tmp_path):
        # a process pool starts all its workers on the first task, so one
        # wider than the plan would start idle processes; a fake pool
        # counts the workers asked for and runs the tasks in this process
        import concurrent.futures

        asked = []

        class CountingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        for n_instances, want in ((1, []), (2, [2])):
            plan = small_plan(n_instances=n_instances)
            asked.clear()
            write_metric_rows(sweep_lambda(plan, workers=4).rows(), tmp_path / "pool.csv")
            assert asked == want
            write_metric_rows(sweep_lambda(plan, workers=1).rows(), tmp_path / "serial.csv")
            assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def test_files_identical_across_batch_budgets(self, monkeypatch, tmp_path):
        # one weight a solve, two (in solves of 2, 2 and 1) and the default
        # budget, which puts all five in one solve, write the same files at
        # one and two workers
        plan = small_plan(lambdas=(0.1, 0.3, 0.5, 0.7, 0.9), n_instances=3)
        sizes = []

        def counting_solve(j, *args, **kwargs):
            sizes.append(len(j.j))
            return solve(j, *args, **kwargs)

        solve = bench.solve
        monkeypatch.setattr(bench, "solve", counting_solve)
        files = set()
        for budget, per_instance in ((0, [1] * 5), (2 * 40 * 9, [2, 2, 1]),
                                     (cim._BATCH_CELLS, [5])):
            monkeypatch.setattr(cim, "_BATCH_CELLS", budget)
            for workers in (1, 2):
                sizes.clear()
                result = sweep_lambda(plan, workers=workers)
                if workers == 1:
                    assert sizes == per_instance * plan.n_instances
                write_metric_rows(result.rows(), tmp_path / "results.csv")
                write_summary_json(result.summaries, tmp_path / "summary.json")
                files.add(tuple((tmp_path / name).read_bytes()
                                for name in ("results.csv", "summary.json")))
        assert len(files) == 1

    def test_batched_weights_match_their_own_runs(self):
        # two weights in one solve, where 34 and 11 of 40 anneals abort,
        # give the results each weight's own run_instance gives, bit for bit
        g = generate_channel(CFG222, seed=5)
        params = TestRunInstance.ABORTING
        context = bench._InstanceContext.build(g, 7)
        assert cim.couplings_per_solve(params.n_anneals, 9) >= 2
        for record_every in (0, 7):
            batched = context.results((0.5, 0.7), params, record_every)
            for lam, got in zip((0.5, 0.7), batched):
                want = run_instance(g, lam, params, seed=7, record_every=record_every)
                assert got.n_aborted == want.n_aborted > 0
                for name, a in vars(got).items():
                    b = getattr(want, name)
                    if isinstance(a, np.ndarray):
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                    elif isinstance(a, float):
                        assert np.float64(a).tobytes() == np.float64(b).tobytes(), name
                    else:
                        assert a == b, name

    @pytest.mark.parametrize("dims,lambdas,bound", [
        # three of the five weights share a solve: the peak is its kernel's
        # five (3000, 9) float arrays and a fixed slack, so no weight keeps a
        # start table of its own
        ((2, 2, 2), (0.1, 0.3, 0.5, 0.7, 0.9), 5 * 3000 * 9 * 8 + 64 * 1024),
        # one weight a solve: no higher than one weight's instance peaked
        # before weights shared a solve (5.24 of its (1000, 33) float arrays)
        ((4, 4, 4), (0.3, 0.7), 5.25 * 1000 * 33 * 8),
    ], ids=["dim9", "dim33"])
    def test_instance_peak_holds_one_batch(self, dims, lambdas, bound):
        plan = ExperimentPlan(MimoConfig(*dims), lambdas=lambdas, n_instances=1, master_seed=1,
                              es_budget=0)
        tracemalloc.start()
        try:
            record = bench._instance_record(plan, 0, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(record.cim) == len(lambdas)
        assert peak < bound, (dims, peak, bound)

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
        rs = {r.instance_id: r.objective for r in result.rows() if r.method == "rs"}
        best = {r.instance_id: r.objective for r in result.rows() if r.method == "cim_best"}
        assert rs == best

    def test_cim_best_never_below_random_baseline(self):
        # where some anneal falls back (the cim_avg row's fallback flag,
        # P_c < 1), that anneal scores the random baseline's draw
        result = sweep_lambda(small_plan(lambdas=(0.05, 0.5, 0.95), n_instances=6))
        rows = list(result.rows())
        rs = {(r.instance_id, r.lam): r.objective for r in rows if r.method == "rs"}
        best = {(r.instance_id, r.lam): r.objective for r in rows if r.method == "cim_best"}
        falls_back = [(r.instance_id, r.lam) for r in rows
                      if r.method == "cim_avg" and r.fallback]
        assert falls_back
        assert all(best[k] >= rs[k] for k in falls_back)

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
        rows = list(result.rows())
        best = {(r.instance_id, r.lam): r.objective for r in rows if r.method == "cim_best"}
        avg = {(r.instance_id, r.lam): r.objective for r in rows if r.method == "cim_avg"}
        assert best.keys() == avg.keys()
        assert all(best[k] >= avg[k] for k in best)


class TestTimeTrace:
    def test_bookkeeping(self):
        plan = small_plan(lambdas=(0.7,), n_instances=3, trace_stride=50,
                          cim=CimParams(steps=200, n_anneals=10))
        result = time_trace(plan)
        assert result.plan == plan
        expected_steps = [0, 50, 100, 150, 200]
        # one best and one avg summary per sampled step, one row of each per
        # instance per sampled step
        assert [(s.lam, s.step, s.method) for s in result.summaries] == [
            (0.7, step, method) for step in expected_steps for method in ("cim_best", "cim_avg")
        ]
        rows = list(result.rows())
        assert len(rows) == 3 * len(expected_steps) * 2
        assert list(result.rows()) == rows

    def test_files_identical_across_worker_counts(self, tmp_path):
        # trace records cross the process pool with their trace_steps, so
        # two workers must write the files one process writes, byte for byte
        plan = small_plan(lambdas=(0.6,), n_instances=3, trace_stride=7)
        for workers in (2, 1):
            result = time_trace(plan, workers=workers)
            assert all(rec.cim[0.6].trace_steps[-1] == 300 for rec in result.records)
            write_metric_rows(result.rows(), tmp_path / f"trace-{workers}.csv")
            write_trace_summary_json(result, tmp_path / f"trace_summary-{workers}.json")
        for name in ("trace-{}.csv", "trace_summary-{}.json"):
            assert (tmp_path / name.format(2)).read_bytes() == (tmp_path / name.format(1)).read_bytes()

    def test_two_weight_plan_rejected_before_any_instance(self, monkeypatch):
        from cimsel import bench

        ran = []
        monkeypatch.setattr(bench, "_instance_record", lambda *args: ran.append(args))
        with pytest.raises(ValueError, match="one penalty weight"):
            time_trace(small_plan())
        assert ran == []

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
            lambdas=(0.6,), n_instances=20, trace_stride=100,
            cim=CimParams(steps=100, n_anneals=100),
        )
        result = time_trace(plan)
        p0 = result.summaries[0].p_c
        n_samples = 20 * 100
        sigma = np.sqrt(exact * (1 - exact) / n_samples)
        assert abs(p0 - exact) < 5 * sigma

    def test_trace_values_settle(self):
        plan = small_plan(lambdas=(0.8,), n_instances=10, trace_stride=100,
                          cim=CimParams(steps=1000, n_anneals=30))
        result = time_trace(plan)
        e_vals = [s.e_rho for s in result.summaries if s.method == "cim_best" and s.step >= 800]
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
    )
    record = InstanceRecord(
        instance_id=3, channel_seed=0, es_objective=es,
        nsa_objective=1.0, rs_objective=1.0, cim={0.5: res},
    )
    plan = ExperimentPlan(config=CFG222)
    return HarnessResult(plan=plan, summaries=[], records=[record], failures=[])


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

    @pytest.mark.parametrize("p_c", [0.0, 0.9])
    def test_best_below_random_baseline_with_fallback_raises(self, p_c):
        # an anneal that falls back scores the random baseline's draw, so
        # best-of-anneals cannot sit below it
        sweep = _hand_sweep(best=0.8, avg=0.5, es=2.0)
        sweep.records[0].cim[0.5].p_c = p_c
        with pytest.raises(DominanceError, match="below random baseline"):
            summarize_comparison(sweep)


class TestWriters:
    def test_csv_schema(self, tmp_path):
        result = sweep_lambda(small_plan(n_instances=2))
        path = tmp_path / "results.csv"
        write_metric_rows(result.rows(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# format: 1"
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2 + len(list(result.rows()))
        for line in lines[2:]:
            assert len(line.split(",")) == len(CSV_COLUMNS)

    def test_summary_json(self, tmp_path):
        import json

        result = sweep_lambda(small_plan(n_instances=2))
        path = tmp_path / "summary.json"
        write_summary_json(result.summaries, path)
        payload = json.loads(path.read_text())
        assert payload["format"] == 1
        assert {row["method"] for row in payload["rows"]} >= {"es", "nsa", "rs", "cim_best"}
        for row in payload["rows"]:
            assert set(row) == {"method", "lambda", "e_rho", "p_c", "stderr", "n"}

    def test_nan_becomes_null(self, tmp_path):
        import json

        rows = [MethodSummary(method="cim_avg_raw", lam=0.1, step=1000, e_rho=float("nan"),
                              p_c=0.0, stderr=0.0, n=0)]
        path = tmp_path / "summary.json"
        write_summary_json(rows, path)
        assert json.loads(path.read_text())["rows"][0]["e_rho"] is None
