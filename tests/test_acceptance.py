"""Acceptance suite: one test per release criterion, one printed line each.

The heavy Monte-Carlo fixtures are session-scoped and shared between
criteria; every run in here is a pure function of the seeds below.
"""

import numpy as np
import pytest

from cimsel.baselines import exhaustive_search, nsa, search_space_size
from cimsel.bench import (
    ExperimentPlan,
    sweep_lambda,
    time_trace,
    write_metric_rows,
    write_summary_json,
)
from cimsel.channel import MimoConfig, generate_channel
from cimsel.cim import CimParams
from cimsel.formulation import (
    constraint_coupling,
    constraint_system,
    constraint_violation,
    qubo_matrix,
    qubo_to_spin,
    augment_aux,
    squared_gains,
)
from oracles import (
    all_bit_vectors,
    all_spin_vectors,
    assignment_bits,
    feasible_assignments,
    trace_objective,
)

ACFG = MimoConfig(2, 2, 2)
ACC_SEED = 20250808
ACC_CIM = CimParams(steps=1000, n_anneals=200)
GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))


@pytest.fixture(scope="session")
def endpoint_sweep():
    plan = ExperimentPlan(
        config=ACFG, lambdas=(0.05, 0.95), cim=ACC_CIM, n_instances=100, master_seed=ACC_SEED
    )
    return plan, sweep_lambda(plan)


@pytest.fixture(scope="session")
def grid_sweep():
    plan = ExperimentPlan(
        config=ACFG, lambdas=GRID, cim=ACC_CIM, n_instances=100, master_seed=ACC_SEED + 1
    )
    return plan, sweep_lambda(plan)


@pytest.fixture(scope="session")
def lambda_star(grid_sweep):
    plan, sweep = grid_sweep
    summary = {(s.method, s.lam): s for s in sweep.summaries}
    qualifying = [
        lam
        for lam in plan.lambdas
        if summary[("cim_best", lam)].e_rho >= summary[("nsa", lam)].e_rho
        and summary[("cim_best", lam)].e_rho >= 0.95 * summary[("es", lam)].e_rho
    ]
    assert qualifying, "no penalty weight reaches near-optimality"
    # among qualifying weights take the best objective, ties toward the
    # larger weight (stronger constraint satisfaction)
    return max(qualifying, key=lambda lam: (summary[("cim_best", lam)].e_rho, lam))


@pytest.fixture(scope="session")
def star_trace(lambda_star):
    plan = ExperimentPlan(
        config=ACFG,
        lambdas=(lambda_star,),
        cim=ACC_CIM,
        n_instances=100,
        master_seed=ACC_SEED + 2,
        trace_stride=20,
    )
    return plan, time_trace(plan, lambda_star)


def test_criterion_1_oracle_equivalence(acceptance):
    bits = np.stack(all_bit_vectors(ACFG.d))          # (256, 8)
    spins = 2.0 * bits - 1.0
    aux_spins = np.hstack([np.ones((len(bits), 1)), spins])
    sys = constraint_system(ACFG)
    n_checked = 0
    for seed in range(50):
        g = generate_channel(ACFG, seed=1000 + seed)
        q = qubo_matrix(squared_gains(g))
        quad = np.einsum("ki,ij,kj->k", bits, q, bits)

        # feasible points: the binary form equals the explicit-matrix trace
        for sel in feasible_assignments(ACFG):
            b = assignment_bits(sel, ACFG)
            k = int(np.dot(b, 1 << np.arange(ACFG.d)[::-1]))  # row index in `bits`
            assert quad[k] == pytest.approx(trace_objective(g, sel), abs=1e-9)

        # every bit vector: violation equals the block-sum definition
        for k, b in enumerate(bits):
            block_sums = b.reshape(ACFG.n_antennas, ACFG.n_states).sum(axis=1)
            assert constraint_violation(b.astype(int), sys) == np.sum((block_sums - 1.0) ** 2)

        # spin and auxiliary-spin forms match up to tracked constants
        s_obj, q_obj, c_obj = qubo_to_spin(q, np.zeros(ACFG.d))
        j_obj_raw = augment_aux(s_obj, q_obj)
        spin_vals = np.einsum("ki,ij,kj->k", spins, s_obj, spins) + spins @ q_obj + c_obj
        aux_vals = np.einsum("ki,ij,kj->k", aux_spins, j_obj_raw, aux_spins) + c_obj
        assert np.allclose(spin_vals, quad, atol=1e-9)
        assert np.allclose(aux_vals, quad, atol=1e-9)

        s_con, q_con, c_con = qubo_to_spin(sys.r, -2.0 * np.ones(ACFG.d))
        j_con_raw = augment_aux(s_con, q_con)
        viol = np.array([constraint_violation(b.astype(int), sys) for b in bits])
        spin_con = (
            np.einsum("ki,ij,kj->k", spins, s_con, spins) + spins @ q_con + c_con + ACFG.n_antennas
        )
        aux_con = np.einsum("ki,ij,kj->k", aux_spins, j_con_raw, aux_spins) + c_con + ACFG.n_antennas
        assert np.allclose(spin_con, viol, atol=1e-9)
        assert np.allclose(aux_con, viol, atol=1e-9)
        n_checked += len(bits)
    acceptance("1 oracle equivalence", True, f"{n_checked} bit vectors over 50 instances")


def test_criterion_2_penalty_ground_states(acceptance):
    j_con = constraint_coupling(constraint_system(ACFG))
    spins = all_spin_vectors(ACFG.d + 1)
    vals = np.array([s @ j_con @ s for s in spins])
    minimum = vals.min()
    minimizers = {tuple(s) for s, v in zip(spins, vals) if v == minimum}
    expected = set()
    for sel in feasible_assignments(ACFG):
        s = 2 * assignment_bits(sel, ACFG) - 1
        expected.add((1, *s))
        expected.add((-1, *-s))
    strict_gap = min(v for v in vals if v != minimum) - minimum
    ok = minimizers == expected and strict_gap > 0
    acceptance(
        "2 penalty ground states", ok,
        f"{len(minimizers)} minimizers = 16 assignments x 2 gauges, gap {strict_gap:.3f}",
    )


def test_criterion_3_search_counts(acceptance):
    g444 = generate_channel(MimoConfig(4, 4, 4), seed=3)
    es_result = exhaustive_search(g444)
    nsa_444 = nsa(g444)
    g222 = generate_channel(ACFG, seed=3)
    nsa_222 = nsa(g222)
    ok = (
        es_result.evaluations == 65_536
        and es_result.evaluations == search_space_size(g444.config)
        and nsa_444.evaluations == 4 * (4 + 4)
        and nsa_222.evaluations == 2 * (2 + 2)
    )
    acceptance(
        "3 evaluation counts", ok,
        f"exhaustive {es_result.evaluations} == 65536; norm-based {nsa_444.evaluations} == 32",
    )


def test_criterion_4_endpoint_behavior(acceptance, endpoint_sweep):
    _, sweep = endpoint_sweep
    summary = {(s.method, s.lam): s for s in sweep.summaries}
    e_cim = summary[("cim_best", 0.05)].e_rho
    e_rs = summary[("rs", 0.05)].e_rho
    rel = abs(e_cim - e_rs) / e_rs
    pc_high = summary[("cim_best", 0.95)].p_c
    ok = rel <= 0.10 and pc_high >= 0.95
    acceptance(
        "4 endpoint behavior", ok,
        f"weight 0.05: E={e_cim:.3f} vs random {e_rs:.3f} ({100 * rel:.2f}% <= 10%); "
        f"weight 0.95: P_c={pc_high:.4f} >= 0.95",
    )


def test_criterion_5_near_optimality(acceptance, grid_sweep, lambda_star):
    _, sweep = grid_sweep
    summary = {(s.method, s.lam): s for s in sweep.summaries}
    best = summary[("cim_best", lambda_star)].e_rho
    es = summary[("es", lambda_star)].e_rho
    nsa_val = summary[("nsa", lambda_star)].e_rho
    ok = best >= nsa_val and best >= 0.95 * es
    acceptance(
        "5 near-optimality", ok,
        f"lambda*={lambda_star}: E={best:.4f} >= norm-based {nsa_val:.4f} "
        f"and >= 0.95 x exhaustive ({best / es:.4f} of optimum)",
    )


def test_criterion_6_steady_state(acceptance, star_trace, lambda_star):
    _, trace = star_trace
    rows = trace.step_summaries
    by_step = {s.step: s for s in rows}

    def spans(metric):
        tail = [getattr(by_step[k], metric) for k in sorted(by_step) if k >= 900]
        final = getattr(by_step[1000], metric)
        mid = getattr(by_step[500], metric)
        late = (max(tail) - min(tail)) / abs(final)
        settle = abs(final - mid) / abs(final)
        return late, settle

    results = {m: spans(m) for m in ("e_rho_best", "e_rho_avg", "p_c")}
    ok = all(late < 0.01 and settle < 0.05 for late, settle in results.values())
    detail = "; ".join(
        f"{m}: last-100-steps {100 * late:.3f}%, step-500 {100 * settle:.3f}%"
        for m, (late, settle) in results.items()
    )
    acceptance("6 steady state", ok, f"lambda*={lambda_star}; {detail}")


def test_criterion_7_worker_determinism(acceptance, tmp_path_factory):
    plan = ExperimentPlan(
        config=ACFG,
        lambdas=(0.2, 0.8),
        cim=CimParams(steps=200, n_anneals=20),
        n_instances=6,
        master_seed=ACC_SEED + 3,
    )
    out = tmp_path_factory.mktemp("determinism")
    paths = {}
    for workers in (1, 2):
        result = sweep_lambda(plan, workers=workers)
        csv_path = out / f"results_w{workers}.csv"
        json_path = out / f"summary_w{workers}.json"
        write_metric_rows(result.rows, csv_path)
        write_summary_json(result.summaries, json_path)
        paths[workers] = (csv_path, json_path)
    csv_equal = paths[1][0].read_bytes() == paths[2][0].read_bytes()
    json_equal = paths[1][1].read_bytes() == paths[2][1].read_bytes()
    ok = csv_equal and json_equal
    acceptance(
        "7 worker determinism", ok,
        f"results.csv {'identical' if csv_equal else 'DIFFER'} across 1 vs 2 workers",
    )


def test_criterion_8_dominance_invariants(acceptance, endpoint_sweep, grid_sweep, star_trace):
    checked = 0
    for _, sweep in (endpoint_sweep, grid_sweep):
        for record in sweep.records:
            assert record.es_objective is not None
            for res in record.cim.values():
                assert record.es_objective >= res.best >= res.avg
                assert record.es_objective >= record.nsa_objective
                assert record.es_objective >= record.rs_objective
                assert res.best >= record.rs_objective  # shared fallback draw
                assert 0.0 <= res.p_c <= 1.0
                checked += 1
    _, trace = star_trace
    for record in trace.records:
        for res in record.cim.values():
            assert np.all((res.trace_pc >= 0.0) & (res.trace_pc <= 1.0))
            assert np.all(res.trace_best >= res.trace_avg)
            assert np.all(record.es_objective >= res.trace_best)
            checked += 1
    for _, sweep in (endpoint_sweep, grid_sweep):
        for s in sweep.summaries:
            assert 0.0 <= s.p_c <= 1.0
    acceptance("8 dominance invariants", True, f"{checked} (instance, weight) records checked")
