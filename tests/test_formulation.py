import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cimsel.channel import ConfigAssignment, MimoConfig, generate_channel, objective
from cimsel.formulation import (
    InfeasibleDecode,
    IsingInstance,
    augment_aux,
    compile_instance,
    constraint_coupling,
    constraint_system,
    constraint_violation,
    decode_spins,
    decode_states,
    instance_to_json,
    normalize_couplings,
    objective_coupling,
    qubo_matrix,
    qubo_to_spin,
    squared_gains,
    write_instance,
)
from oracles import (
    all_bit_vectors,
    all_spin_vectors,
    assignment_bits,
    binary_objective,
    brute_force_best,
    channel_from_amplitudes,
    feasible_assignments,
    read_instance,
    violation_quadratic,
)

CFG222 = MimoConfig(2, 2, 2)


def spin_encodings(bits):
    """Both gauge representatives of a bit vector as full spin vectors."""
    s = 2 * np.asarray(bits) - 1
    return [np.concatenate(([1], s)), np.concatenate(([-1], -s))]


class TestSquaredGains:
    def test_single_imaginary_entry(self):
        g = channel_from_amplitudes([[2j]], n_t=1, n_r=1, n_states=1)
        assert squared_gains(g) == pytest.approx(np.array([[4.0]]))

    def test_transposed_indexing(self):
        entries = np.zeros((2, 2), dtype=complex)
        entries[0, 1] = 3.0  # row 0, col 1
        g = channel_from_amplitudes(entries, n_t=1, n_r=1, n_states=2)
        t = squared_gains(g)
        assert t[1][0] == 9.0
        assert t.shape == (2, 2)

    def test_zero_channel(self):
        g = channel_from_amplitudes(np.zeros((2, 4), dtype=complex), n_t=2, n_r=1, n_states=2)
        assert not squared_gains(g).any()


class TestQuboMatrix:
    def test_direct_substitution(self):
        q = qubo_matrix(np.array([[4.0]]))
        assert np.array_equal(q, [[0.0, 2.0], [2.0, 0.0]])

    def test_structure(self):
        t = np.arange(12, dtype=float).reshape(4, 3)
        q = qubo_matrix(t)
        assert q.shape == (7, 7)
        assert np.array_equal(q, q.T)
        assert not np.diagonal(q).any()
        assert not q[:4, :4].any() and not q[4:, 4:].any()

    def test_hand_expansion(self):
        q = qubo_matrix(np.array([[4.0]]))
        assert binary_objective(q, [1, 1]) == 4.0
        assert binary_objective(q, [1, 0]) == 0.0


class TestBinaryObjective:
    def test_zero_vector(self):
        q = qubo_matrix(np.array([[4.0]]))
        assert binary_objective(q, [0, 0]) == 0.0

    def test_matches_channel_objective_on_feasible_points(self):
        g = generate_channel(CFG222, seed=3)
        q = qubo_matrix(squared_gains(g))
        count = 0
        for sel in feasible_assignments(CFG222):
            b = assignment_bits(sel, CFG222)
            assert binary_objective(q, b) == pytest.approx(objective(g, sel), rel=1e-12)
            count += 1
        assert count == 16


class TestConstraintViolation:
    def test_feasible_is_zero(self):
        sys = constraint_system(CFG222)
        for sel in feasible_assignments(CFG222):
            assert constraint_violation(assignment_bits(sel, CFG222), sys) == 0.0

    def test_single_block_double_activation(self):
        sys = constraint_system(MimoConfig(1, 1, 2))
        assert constraint_violation([1, 1, 1, 0], sys) == 1.0

    def test_all_zero_bits(self):
        sys = constraint_system(CFG222)
        assert constraint_violation(np.zeros(8, dtype=int), sys) == CFG222.n_antennas

    def test_zero_iff_one_hot_exhaustive_d12(self):
        cfg = MimoConfig(3, 3, 2)  # d = 12
        sys = constraint_system(cfg)
        for b in all_bit_vectors(cfg.d):
            one_hot = all(b[k * 2 : (k + 1) * 2].sum() == 1 for k in range(cfg.n_antennas))
            assert (constraint_violation(b, sys) == 0.0) == one_hot

    def test_equals_quadratic_form_exhaustive(self):
        sys = constraint_system(CFG222)
        for b in all_bit_vectors(CFG222.d):
            assert constraint_violation(b, sys) == pytest.approx(
                violation_quadratic(b, sys.r, sys.n_blocks), abs=1e-12
            )

    def test_block_structure(self):
        sys = constraint_system(MimoConfig(2, 1, 3))
        assert np.count_nonzero(sys.r) == sys.n_blocks * sys.n_states ** 2
        assert np.array_equal(sys.r.sum(axis=1), np.full(9, 3.0))


class TestQuboToSpin:
    def test_hand_example(self):
        s_mat, s_lin, const = qubo_to_spin(np.array([[0.0, 2.0], [2.0, 0.0]]), np.zeros(2))
        assert np.array_equal(s_mat, [[0.0, 0.5], [0.5, 0.0]])
        assert np.array_equal(s_lin, [1.0, 1.0])
        assert const == 1.0
        s = np.array([1.0, 1.0])
        assert s @ s_mat @ s + s_lin @ s + const == 4.0

    @pytest.mark.parametrize("n_states", [2, 3, 5])
    def test_constraint_linear_coefficients(self, n_states):
        cfg = MimoConfig(2, 2, n_states)
        sys = constraint_system(cfg)
        _, s_lin, _ = qubo_to_spin(sys.r, -2.0 * np.ones(cfg.d))
        assert np.allclose(s_lin, n_states / 2.0 - 1.0)

    def test_zero_input(self):
        s_mat, s_lin, const = qubo_to_spin(np.zeros((3, 3)), np.zeros(3))
        assert not s_mat.any() and not s_lin.any() and const == 0.0

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
    def test_affine_equivalence_exhaustive(self, seed, d):
        rng = np.random.default_rng(seed)
        qlike = rng.normal(size=(d, d))
        qlike = qlike + qlike.T
        linear = rng.normal(size=d)
        s_mat, s_lin, const = qubo_to_spin(qlike, linear)
        for s in all_spin_vectors(d):
            b = (s + 1) / 2.0
            lhs = b @ qlike @ b + linear @ b
            rhs = s @ s_mat @ s + s_lin @ s + const
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_end_to_end_equivalence_on_instance_qubo(self):
        g = generate_channel(CFG222, seed=11)
        q = qubo_matrix(squared_gains(g))
        s_mat, s_lin, const = qubo_to_spin(q, np.zeros(CFG222.d))
        for s in all_spin_vectors(CFG222.d):
            b = (s + 1) / 2.0
            assert s @ s_mat @ s + s_lin @ s + const == pytest.approx(
                binary_objective(q, b.astype(int)), abs=1e-12
            )


class TestAugmentAux:
    def test_pure_linear(self):
        m = augment_aux(np.zeros((2, 2)), np.array([1.0, 1.0]))
        assert np.array_equal(
            m, [[0.0, 0.5, 0.5], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]]
        )

    def test_identity_under_positive_aux(self):
        rng = np.random.default_rng(0)
        d = 4
        s_mat = rng.normal(size=(d, d))
        s_mat = s_mat + s_mat.T
        s_lin = rng.normal(size=d)
        m = augment_aux(s_mat, s_lin)
        for s in all_spin_vectors(d):
            for aux in (1, -1):
                s0 = np.concatenate(([aux], s))
                expected = s @ s_mat @ s + aux * (s_lin @ s)
                assert s0 @ m @ s0 == pytest.approx(expected, abs=1e-9)

    def test_global_flip_invariance(self):
        m = augment_aux(np.eye(3) * 0.0, np.array([1.0, -2.0, 0.5]))
        rng = np.random.default_rng(1)
        s0 = rng.choice([-1.0, 1.0], size=4)
        assert s0 @ m @ s0 == (-s0) @ m @ (-s0)


class TestNormalize:
    def test_zero_diag_then_scale(self):
        out = normalize_couplings(np.array([[5.0, 2.0], [2.0, 0.0]]))
        assert np.array_equal(out, [[0.0, 1.0], [1.0, 0.0]])

    def test_idempotent(self):
        m = np.array([[0.0, -1.0, 0.25], [-1.0, 0.0, 0.5], [0.25, 0.5, 0.0]])
        assert np.array_equal(normalize_couplings(m), m)

    def test_zero_matrix_unchanged(self):
        assert not normalize_couplings(np.zeros((3, 3))).any()
        assert not normalize_couplings(np.diag([1.0, 2.0])).any()

    def test_argmax_preserved_exhaustive(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            d = 6
            m = rng.normal(size=(d, d))
            m = m + m.T
            out = normalize_couplings(m)
            spins = all_spin_vectors(d)
            vals_before = np.array([s @ m @ s for s in spins])
            vals_after = np.array([s @ out @ s for s in spins])
            best_before = set(np.flatnonzero(vals_before == vals_before.max()))
            best_after = set(np.flatnonzero(np.isclose(vals_after, vals_after.max(), atol=1e-12)))
            assert best_before == best_after


class TestCompile:
    def test_blend_endpoints(self):
        g = generate_channel(CFG222, seed=2)
        j_obj = objective_coupling(qubo_matrix(squared_gains(g)))
        j_con = constraint_coupling(constraint_system(CFG222))
        assert np.array_equal(compile_instance(g, 0.0).j, j_obj)
        assert np.array_equal(compile_instance(g, 1.0).j, -j_con)

    def test_rejects_out_of_range_weight(self):
        g = generate_channel(CFG222, seed=2)
        for lam in (-0.01, 1.01):
            with pytest.raises(ValueError):
                compile_instance(g, lam)

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_instance_invariants(self, lam):
        g = generate_channel(CFG222, seed=13)
        inst = compile_instance(g, lam)
        assert inst.j.shape == (9, 9)
        assert np.array_equal(inst.j, inst.j.T)
        assert not np.diagonal(inst.j).any()
        assert np.max(np.abs(inst.j)) <= 1.0 + 1e-12
        assert inst.channel_seed == g.seed

    def test_normalized_parts_reach_unit_magnitude(self):
        g = generate_channel(CFG222, seed=13)
        j_obj = objective_coupling(qubo_matrix(squared_gains(g)))
        j_con = constraint_coupling(constraint_system(CFG222))
        assert np.max(np.abs(j_obj)) == 1.0
        assert np.max(np.abs(j_con)) == 1.0

    def test_penalty_ground_states_are_feasible_set(self):
        # brute force over all 2^9 spin vectors at (2, 2, 2)
        j_con = constraint_coupling(constraint_system(CFG222))
        spins = all_spin_vectors(9)
        vals = np.array([s @ j_con @ s for s in spins])
        minimum = vals.min()
        minimizers = {tuple(spins[i]) for i in np.flatnonzero(vals == minimum)}
        expected = set()
        for sel in feasible_assignments(CFG222):
            for s0 in spin_encodings(assignment_bits(sel, CFG222)):
                expected.add(tuple(s0))
        assert minimizers == expected
        # strict separation: every infeasible encoding sits strictly above
        infeasible_vals = vals[[i for i, s in enumerate(spins) if tuple(s) not in expected]]
        assert infeasible_vals.min() > minimum

    def test_argmax_consistency_with_exhaustive_search(self):
        # per instance, some weight makes the global spin argmax decode to
        # the exhaustive optimum; verified by brute force, not assumed
        spins = all_spin_vectors(9)
        for seed in range(5):
            g = generate_channel(CFG222, seed=seed)
            best_val, best_sel = brute_force_best(g)
            found = False
            for lam in np.linspace(0.05, 0.95, 19):
                inst = compile_instance(g, lam)
                vals = np.array([s @ inst.j @ s for s in spins])
                top = spins[int(np.argmax(vals))]
                decoded = decode_spins(top, CFG222)
                if isinstance(decoded, InfeasibleDecode):
                    continue
                if objective(g, decoded) == pytest.approx(best_val, rel=1e-12):
                    found = True
                    break
            assert found, f"seed {seed}: no weight recovers the exhaustive optimum"

    def test_structural_operation_counts(self):
        # penalty work is one all-ones block per antenna; objective work is
        # one dense coupling matrix
        for cfg in (CFG222, MimoConfig(3, 2, 4)):
            sys = constraint_system(cfg)
            assert np.count_nonzero(sys.r) == cfg.n_antennas * cfg.n_states ** 2
            g = generate_channel(cfg, seed=0)
            inst = compile_instance(g, 0.5)
            assert inst.j.size == (cfg.d + 1) ** 2


class TestDecode:
    def test_hand_example(self):
        cfg = MimoConfig(1, 1, 2)
        sel = decode_spins(np.array([1, 1, -1, -1, 1]), cfg)
        assert sel == ConfigAssignment(tx=(0,), rx=(1,))

    def test_gauge_symmetry_hand(self):
        cfg = MimoConfig(1, 1, 2)
        s0 = np.array([1, 1, -1, -1, 1])
        assert decode_spins(s0, cfg) == decode_spins(-s0, cfg)

    @given(st.lists(st.sampled_from([-1, 1]), min_size=9, max_size=9))
    def test_gauge_symmetry_property(self, spins):
        s0 = np.array(spins)
        a = decode_spins(s0, CFG222)
        b = decode_spins(-s0, CFG222)
        if isinstance(a, InfeasibleDecode):
            assert isinstance(b, InfeasibleDecode)
            assert np.array_equal(a.bits, b.bits)
        else:
            assert a == b

    def test_all_plus_one_is_infeasible(self):
        out = decode_spins(np.ones(9, dtype=int), CFG222)
        assert isinstance(out, InfeasibleDecode)
        assert np.array_equal(out.bits, np.ones(8, dtype=int))
        assert out.violation == CFG222.n_antennas  # each block sums to 2

    def test_round_trip_all_feasible(self):
        for sel in feasible_assignments(CFG222):
            bits = assignment_bits(sel, CFG222)
            for s0 in spin_encodings(bits):
                assert decode_spins(s0, CFG222) == sel

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            decode_spins(np.ones(8, dtype=int), CFG222)
        with pytest.raises(ValueError):
            decode_spins(np.array([1, 1, -1, -1, 2, 1, 1, 1, 1]), CFG222)

    def test_agrees_with_batch_decoder(self):
        spins = all_spin_vectors(9)
        batch_feasible, batch_states = decode_states(np.stack(spins), CFG222)
        assert batch_feasible.sum() == 2 * len(list(feasible_assignments(CFG222)))
        for k, s0 in enumerate(spins):
            feasible, states = decode_states(s0[None, :], CFG222)
            assert feasible[0] == batch_feasible[k]
            decoded = decode_spins(s0, CFG222)
            if feasible[0]:
                assert np.array_equal(states[0], batch_states[k])
                assert decoded == ConfigAssignment(tx=states[0, :2], rx=states[0, 2:])
            else:
                assert isinstance(decoded, InfeasibleDecode)
                assert decoded.violation > 0


class TestInstanceExport:
    def test_json_round_trip(self, tmp_path):
        g = generate_channel(CFG222, seed=77)
        inst = compile_instance(g, 0.35)
        path = tmp_path / "instance.json"
        write_instance(inst, path)
        j, lam = read_instance(path)
        assert lam == 0.35
        assert np.array_equal(j, inst.j)

    def test_payload_shape(self):
        g = generate_channel(CFG222, seed=77)
        payload = instance_to_json(compile_instance(g, 0.5))
        assert payload["dim"] == 9
        assert len(payload["j"]) == 9 * 10 // 2


class TestIsingInstanceValidation:
    def test_rejects_asymmetric(self):
        j = np.zeros((9, 9))
        j[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            IsingInstance(j=j, lam=0.5, config=CFG222, channel_seed=0)

    def test_rejects_nonzero_diagonal(self):
        j = np.zeros((9, 9))
        j[2, 2] = 0.1
        with pytest.raises(ValueError, match="diagonal"):
            IsingInstance(j=j, lam=0.5, config=CFG222, channel_seed=0)

    def test_rejects_oversized_entries(self):
        j = np.zeros((9, 9))
        j[0, 1] = j[1, 0] = 1.5
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            IsingInstance(j=j, lam=0.5, config=CFG222, channel_seed=0)
