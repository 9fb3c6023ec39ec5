import numpy as np
import pytest

from cimsel.channel import (
    ChannelFormatError,
    ChannelMatrix,
    ConfigAssignment,
    MimoConfig,
    generate_channel,
    objective,
    read_channel,
    score_states,
    write_channel,
)
from oracles import channel_from_amplitudes, feasible_assignments, trace_objective

CFG222 = MimoConfig(2, 2, 2)


class TestMimoConfig:
    def test_derived_sizes(self):
        cfg = MimoConfig(3, 2, 4)
        assert cfg.d == 4 * (3 + 2)
        assert cfg.rows == 4 * 2
        assert cfg.cols == 4 * 3
        assert cfg.n_antennas == 5

    @pytest.mark.parametrize(
        "bad",
        [dict(n_t=0), dict(n_r=0), dict(n_states=0), dict(n_t=-1),
         dict(n_t=True), dict(n_r=True), dict(n_states=False), dict(n_t=2.0),
         dict(n_t=np.bool_(True)), dict(n_t=np.float64(2.0)), dict(n_t=np.int64(0))],
    )
    def test_rejects_nonpositive_dimensions(self, bad):
        kwargs = dict(n_t=1, n_r=1, n_states=1)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            MimoConfig(**kwargs)


class TestConfigAssignment:
    @pytest.mark.parametrize("side", ["tx", "rx"])
    @pytest.mark.parametrize("bad,match", [
        (1.7, "must be an integer, got 1.7"),
        (True, "must be an integer, got True"),
        ("1", "must be an integer, got '1'"),
        (-1, "must be >= 0, got -1"),
    ])
    def test_rejects_non_integer_states(self, side, bad, match):
        # int() would truncate 1.7 and read True as state 1
        states = {"tx": (0, 0), "rx": (0, 0)} | {side: (0, bad)}
        with pytest.raises(ValueError, match=rf"{side}\[1\] {match}"):
            ConfigAssignment(**states)

    def test_numpy_integer_states_become_ints(self):
        sel = ConfigAssignment(tx=np.array([1, 0]), rx=(np.uint8(1), np.int64(0)))
        assert sel == ConfigAssignment(tx=(1, 0), rx=(1, 0))
        assert all(type(c) is int for c in sel.tx + sel.rx)


class TestGenerateChannel:
    def test_shape_and_determinism(self):
        g1 = generate_channel(CFG222, seed=7)
        g2 = generate_channel(CFG222, seed=7)
        assert g1.entries.shape == (4, 4)
        assert g1.entries.dtype == complex
        assert np.array_equal(g1.entries, g2.entries)
        assert not np.array_equal(g1.entries, generate_channel(CFG222, seed=8).entries)

    def test_smallest_case(self):
        g = generate_channel(MimoConfig(1, 1, 1), seed=0)
        assert g.entries.shape == (1, 1)

    def test_unit_power_moment(self):
        # one million draws: E|g|^2 = 1 for CN(0, 1)
        big = MimoConfig(50, 50, 10)
        samples = np.concatenate(
            [np.abs(generate_channel(big, seed=s).entries.ravel()) ** 2 for s in range(4)]
        )
        assert samples.size == 1_000_000
        assert 0.99 <= samples.mean() <= 1.01

    def test_real_imag_split_variance(self):
        g = generate_channel(MimoConfig(20, 20, 10), seed=3)
        assert np.var(g.entries.real) == pytest.approx(0.5, rel=0.05)
        assert np.var(g.entries.imag) == pytest.approx(0.5, rel=0.05)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            ChannelMatrix(config=CFG222, entries=np.zeros((3, 4), dtype=complex), seed=0)

    @pytest.mark.parametrize("seed,match", [
        (1.7, "seed must be an integer, got 1.7"),
        (True, "seed must be an integer, got True"),
        (-1, "seed must be >= 0, got -1"),
    ])
    def test_rejects_bad_seed(self, seed, match):
        # write_channel would write a seed that read_channel rejects
        with pytest.raises(ValueError, match=match):
            ChannelMatrix(config=CFG222, entries=np.zeros((4, 4), dtype=complex), seed=seed)
        with pytest.raises(ValueError, match=match):
            generate_channel(CFG222, seed)

    def test_rejects_non_finite(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[1, 2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            ChannelMatrix(config=CFG222, entries=bad, seed=0)


class TestObjective:
    def test_single_entry(self):
        g = channel_from_amplitudes([[2.0 + 0j]], n_t=1, n_r=1, n_states=1)
        assert objective(g, ConfigAssignment(tx=(0,), rx=(0,))) == 4.0

    def test_hand_double_sum(self):
        g = channel_from_amplitudes([[1.0, 0.0], [0.0, 2.0]], n_t=1, n_r=1, n_states=2)
        assert objective(g, ConfigAssignment(tx=(1,), rx=(1,))) == 4.0
        assert objective(g, ConfigAssignment(tx=(0,), rx=(0,))) == 1.0
        assert objective(g, ConfigAssignment(tx=(1,), rx=(0,))) == 0.0

    def test_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            g = generate_channel(CFG222, seed=seed)
            sel = ConfigAssignment(
                tx=tuple(rng.integers(0, 2, 2)), rx=tuple(rng.integers(0, 2, 2))
            )
            assert objective(g, sel) == pytest.approx(trace_objective(g, sel), rel=1e-12)

    def test_trace_identity_every_feasible_assignment(self):
        g = generate_channel(CFG222, seed=21)
        for sel in feasible_assignments(CFG222):
            assert objective(g, sel) == pytest.approx(trace_objective(g, sel), rel=1e-12)

    def test_permutation_invariance(self):
        g = generate_channel(CFG222, seed=9)
        sel = ConfigAssignment(tx=(0, 1), rx=(1, 0))
        base = objective(g, sel)
        # swap the two transmit antennas together with their column blocks
        perm_entries = g.entries[:, [2, 3, 0, 1]]
        g_perm = ChannelMatrix(config=CFG222, entries=perm_entries, seed=g.seed)
        sel_perm = ConfigAssignment(tx=(sel.tx[1], sel.tx[0]), rx=sel.rx)
        assert objective(g_perm, sel_perm) == base

    def test_expected_value_over_channels(self):
        # E[objective] = n_t * n_r for any fixed assignment under CN(0, 1)
        cfg = MimoConfig(2, 2, 2)
        sel = ConfigAssignment(tx=(0, 1), rx=(1, 0))
        n = 100_000
        vals = np.fromiter(
            (objective(generate_channel(cfg, seed=k), sel) for k in range(n)),
            dtype=float,
            count=n,
        )
        assert vals.mean() == pytest.approx(cfg.n_t * cfg.n_r, rel=0.02)

    def test_dimension_mismatch(self):
        g = generate_channel(CFG222, seed=0)
        with pytest.raises(ValueError):
            objective(g, ConfigAssignment(tx=(0,), rx=(0, 1)))

    def test_state_out_of_range(self):
        g = generate_channel(CFG222, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            objective(g, ConfigAssignment(tx=(0, 2), rx=(0, 1)))

    def test_objective_matches_batch_scorer(self):
        g = generate_channel(MimoConfig(2, 3, 3), seed=4)
        sels = list(feasible_assignments(g.config))
        batch = score_states(g, np.array([sel.tx + sel.rx for sel in sels]))
        assert batch.tolist() == [objective(g, sel) for sel in sels]


class TestChannelFile:
    def test_round_trip(self, tmp_path):
        g = generate_channel(CFG222, seed=42)
        path = tmp_path / "channel.json"
        write_channel(g, path)
        back = read_channel(path)
        assert back.config == g.config
        assert back.seed == g.seed
        assert np.array_equal(back.entries, g.entries)

    def test_missing_field_named(self, tmp_path):
        import json

        g = generate_channel(CFG222, seed=1)
        path = tmp_path / "channel.json"
        write_channel(g, path)
        raw = json.loads(path.read_text())
        del raw["n_states"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ChannelFormatError, match="n_states"):
            read_channel(path)

    def test_dimension_validation(self, tmp_path):
        import json

        g = generate_channel(CFG222, seed=1)
        path = tmp_path / "channel.json"
        write_channel(g, path)
        raw = json.loads(path.read_text())
        raw["entries"] = raw["entries"][:-1]
        path.write_text(json.dumps(raw))
        with pytest.raises(ChannelFormatError, match="entries"):
            read_channel(path)
