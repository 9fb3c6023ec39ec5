import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cimsel import baselines
from cimsel.baselines import (
    BudgetExceededError,
    exhaustive_search,
    nsa,
    random_selection,
    search_space_size,
)
from cimsel.channel import ConfigAssignment, MimoConfig, generate_channel, objective
from cimsel.rng import substream
from oracles import brute_force_best, channel_from_amplitudes, feasible_assignments

CFG222 = MimoConfig(2, 2, 2)


# receive side enumerated: rx (0,) is visited first, but the tie with rx (1,)
# goes to its smaller tx (0, 0)
RX_SIDE_TIE = channel_from_amplitudes([[0, 1, 1, 0], [1, 0, 1, 0]], n_t=2, n_r=1, n_states=2)
# the row sums rank tx (1, 1, 1), rx (1, 1) first; the scorer ranks
# tx (0, 1, 1), rx (1, 0) level with it, and that tuple is smaller
NEAR_TIE = channel_from_amplitudes(
    0.7 * np.array([[1, 1, 2, 0, 1, 2], [0, 1, 1, 3, 1, 2], [3, 2, 0, 0, 2, 3], [0, 2, 2, 2, 1, 3]]),
    n_t=3, n_r=2, n_states=2,
)


def first_scorer_maximum(g):
    """``(objective, assignment)`` of the first scorer maximum, by a plain
    loop over every assignment in lexicographic order."""
    best_val, best_sel = -np.inf, None
    for sel in feasible_assignments(g.config):
        val = objective(g, sel)
        if val > best_val:
            best_val, best_sel = val, sel
    return best_val, best_sel


@st.composite
def tie_prone_channels(draw):
    """Channels of small-integer amplitudes, which tie exactly, or the same
    scaled by 0.3 or 0.7, whose gains round so that sums near-tie in the last
    bits; either side may be the smaller, with 1-3 states per antenna."""
    n_t, n_r, n_states = (draw(st.integers(1, 3)) for _ in range(3))
    rows, cols = n_states * n_r, n_states * n_t
    cells = draw(st.lists(st.integers(0, 3), min_size=rows * cols, max_size=rows * cols))
    scale = draw(st.sampled_from([1.0, 0.3, 0.7]))
    amps = np.array(cells, dtype=float).reshape(rows, cols) * scale
    return channel_from_amplitudes(amps, n_t=n_t, n_r=n_r, n_states=n_states)


class TestExhaustiveSearch:
    def test_evaluation_count_4_4_4(self):
        g = generate_channel(MimoConfig(4, 4, 4), seed=1)
        result = exhaustive_search(g)
        assert result.evaluations == 65_536
        assert result.evaluations == search_space_size(g.config)

    def test_single_state_sums_all_gains(self):
        g = generate_channel(MimoConfig(3, 2, 1), seed=5)
        result = exhaustive_search(g)
        assert result.assignment == ConfigAssignment(tx=(0, 0, 0), rx=(0, 0))
        assert result.objective == pytest.approx(np.sum(np.abs(g.entries) ** 2), rel=1e-12)
        assert result.evaluations == 1

    def test_hand_instance(self):
        g = channel_from_amplitudes([[1.0, 0.0], [0.0, 2.0]], n_t=1, n_r=1, n_states=2)
        result = exhaustive_search(g)
        assert result.assignment == ConfigAssignment(tx=(1,), rx=(1,))
        assert result.objective == 4.0
        assert result.evaluations == 4

    def test_matches_plain_loop_oracle(self):
        for seed in range(8):
            g = generate_channel(CFG222, seed=seed)
            result = exhaustive_search(g)
            best_val, _ = brute_force_best(g)
            assert result.objective == pytest.approx(best_val, rel=1e-12)
            assert objective(g, result.assignment) == pytest.approx(best_val, rel=1e-12)

    @pytest.mark.parametrize("dims,n_instances", [((2, 2, 2), 500), ((3, 3, 3), 50)])
    def test_reports_first_scorer_maximum(self, dims, n_instances):
        # the factored ranking must land on the assignment the scorer ranks
        # first, with its objective bit for bit, including the tie-break
        cfg = MimoConfig(*dims)
        sels = list(feasible_assignments(cfg))
        for seed in range(n_instances):
            g = generate_channel(cfg, seed=seed)
            vals = [objective(g, sel) for sel in sels]
            best = max(vals)
            result = exhaustive_search(g)
            assert result.objective == best
            assert result.assignment == sels[vals.index(best)]

    def test_budget_guard_names_count(self):
        g = generate_channel(MimoConfig(4, 4, 4), seed=0)
        with pytest.raises(BudgetExceededError, match="65536"):
            exhaustive_search(g, budget=1000)

    def test_lexicographic_tie_break(self):
        # every assignment ties exactly; the smallest (tx, rx) tuple wins
        g = channel_from_amplitudes(np.ones((4, 4), dtype=complex), n_t=2, n_r=2, n_states=2)
        result = exhaustive_search(g)
        assert result.assignment == ConfigAssignment(tx=(0, 0), rx=(0, 0))

    @given(g=tie_prone_channels())
    @example(g=channel_from_amplitudes(np.ones((6, 4)), n_t=2, n_r=3, n_states=2))
    @example(g=channel_from_amplitudes(np.ones((3, 9)), n_t=3, n_r=1, n_states=3))
    @example(g=channel_from_amplitudes(np.full((6, 6), 0.3), n_t=2, n_r=2, n_states=3))
    @example(g=RX_SIDE_TIE)
    @example(g=NEAR_TIE)
    def test_equals_first_maximum_of_plain_loop(self, g):
        best_val, best_sel = first_scorer_maximum(g)
        result = exhaustive_search(g)
        assert result.assignment == best_sel
        assert result.objective == best_val
        assert result.evaluations == search_space_size(g.config)

    def test_one_combination_per_chunk(self, monkeypatch):
        # every chunk and every scoring batch holds one row, so ties are
        # decided across chunks and batches, on either enumerated side
        monkeypatch.setattr(baselines, "_CHUNK_CELLS", 1)
        channels = [RX_SIDE_TIE, NEAR_TIE]
        rng = np.random.default_rng(5)
        for n_t, n_r in ((1, 3), (2, 2), (3, 1), (3, 2)):
            for scale in (1.0, 0.7):
                amps = rng.integers(0, 3, (2 * n_r, 2 * n_t)) * scale
                channels.append(channel_from_amplitudes(amps, n_t=n_t, n_r=n_r, n_states=2))
        for g in channels:
            result = exhaustive_search(g)
            assert (result.objective, result.assignment) == first_scorer_maximum(g)

    @pytest.mark.parametrize("dims,limit_mb", [((4, 4, 4), 0.5), ((4, 4, 8), 16)])
    def test_peak_memory(self, dims, limit_mb):
        # one side's combinations times the other side's row sums, not a
        # block over every (tx, rx) pair
        g = generate_channel(MimoConfig(*dims), seed=3)
        tracemalloc.start()
        try:
            exhaustive_search(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 1e6

    def test_permutation_of_states(self):
        g = generate_channel(CFG222, seed=12)
        base = exhaustive_search(g)
        # permute configuration indices of every antenna (swap the two states)
        perm = [1, 0, 3, 2]
        g_perm = channel_from_amplitudes(
            g.entries[np.ix_(perm, perm)], n_t=2, n_r=2, n_states=2, seed=g.seed
        )
        swapped = exhaustive_search(g_perm)
        assert swapped.objective == pytest.approx(base.objective, rel=1e-12)
        assert swapped.assignment.tx == tuple(1 - c for c in base.assignment.tx)
        assert swapped.assignment.rx == tuple(1 - c for c in base.assignment.rx)


class TestNsa:
    def test_hand_instance(self):
        g = channel_from_amplitudes([[1.0, 0.0], [0.0, 2.0]], n_t=1, n_r=1, n_states=2)
        result = nsa(g)
        assert result.assignment == ConfigAssignment(tx=(1,), rx=(1,))
        assert result.objective == 4.0
        assert result.evaluations == 2 * (1 + 1)

    def test_suboptimal_instance(self):
        # row norms prefer the second receive configuration, which locks the
        # heuristic out of the best single entry
        g = channel_from_amplitudes([[3.0, 0.0], [2.8, 2.9]], n_t=1, n_r=1, n_states=2)
        result = nsa(g)
        assert result.assignment == ConfigAssignment(tx=(1,), rx=(1,))
        assert result.objective == pytest.approx(8.41)
        assert exhaustive_search(g).objective == pytest.approx(9.0)

    def test_suboptimal_instance_tied_columns(self):
        g = channel_from_amplitudes([[3.0, 0.0], [2.9, 2.9]], n_t=1, n_r=1, n_states=2)
        result = nsa(g)
        assert result.assignment.rx == (1,)
        assert result.objective == pytest.approx(8.41)  # below the optimum of 9

    def test_single_state_equals_exhaustive(self):
        g = generate_channel(MimoConfig(2, 3, 1), seed=2)
        assert nsa(g).objective == pytest.approx(exhaustive_search(g).objective, rel=1e-12)

    def test_evaluation_count(self):
        for cfg in (CFG222, MimoConfig(4, 4, 4), MimoConfig(1, 3, 5)):
            g = generate_channel(cfg, seed=0)
            assert nsa(g).evaluations == cfg.n_states * (cfg.n_t + cfg.n_r)

    def test_never_beats_exhaustive(self):
        for seed in range(20):
            g = generate_channel(CFG222, seed=seed)
            assert nsa(g).objective <= exhaustive_search(g).objective


class TestRandomSelection:
    def test_single_state(self):
        g = generate_channel(MimoConfig(2, 2, 1), seed=0)
        result = random_selection(g, substream(0))
        assert result.assignment == ConfigAssignment(tx=(0, 0), rx=(0, 0))
        assert result.evaluations == 0

    def test_seeded_reproducibility(self):
        g = generate_channel(CFG222, seed=1)
        a = random_selection(g, substream(9))
        b = random_selection(g, substream(9))
        assert a.assignment == b.assignment
        assert a.objective == b.objective

    def test_objective_from_scorer(self):
        g = generate_channel(CFG222, seed=1)
        scored = random_selection(g, substream(0))
        assert scored.objective == objective(g, scored.assignment)
        # the draw depends on the stream only, not on the channel's entries
        other = random_selection(generate_channel(CFG222, seed=2), substream(0))
        assert other.assignment == scored.assignment

    def test_never_beats_exhaustive(self):
        for seed in range(20):
            g = generate_channel(CFG222, seed=seed)
            rs = random_selection(g, substream(100, seed))
            assert rs.objective <= exhaustive_search(g).objective

    def test_expected_objective(self):
        # E[objective] = n_t * n_r under unit-power fading, any selection rule
        n = 100_000
        rng = substream(7)
        total = 0.0
        for k in range(n):
            g = generate_channel(CFG222, seed=k)
            total += random_selection(g, rng).objective
        assert total / n == pytest.approx(CFG222.n_t * CFG222.n_r, rel=0.02)
