"""Exact symmetries of the problem as oracles that need no reference run.

Each check runs the code twice, on an input and on its image under a
symmetry, and asks for the image of the first output: bit for bit where
the symmetry keeps every sum's order, to rounding where it does not.
"""

import numpy as np
import pytest

from cimsel.baselines import exhaustive_search
from cimsel.bench import run_instance
from cimsel.channel import ChannelMatrix, MimoConfig, generate_channel
from cimsel.cim import CimParams, _integrate
from cimsel.formulation import compile_instance
from cimsel.rng import substream


@pytest.mark.parametrize("params", [CimParams(n_anneals=100),
                                    CimParams(beta=-1.0, dt=0.015, steps=835, n_anneals=40)],
                         ids=["defaults", "aborting"])
@pytest.mark.parametrize("dims,seed,lam", [((2, 2, 2), 5, 0.7), ((4, 4, 4), 3, 0.8)])
def test_gauge_flip_of_spins(dims, seed, lam, params):
    # J' = S J S and x0' = x0 S for a random +-1 diagonal S: every term of
    # a coupling sum flips with its spin, and negation rounds exactly, so
    # every step of x' is x S, its skipped passes included
    jm = compile_instance(generate_channel(MimoConfig(*dims), seed=seed), lam).j
    rng = substream(11, jm.shape[0])
    s = rng.choice([-1.0, 1.0], jm.shape[0])
    x0 = rng.uniform(-params.init_scale, params.init_scale, (params.n_anneals, len(s)))
    x, aborted = _integrate(jm, x0.copy(), params)
    x_flip, aborted_flip = _integrate(s[:, None] * jm * s, x0 * s, params)
    assert jm.shape[0] in (9, 33) and (s < 0).any() and (s > 0).any()
    assert aborted_flip.tolist() == aborted.tolist()
    # an aborted row is zero either way, +0.0 against -0.0 under the flip
    live = ~aborted
    assert x_flip[live].tobytes() == (x * s)[live].tobytes()
    assert aborted.any() == (params.beta < 0)


@pytest.mark.parametrize("dims,seed,lam", [((2, 2, 2), 7, 0.6), ((4, 4, 4), 2, 0.7)])
def test_channel_scale_by_two(dims, seed, lam):
    # scaling by 2 is exact, every gain |g|^2 becomes exactly 4x, and the
    # compiler's normalisation cancels it bit for bit
    g = generate_channel(MimoConfig(*dims), seed=seed)
    g2 = ChannelMatrix(config=g.config, entries=2.0 * g.entries, seed=g.seed)
    assert compile_instance(g2, lam).j.tobytes() == compile_instance(g, lam).j.tobytes()
    params = CimParams(steps=300, n_anneals=100)
    res, res2 = run_instance(g, lam, params, seed=1), run_instance(g2, lam, params, seed=1)
    assert (res2.best, res2.avg) == (4.0 * res.best, 4.0 * res.avg)
    assert res2.best_assignment == res.best_assignment and res2.p_c == res.p_c
    es, es2 = exhaustive_search(g), exhaustive_search(g2)
    assert es2.objective == 4.0 * es.objective and es2.assignment == es.assignment


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("dims", [(4, 4, 4), (2, 3, 2), (3, 2, 3), (2, 2, 2), (1, 3, 4)])
def test_transpose_swaps_tx_and_rx(dims, seed):
    # swapping the roles of transmit and receive transposes the channel: the
    # optimum is the same assignment with tx and rx exchanged; the scorer adds
    # the transposed block in another order, so the objective agrees only to
    # rounding
    g = generate_channel(MimoConfig(*dims), seed=seed)
    n_t, n_r, n_states = dims
    gt = ChannelMatrix(config=MimoConfig(n_r, n_t, n_states), entries=g.entries.T.copy(),
                       seed=g.seed)
    es, es_t = exhaustive_search(g), exhaustive_search(gt)
    assert (es_t.assignment.tx, es_t.assignment.rx) == (es.assignment.rx, es.assignment.tx)
    assert es_t.objective == pytest.approx(es.objective, rel=1e-12, abs=0)
