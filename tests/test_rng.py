"""The vectorised start table against the one-generator-per-stream loop.

``uniform_table`` reproduces numpy's SeedSequence mixing, PCG64 seeding and
steps and ``Generator.uniform`` in integer array arithmetic; every check
here compares its bytes with a loop over ``substream`` generators, so a
numpy release that changes either generator fails here instead of moving
solver outputs.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cimsel import rng
from cimsel.bench import cim_master_seed
from cimsel.rng import substream, uniform_table
from oracles import substream_table

SEEDS = [0, 1, 12345, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 5, 2**200 + 7,
         cim_master_seed(0), cim_master_seed(1001)]


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_streams,size", [(1000, 9), (1000, 33), (1, 2), (37, 65)])
@pytest.mark.parametrize("scale", [0.01, 0.5, 3.0])
def test_matches_substream_loop(seed, n_streams, size, scale):
    table = uniform_table(seed, n_streams, -scale, scale, size)
    assert _same_bytes(table, substream_table(seed, n_streams, -scale, scale, size))


@pytest.mark.parametrize("size", range(2, 66))
def test_every_dimension(size):
    seed = cim_master_seed(size)
    assert _same_bytes(uniform_table(seed, 5, -0.01, 0.01, size),
                       substream_table(seed, 5, -0.01, 0.01, size))


@given(seed=st.integers(0, 2**130), n_streams=st.integers(0, 40), size=st.integers(0, 70),
       low=st.floats(-1e3, 1e3), width=st.floats(0.0, 1e3))
def test_property_matches_substream_loop(seed, n_streams, size, low, width):
    high = low + width
    table = uniform_table(seed, n_streams, low, high, size)
    expected = np.array([substream(seed, k).uniform(low, high, size) for k in range(n_streams)])
    assert _same_bytes(table, expected.reshape(n_streams, size))


def test_largest_spawn_keys():
    # keys up to 2**32 - 1 are one 32-bit word, as SeedSequence stores them
    keys = np.array([2**32 - 1, 2**31, 2**16 + 3], dtype=np.uint32)
    rows = rng._uniform_rows(77, keys, -0.5, 0.5, 7)
    expected = np.stack([substream(77, int(k)).uniform(-0.5, 0.5, 7) for k in keys])
    assert _same_bytes(rows, expected)


class _NoNumpy:
    def __getattr__(self, name):
        raise RuntimeError(f"numpy.{name} used before the input check")


@pytest.mark.parametrize("n_streams", [2**32 + 1, 2**64, -1])
def test_rejects_stream_counts_before_allocating(monkeypatch, n_streams):
    monkeypatch.setattr(rng, "np", _NoNumpy())
    with pytest.raises(ValueError, match="n_streams"):
        uniform_table(0, n_streams, -0.01, 0.01, 9)


@pytest.mark.parametrize("kwargs,exc", [
    (dict(master_seed=-1), ValueError),
    (dict(size=-1), ValueError),
    (dict(n_streams=2.0), TypeError),
    (dict(low=-1e308, high=1e308), OverflowError),
])
def test_rejects_bad_arguments(kwargs, exc):
    args = dict(master_seed=0, n_streams=3, low=-0.01, high=0.01, size=4) | kwargs
    with pytest.raises(exc):
        uniform_table(**args)
