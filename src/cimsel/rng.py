"""Deterministic derivation of independent random streams.

Every stochastic component of the library (channel draws, solver
initialisation, random selection, fallbacks) pulls its randomness from a
stream addressed by ``(master_seed, *path)``.  Streams are derived with
``numpy.random.SeedSequence`` spawn keys, so two different paths give
statistically independent generators and the derivation is independent of
the order in which streams are created.  This is what makes parallel runs
reproduce serial runs bit for bit.

The solver starts anneal ``k`` from the stream ``(master_seed, k)``.
:func:`uniform_table` draws its whole start table at once in integer numpy
arithmetic instead of building one generator per anneal, and nothing is
kept between draws.  Row ``k`` equals ``substream(master_seed,
k).uniform(low, high, size)`` bit for bit; ``tests/test_rng.py`` checks that
against the ``substream`` loop, so a numpy release that changes
``SeedSequence`` or ``PCG64`` fails a test instead of moving the outputs.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = ["substream", "derive_seed", "uniform_table"]


def _checked_seed(master_seed: int) -> int:
    if int(master_seed) < 0:
        raise ValueError(f"master seed must be non-negative, got {master_seed}")
    return int(master_seed)


def _seed_sequence(master_seed: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=_checked_seed(master_seed), spawn_key=tuple(int(p) for p in path)
    )


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return an independent Generator for the stream ``(master_seed, *path)``.

    The same arguments always give a generator producing the same values;
    distinct paths give independent streams.
    """
    return np.random.default_rng(_seed_sequence(master_seed, path))


def derive_seed(master_seed: int, *path: int) -> int:
    """Collapse ``(master_seed, *path)`` into a single integer seed.

    Used where an API takes a plain seed-of-record (for example channel
    files) but the value must still be derived reproducibly from a master
    seed.
    """
    return int(_seed_sequence(master_seed, path).generate_state(1, dtype=np.uint64)[0])


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# PCG64's 128-bit LCG multiplier: its high word, its low word, and the low
# word's 32-bit limbs
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO, _MULT_L0, _MULT_L1 = (
    np.uint64(w) for w in (_PCG_MULT >> 64, _PCG_MULT & (2**64 - 1),
                           _PCG_MULT & _M32, (_PCG_MULT >> 32) & _M32)
)
_U64_32, _U64_M32 = np.uint64(32), np.uint64(_M32)


def _hash_consts(init: int, mult: int, n: int) -> list[int]:
    """The first ``n`` values a SeedSequence hash constant takes after its
    update, which does not depend on the data hashed."""
    out, h = [], init
    for _ in range(n):
        out.append(h)
        h = (h * mult) & _M32
    return out


def _wrap32(value):
    """``value`` modulo 2**32; uint32 arrays already wrap."""
    return value & _M32 if isinstance(value, int) else value


def _hashmix(value, const: int, mult: int):
    """One SeedSequence hash of ``value`` (an int or a uint32 array) under
    the hash constant ``const``."""
    value = _wrap32((value ^ const) * ((const * mult) & _M32))
    return value ^ (value >> 16)


def _mix(x, y):
    value = _wrap32(_wrap32(_MIX_L * x) - _wrap32(_MIX_R * y))
    return value ^ (value >> 16)


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, ``state * mult + inc`` modulo 2**128, on the state's
    uint64 words; the low-word product is split into 32-bit limbs to keep
    its carry."""
    l0, l1 = lo & _U64_M32, lo >> _U64_32
    p00, p01, p10 = l0 * _MULT_L0, l0 * _MULT_L1, l1 * _MULT_L0
    mid = (p00 >> _U64_32) + (p01 & _U64_M32) + (p10 & _U64_M32)
    carry = l1 * _MULT_L1 + (p01 >> _U64_32) + (p10 >> _U64_32) + (mid >> _U64_32)
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = carry + hi * _MULT_LO + lo * _MULT_HI + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _uniform_rows(master_seed: int, keys: np.ndarray, low: float, high: float, size: int):
    """Rows ``substream(master_seed, k).uniform(low, high, size)`` for the
    uint32 spawn keys ``keys``, computed for all keys at once."""
    seed = _checked_seed(master_seed)
    span = high - low
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    # SeedSequence entropy: the seed's little-endian 32-bit words padded to
    # the pool size, then the spawn key, which mixes in last
    words = [(seed >> shift) & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * (len(words) + 1))
    pool = [_hashmix(w, c, _MULT_A) for w, c in zip(words[:_POOL], consts)]
    it = iter(consts[_POOL:])
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(it), _MULT_A))
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(w, next(it), _MULT_A))
    keys = np.asarray(keys, dtype=np.uint32)
    pool = [_mix(p, _hashmix(keys, next(it), _MULT_A)) for p in pool]
    # generate_state(4, uint64): eight 32-bit words, paired little-endian
    state = [
        _hashmix(pool[i % _POOL], c, _MULT_B).astype(np.uint64)
        for i, c in enumerate(_hash_consts(_INIT_B, _MULT_B, 2 * _POOL))
    ]
    s_hi, s_lo, i_hi, i_lo = (state[i] | (state[i + 1] << _U64_32) for i in range(0, 8, 2))
    # PCG64 seeding: inc = (i << 1) | 1; step from 0, add the seed, step
    one = np.uint64(1)
    inc_hi, inc_lo = (i_hi << one) | (i_lo >> np.uint64(63)), (i_lo << one) | one
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < s_lo)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    # each draw steps the LCG and takes the XSL-RR output of the new state
    bits = np.empty((len(keys), size), dtype=np.uint64)
    for j in range(size):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        folded, rot = hi ^ lo, hi >> np.uint64(58)
        bits[:, j] = (folded >> rot) | (folded << ((np.uint64(64) - rot) & np.uint64(63)))
    # Generator.uniform: low + (high - low) * ((u >> 11) * 2**-53)
    np.right_shift(bits, np.uint64(11), out=bits)
    out = bits.astype(np.float64)
    out *= 2.0**-53
    out *= span
    out += low
    return out


def uniform_table(master_seed: int, n_streams: int, low: float, high: float, size: int) -> np.ndarray:
    """The ``(n_streams, size)`` table whose row ``k`` is
    ``substream(master_seed, k).uniform(low, high, size)``, bit for bit.

    All rows are computed at once: SeedSequence mixing of the spawn key,
    PCG64 seeding and steps (O'Neill, "PCG: A family of simple fast
    space-efficient statistically good algorithms for random number
    generation", HMC-CS-2014-0905) and the uniform transform, in uint32 and
    uint64 array arithmetic.  Spawn keys are one 32-bit word, so at most
    ``2**32`` streams.
    """
    n_streams, size = operator.index(n_streams), operator.index(size)
    if not 0 <= n_streams <= 2**32:
        raise ValueError(f"n_streams must lie in [0, 2**32], got {n_streams}")
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    return _uniform_rows(master_seed, np.arange(n_streams, dtype=np.uint32), low, high, size)
