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

import numpy as np

from ._checks import integer

__all__ = ["substream", "derive_seed", "uniform_table"]


def _seed_sequence(master_seed: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    key = tuple(integer(f"path[{i}]", p, 0) for i, p in enumerate(path))
    return np.random.SeedSequence(entropy=integer("master_seed", master_seed, 0), spawn_key=key)


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


def _hash_consts(init: int, mult: int, start: int, n: int) -> np.ndarray:
    """Values ``start`` to ``start + n - 1`` of a SeedSequence hash constant,
    as a uint32 column: the ``k``-th is ``init * mult**k`` modulo 2**32,
    whatever data is hashed."""
    consts = [init * pow(mult, k, 1 << 32) & _M32 for k in range(start, start + n)]
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(value, const, mult: int):
    """One SeedSequence hash of the uint32 array ``value`` under the hash
    constants ``const``; uint32 arithmetic wraps modulo 2**32, as theirs."""
    value = (value ^ const) * (const * mult)
    return value ^ (value >> 16)


def _mix(x, y):
    value = _MIX_L * x - _MIX_R * y
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
    seed = integer("master_seed", master_seed, 0)
    span = high - low
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    # SeedSequence hashes the seed's 32-bit words, padded to the pool size,
    # into the pool that SeedSequence(seed) holds; the spawn key is the next
    # word, and mixes in under the next pool-size hash constants
    n_words = max(_POOL, -(-max(seed.bit_length(), 1) // 32))
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * n_words, _POOL)
    keys = np.asarray(keys, dtype=np.uint32)
    pool = _mix(np.random.SeedSequence(seed).pool[:, None], _hashmix(keys, consts, _MULT_A))
    # generate_state(4, uint64): eight 32-bit words, paired little-endian
    consts = _hash_consts(_INIT_B, _MULT_B, 0, 2 * _POOL)
    words = _hashmix(pool[np.arange(2 * _POOL) % _POOL], consts, _MULT_B).astype(np.uint64)
    s_hi, s_lo, i_hi, i_lo = words[0::2] | (words[1::2] << _U64_32)
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
    n_streams, size = integer("n_streams", n_streams, 0), integer("size", size, 0)
    if n_streams > 2**32:
        raise ValueError(f"n_streams must be <= 2**32, got {n_streams}")
    return _uniform_rows(master_seed, np.arange(n_streams, dtype=np.uint32), low, high, size)
