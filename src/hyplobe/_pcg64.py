"""Pure-Python replica of ``numpy.random.default_rng(seed).uniform``.

For a non-negative int seed, ``Uniform(seed)`` yields the same doubles as
numpy's default generator, bit for bit, so seeded polygons do not need numpy:
SeedSequence hashes the seed's 32-bit words into a 4-word pool, draws a
128-bit state and increment from it, and PCG64 (setseq-128 with the XSL-RR
output) turns each 64-bit output x into low + (high - low) (x >> 11) 2^-53.
"""

from __future__ import annotations

import operator

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

# numpy.random.bit_generator.SeedSequence
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
POOL_SIZE = 4

PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix: hash 32-bit words with a multiplier that moves on per word."""

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    return hashmix


def _seed_pool(seed: int) -> list[int]:
    """SeedSequence(seed).pool: the seed's little-endian 32-bit words, mixed."""
    words = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        words.append(seed & _M32)
    hashmix = _hasher(INIT_A, MULT_A)

    def mix(x: int, y: int) -> int:
        r = (MIX_MULT_L * x - MIX_MULT_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list[int]) -> list[int]:
    """SeedSequence.generate_state(4, uint64): eight hashed words, paired low-high."""
    hashmix = _hasher(INIT_B, MULT_B)
    words = [hashmix(pool[i % POOL_SIZE]) for i in range(2 * POOL_SIZE)]
    return [words[i] | words[i + 1] << 32 for i in range(0, len(words), 2)]


class Uniform:
    """The stream of ``numpy.random.default_rng(seed).uniform(low, high)``."""

    def __init__(self, seed: int) -> None:
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected a non-negative integer seed")
        s = _generate_state(_seed_pool(seed))
        # pcg_setseq_128_srandom_r: step from state 0, add the seed, step again
        self._inc = ((s[2] << 64 | s[3]) << 1 | 1) & _M128
        self._state = ((self._inc + (s[0] << 64 | s[1])) * PCG64_MULT + self._inc) & _M128

    def _next64(self) -> int:
        state = self._state = (self._state * PCG64_MULT + self._inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * ((self._next64() >> 11) * (1.0 / 9007199254740992.0))
