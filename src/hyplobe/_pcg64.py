"""Pure-Python replica of ``numpy.random.default_rng(entropy)``.

For non-negative integer entropy (one int, or a list such as ``[seed, k]``),
``DefaultRng(entropy)`` draws the same numbers as numpy's default generator,
bit for bit, so seeded runs do not need numpy. SeedSequence concatenates the
little-endian 32-bit words of each entropy part, hashes them into a 4-word
pool and draws a 128-bit state and increment from it; PCG64 (setseq-128 with
the XSL-RR output) then gives 64-bit outputs x. ``uniform`` turns one output
into low + (high - low) (x >> 11) 2^-53; ``integers`` draws 32-bit words,
the low half of an output first and its high half on the next call.
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


def _entropy_words(entropy) -> list[int]:
    """The little-endian 32-bit words of each entropy part, concatenated; 0 is one word."""
    parts = entropy if isinstance(entropy, (list, tuple)) else [entropy]
    words = []
    for part in map(operator.index, parts):
        if part < 0:
            raise ValueError("expected non-negative integer entropy")
        words.append(part & _M32)
        while part > _M32:
            part >>= 32
            words.append(part & _M32)
    return words


def _seed_pool(words: list[int]) -> list[int]:
    """SeedSequence(entropy).pool: the entropy words, mixed."""
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


class DefaultRng:
    """The stream of ``numpy.random.default_rng(entropy)``: scalar ``uniform``
    and ``integers`` draws, in the order numpy makes them."""

    def __init__(self, entropy) -> None:
        s = _generate_state(_seed_pool(_entropy_words(entropy)))
        # pcg_setseq_128_srandom_r: step from state 0, add the seed, step again
        self._inc = ((s[2] << 64 | s[3]) << 1 | 1) & _M128
        self._state = ((self._inc + (s[0] << 64 | s[1])) * PCG64_MULT + self._inc) & _M128
        self._high_half = None  # numpy's buffered upper 32 bits

    def _next64(self) -> int:
        state = self._state = (self._state * PCG64_MULT + self._inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._high_half is not None:
            word, self._high_half = self._high_half, None
            return word
        x = self._next64()
        self._high_half = x >> 32
        return x & _M32

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * ((self._next64() >> 11) * (1.0 / 9007199254740992.0))

    def integers(self, low: int, high: int) -> int:
        """A draw from low, ..., high - 1, as numpy's 32-bit path makes it.

        A range of 2^32 values takes one word as it is; a smaller one uses
        Lemire's multiply-shift, rejecting words whose low product half falls
        below (2^32 - range) mod range. A single value draws nothing.
        """
        span = high - low
        if not 0 < span <= 1 << 32:
            raise ValueError("integers needs low < high <= low + 2**32")
        if span == 1:
            return low
        if span == 1 << 32:
            return low + self._next32()
        m = self._next32() * span
        if m & _M32 < span:
            threshold = ((1 << 32) - span) % span
            while m & _M32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)
