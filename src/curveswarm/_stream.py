"""numpy's default_rng(seed).uniform, bit for bit, in plain Python.

The finder's random starts and the mission's initial placement draw
from the stream numpy's default_rng(seed) gives: PCG64 (O'Neill,
HMC-CS-2014-0905, 2014) with the XSL-RR 128->64 output, its state and
increment seeded through numpy's SeedSequence.  A run makes about a
hundred draws, a few lines of integer arithmetic each; loading numpy's
random package for them costs about 6 MB and 10 ms per process (nine
Cython modules, and OpenSSL's hashlib through secrets).
"""

import operator

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_M53 = (1 << 53) - 1
# x * _TWICE is the 64-bit word x written out twice
_TWICE = (1 << 64) + 1

# SeedSequence's hash constants and pool size (numpy's bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_POOL = 4

# PCG's default 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWO_M53 = 2.0 ** -53


def _hasher(const, mult):
    """SeedSequence's hashmix: each call advances the shared hash constant."""
    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _seed_state(seed):
    """SeedSequence(seed).generate_state(4, uint64) as four Python ints."""
    words = [seed & _M32]  # the seed's little-endian 32-bit words
    seed >>= 32
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % _POOL]) for i in range(8)]
    return [out[2 * k] | out[2 * k + 1] << 32 for k in range(4)]


class Stream:
    """The uniform doubles of numpy's default_rng(seed), in order.

    seed is any nonnegative integer, numpy integers included.
    """

    def __init__(self, seed):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed!r}")
        s = _seed_state(seed)
        # pcg_setseq_128_srandom_r(state = s0:s1, sequence = s2:s3): step
        # from 0 (giving inc), add the state word, step again
        self._inc = ((s[2] << 64 | s[3]) << 1 | 1) & _M128
        self._state = ((self._inc + (s[0] << 64 | s[1])) * _PCG_MULT + self._inc) & _M128

    def uniform(self, low=0.0, high=1.0, size=None):
        """low + (high - low) * next_double: a float, or a (size,) float64 array.

        next_double is the top 53 bits of next64 times 2**-53, and next64
        the XSL-RR output of the stepped state: its two 64-bit halves
        xor-ed, rotated right by the state's top six bits (done here as a
        shift of that word written out twice).
        """
        low = float(low)
        span = float(high) - low
        state, inc = self._state, self._inc
        out = []
        for _ in range(1 if size is None else size):
            state = (state * _PCG_MULT + inc) & _M128
            x = ((state >> 64) ^ state) & _M64
            out.append(low + span * (((x * _TWICE >> (state >> 122) + 11) & _M53) * _TWO_M53))
        self._state = state
        return out[0] if size is None else np.array(out)
