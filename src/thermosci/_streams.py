"""Seeded random numbers for many rows at once, as ``uint64`` numpy arithmetic.

Sampled trials draw counter-based uniforms (Salmon et al. 2011, "Parallel
random numbers: as easy as 1, 2, 3"): uniform ``t`` of trial ``k`` is the top
53 bits of SplitMix64 output ``k`` (Steele, Lea & Flood 2014) keyed by
``(seed, t)``, so no state is kept per trial.

``RandomPolicy`` keeps the bits of ``np.random.default_rng(np.random.SeedSequence(...))``,
one PCG64 generator per row. ``SeedSequence`` hashes 32-bit entropy words into a
4-word pool with O'Neill's ``seed_seq_fe`` mixing (numpy NEP 19) and draws
PCG64's seed from it. PCG64 is a 128-bit LCG with the XSL-RR output function
(O'Neill 2014, "PCG: A Family of Simple Fast Space-Efficient Statistically
Good Algorithms for Random Number Generation"), multiplied here on 64-bit
halves with 32-bit limbs. ``Generator.integers(n)`` takes the 32-bit halves of
the outputs, low half first, through Lemire's rejection method (Lemire 2019,
"Fast Random Integer Generation in an Interval"). A batch of pools is a
word-major ``(4, rows)`` ``uint32`` array, and a batch of streams a
``(4, rows)`` ``uint64`` one: each row's state, then increment, in halves.
"""

from __future__ import annotations

import functools

import numpy as np

_M32 = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool size, in 32-bit words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_M64 = 2**64 - 1
_GAMMA, _SM1, _SM2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB  # SplitMix64
# Constants of the array arithmetic are numpy scalars of the arrays' dtype: numpy converts a
# Python int operand anew on every call, which is most of the cost on a batch of a few rows.
_MIX_L, _MIX_R, _S16 = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_LOW, _S1, _S32, _S58, _S63, _S64 = (np.uint64(c) for c in (_M32, 1, 32, 58, 63, 64))
_PCG_HI, _PCG_LO = np.uint64(2549297995355413924), np.uint64(4865540595714422341)  # multiplier
_PCG_LO0, _PCG_LO1 = _PCG_LO & _LOW, _PCG_LO >> _S32  # its low half in 32-bit limbs


def words(n: int) -> list[int]:
    """The 32-bit words, least significant first, that ``SeedSequence`` makes of an int >= 0."""
    out = [n & _M32]
    while n := n >> 32:
        out.append(n & _M32)
    return out


@functools.cache  # read-only: a table of 2**k entries serves every shorter call as its prefix
def _hash_consts(init: int, mult: int, size: int) -> np.ndarray:
    """``init * mult**k`` mod 2**32, k < size: hash call k xors entry k, multiplies by k + 1."""
    table = np.cumprod(np.r_[init, np.full(size - 1, mult)].astype(np.uint32), dtype=np.uint32)
    table.flags.writeable = False
    return table


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = (values ^ xor) * mult
    return v ^ (v >> _S16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = x * _MIX_L - y * _MIX_R
    return v ^ (v >> _S16)


_HC_A, _HC_B = _hash_consts(_INIT_A, _MULT_A, 32), _hash_consts(_INIT_B, _MULT_B, 16)


def _source_hashes() -> tuple[np.ndarray, np.ndarray]:
    """Per source word, the ``(4, 1)`` xor and multiplier columns of its hashes into the pool.

    Source ``src`` is hashed into each other word in order with hash calls 4 + 3 * src
    onwards; its own row holds zeros, and the result there is discarded.
    """
    xor, mult = np.zeros((2, _POOL, _POOL, 1), dtype=np.uint32)
    for src in range(_POOL):
        k = 4 + 3 * src
        dst = [d for d in range(_POOL) if d != src]
        xor[src, dst, 0], mult[src, dst, 0] = _HC_A[k:k + 3], _HC_A[k + 1:k + 4]
    return xor, mult


_SRC_XOR, _SRC_MULT = _source_hashes()
#: the first hash of each pool word, and the eight that make the seed's words from the pool
_FIRST_XOR, _FIRST_MULT = _HC_A[:4, None], _HC_A[1:5, None]
_SEED_XOR, _SEED_MULT = _HC_B[:8].reshape(2, _POOL, 1), _HC_B[1:9].reshape(2, _POOL, 1)


def _pool(entropy: np.ndarray) -> np.ndarray:
    """The word-major ``(4, rows)`` pools ``SeedSequence`` mixes from ``(rows, L)`` words."""
    rows, n = entropy.shape
    mixer = np.zeros((_POOL, rows), dtype=np.uint32)  # a short entropy is hashed as zeros
    mixer[:n] = entropy[:, :_POOL].T
    mixer = _hashmix(mixer, _FIRST_XOR, _FIRST_MULT)
    for src in range(_POOL):  # every pool word into every other, in order; the three
        kept = mixer[src]  # mixes from one source are independent, and it keeps its own value
        mixer = _mix(mixer, _hashmix(kept, _SRC_XOR[src], _SRC_MULT[src]))
        mixer[src] = kept
    extra = n - _POOL
    if extra <= 0:
        return mixer
    # each further word into each pool word; the hashes do not depend on the pool
    hc = _hash_consts(_INIT_A, _MULT_A, 1 << (16 + 4 * extra).bit_length())[:17 + 4 * extra, None]
    late = np.ascontiguousarray(entropy[:, _POOL:].T)[:, None]  # (extra, 1, rows)
    xor, mult = hc[16:-1].reshape(extra, 4, 1), hc[17:].reshape(extra, 4, 1)
    block = max((1 << 14) // (rows or 1), 1)  # bigger temporaries are fresh pages, slow to touch
    for b in range(0, extra, block):
        hashed = _hashmix(late[b:b + block], xor[b:b + block], mult[b:b + block])
        hashed *= _MIX_R
        for word in hashed:
            mixer *= _MIX_L
            mixer -= word
            mixer ^= mixer >> _S16
    return mixer


def _step(s: np.ndarray) -> None:
    """Advance every state by one LCG step, ``state * mult + inc`` mod 2**128, in place.

    The high half of ``lo * mult`` comes from 32-bit limbs, with partial sums that fit in
    64 bits (Warren, "Hacker's Delight", 2nd ed., section 8-2).
    """
    hi, lo = s[0], s[1]
    a0, a1 = lo & _LOW, lo >> _S32
    t = a1 * _PCG_LO0 + ((a0 * _PCG_LO0) >> _S32)
    u = (t & _LOW) + a0 * _PCG_LO1
    carry = a1 * _PCG_LO1 + (t >> _S32) + (u >> _S32)  # the high half of lo * mult
    new_hi = carry + lo * _PCG_HI + hi * _PCG_LO + s[2]
    new_lo = lo * _PCG_LO
    s[1] = new_lo + s[3]
    s[0] = new_hi + (s[1] < new_lo)


def streams(entropy: np.ndarray) -> np.ndarray:
    """The PCG64 streams of ``default_rng(SeedSequence(...))``, one per row of entropy words.

    A row holds the words ``SeedSequence`` assembles: the entropy's words,
    padded with zeros to 4 when there is a spawn key, then the key's words.
    """
    w = _hashmix(_pool(entropy), _SEED_XOR, _SEED_MULT).astype(np.uint64)  # (2, 4, rows)
    w = w.reshape(_POOL, 2, -1)  # the 8 words in pairs, low word first
    seed = w[:, 0] | (w[:, 1] << _S32)  # seed hi, seed lo, sequence hi, sequence lo
    s = np.empty((4, w.shape[2]), dtype=np.uint64)
    s[2] = (seed[2] << _S1) | (seed[3] >> _S63)  # the increment is (sequence << 1) | 1
    s[3] = (seed[3] << _S1) | _S1
    s[0], s[1] = s[2] + seed[0], s[3] + seed[1]  # one step from 0 reaches inc; add the seed
    s[0] += s[1] < s[3]
    _step(s)
    return s


def _next64(s: np.ndarray) -> np.ndarray:
    """Step every stream in place and return its next 64-bit output."""
    _step(s)
    x, rot = s[0] ^ s[1], s[0] >> _S58
    return (x >> rot) | (x << ((_S64 - rot) & _S63))


def integers(s: np.ndarray, n: int) -> np.ndarray:
    """Each fresh stream's first ``Generator.integers(n)``, for ``1 <= n <= 2**32``.

    Steps the streams of ``s`` in place for the first draw; a row that draws again
    does so on a copy, so ``s`` is used up.
    """
    threshold = np.uint64((2**32 - n) % n)  # Lemire: a low word below this is rejected
    n = np.uint64(n)
    todo = np.arange(s.shape[1])
    out = np.empty(todo.size, dtype=np.int64)
    while True:
        raw = _next64(s)
        low, high = (raw & _LOW) * n, (raw >> _S32) * n  # high is the buffered second draw
        ok_low = (low & _LOW) >= threshold
        ok = ok_low | ((high & _LOW) >= threshold)
        out[todo] = np.where(ok_low, low, high) >> _S32
        if ok.all():
            return out
        todo, s = todo[~ok], s[:, ~ok]


def _splitmix(z):
    """SplitMix64's output function, on an int below 2**64 or a ``uint64`` array."""
    z = (z ^ (z >> 30)) * _SM1 & _M64
    z = (z ^ (z >> 27)) * _SM2 & _M64
    return z ^ (z >> 31)


def uniforms(seed: int, t: int, index: np.ndarray) -> np.ndarray:
    """Uniform ``t`` in [0, 1) of each trial ``k`` in ``index``: the top 53 bits of
    SplitMix64 output ``k``, ``mix(key + (k + 1) * gamma)``. The key (an int: no numpy scalar
    overflows) adds and mixes ``t``, the seed's word count, then its words: they name
    ``(seed, t)`` unambiguously, and each step is a bijection, so rounds never share a key."""
    key = 0
    for word in (t, len(run := words(seed)), *run):
        key = _splitmix((key + word) & _M64)
    return (_splitmix((index.astype(np.uint64) + 1) * _GAMMA + key) >> 11) * 2.0**-53
