"""Cheap keyed deterministic randomness for the crawl hot path.

Every crawl-phase decision in this system is keyed, never sequential:
the vantage assignment, the queue delay, and each page render derive
all their randomness from a stable key such as ``(seed, url, share
time)``, so outcomes are independent of execution order -- the property
that makes serial and sharded process runs bit-identical.

The original implementation built a fresh ``random.Random`` per key,
which costs ~10us in seeding alone (the Mersenne Twister state is 2500
bytes initialized through ``hashlib``). At columnar-crawl throughput
targets that is the whole per-crawl budget, so this module provides the
cheap equivalent: a 64-bit key built by CRC-folding the key parts
(:func:`key64`) and a counter-based generator (:class:`KeyedRand`)
whose draws are splitmix64 finalizer outputs -- a few integer
operations each, no large state, no allocation beyond the generator
object itself.

Quality notes:

* splitmix64 passes BigCrush as a bare counter mixer; it is more than
  strong enough for the Bernoulli/uniform decisions the crawl path
  makes. It is of course not cryptographic.
* :func:`key64` folds strings through CRC32 (32 bits per part). Two
  distinct multi-part keys collide with probability ~2**-64 after
  mixing; two *single string parts* collide at the CRC32 birthday
  bound, which at this system's scales (tens of thousands of distinct
  URLs per run) is negligible -- and a collision would only correlate
  two visits' draws, never corrupt a result.

Sites are still drawn from ``random.Random(f"{seed}:site:{rank}")``, and
a site's first double decides its class. :func:`first_randoms` computes
that first double for many string seeds at once, bit-identical to
``random.Random(s).random()``: CPython's version-2 string seeding and
MT19937's ``init_by_array`` vectorize across seeds, so the toplist's
class scan costs a few dozen ufunc passes instead of one Mersenne
Twister seeding per rank.
"""

from __future__ import annotations

import math
import random
import zlib
from array import array
from typing import Dict, Iterable

import numpy as np

try:  # the lean SHA-512 that random.seed itself uses
    from _sha512 import sha512 as _sha512
except ImportError:  # pragma: no cover - CPython 3.12 moved it to _sha2
    from hashlib import sha512 as _sha512

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

__all__ = ["mix64", "key64", "fold64", "KeyedRand", "first_randoms"]


def mix64(x: int) -> int:
    """The splitmix64 finalizer: a 64-bit bijective avalanche mix."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def key64(*parts: object) -> int:
    """Fold *parts* (ints and strings) into one 64-bit stream key.

    The fold is order-sensitive and avalanche-mixed per part, so
    ``key64(1, "a")`` and ``key64("a", 1)`` are unrelated. Strings
    contribute their CRC32 plus their length; ints contribute their
    low 64 bits.
    """
    return fold64(_GOLDEN, *parts)


def fold64(state: int, *parts: object) -> int:
    """Continue a :func:`key64` fold from a prefix *state*.

    ``fold64(key64(a, b), c, d) == key64(a, b, c, d)`` -- the fold is
    a left-to-right chain, so a constant key prefix (e.g. ``(seed,
    purpose)``) can be folded once per run and reused for millions of
    per-event keys. The crawl hot paths cache exactly such prefixes.
    """
    h = state
    for part in parts:
        # Int first: the hot callers pass precomputed int parts (e.g.
        # ``URL.h64``), strings are the slow path. The mix is inlined
        # (same ops as :func:`mix64`) to skip a call per part.
        if type(part) is int:
            v = part & _MASK
        elif type(part) is str:
            v = zlib.crc32(part.encode("utf-8")) ^ (len(part) << 32)
        elif type(part) is bool:  # pragma: no cover - defensive
            v = int(part)
        else:
            raise TypeError(
                f"key64 parts must be str or int, got {type(part).__name__}"
            )
        x = ((h ^ v) * 0xFF51AFD7ED558CCD) & _MASK
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        h = x ^ (x >> 31)
    return h


class KeyedRand:
    """A tiny counter-based generator over one :func:`key64` key.

    Draws are ``mix64(key + i * golden)`` for ``i = 1, 2, ...`` -- the
    classic splitmix64 stream. Construction is a couple of attribute
    writes, so building one generator per crawl (or several per page
    visit) is essentially free, unlike ``random.Random(str)``.

    The API mirrors the subset of :class:`random.Random` the crawl and
    storage synthesis paths use. Draw order is part of the determinism
    contract: callers must consume in a fixed sequence, exactly as with
    ``random.Random``.
    """

    __slots__ = ("_key", "_i")

    def __init__(self, key: int):
        self._key = key & _MASK
        self._i = 0

    def split(self, salt: int) -> "KeyedRand":
        """An independent generator derived from this one's key.

        Used to give a visit's *observable* plan and its cosmetic
        *flesh* disjoint streams: the plan's draw count can then change
        (e.g. the compact path skipping flesh entirely) without shifting
        the other stream.
        """
        return KeyedRand(mix64(self._key ^ (salt * _GOLDEN)))

    def skip(self, n: int) -> None:
        """Advance the stream by *n* draws without computing them.

        Draws are pure functions of ``(key, position)``, so a caller
        that can account for the positions of the draws it skips gets
        the exact same values a sequential consumer would -- this is
        what lets the structural visit fast path read only the draws
        that can affect its result.
        """
        self._i += n

    # -- core draws ----------------------------------------------------
    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits.

        The counter mix is inlined (same ops as :func:`mix64`): this
        is the single most-called function of a crawl run, and the
        extra frame was measurable.
        """
        self._i = i = self._i + 1
        x = (self._key + i * _GOLDEN) & _MASK
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        return ((x ^ (x >> 31)) >> 11) * 1.1102230246251565e-16  # 2**-53

    def randrange(self, start: int, stop: int = None) -> int:  # type: ignore[assignment]
        """Uniform int in ``range(start, stop)`` (or ``range(start)``).

        Uses the 53-bit uniform rather than rejection sampling: the
        modulo bias over crawl-sized ranges (< 2**31) is < 2**-22 and
        irrelevant for the simulation, while the cost stays one draw.
        """
        if stop is None:
            start, stop = 0, start
        width = stop - start
        if width <= 0:
            raise ValueError(f"empty range ({start}, {stop})")
        return start + int(self.random() * width)

    def randint(self, a: int, b: int) -> int:
        """Uniform int in the inclusive range [a, b]."""
        return self.randrange(a, b + 1)

    # -- shaped draws --------------------------------------------------
    def gauss(self, mu: float, sigma: float) -> float:
        """One normal deviate via Box-Muller (two uniforms per call).

        No spare-value caching: each call consumes exactly two draws,
        keeping the stream position a pure function of the call count.
        """
        u1 = self.random()
        while u1 <= 1e-12:  # pragma: no cover - p < 2**-40
            u1 = self.random()
        u2 = self.random()
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(
            6.283185307179586 * u2
        )


# ----------------------------------------------------------------------
# The first double of many string-seeded Mersenne Twisters
# ----------------------------------------------------------------------
#: MT19937's state size in 32-bit words.
_MT_N = 624

#: Fewer seeds of one key size than this take ``random.Random(s)``:
#: a vector pass spends about 7 ms on ufunc calls at any width, so it
#: breaks even near 1,000 seeds (9.2 ms against 8.6 ms scalar; 20,000
#: seeds take 52 ms against 173 ms; measured on a 2-core x86-64 host).
_VECTOR_MIN = 1_000

#: Zero bytes that left-pad a key of ``len & 3`` bytes to whole words.
_PADS = (b"", b"\0\0\0", b"\0\0", b"\0")

#: ``init_by_array``'s mixing multipliers, first loop then second loop.
_MIXES = np.array([[1664525], [1566083941]], dtype=np.uint32)


def _genrand_state(seed: int) -> np.ndarray:
    """MT19937's ``init_genrand(seed)``, where ``init_by_array``
    starts."""
    state = [seed]
    for i in range(1, _MT_N):
        prev = state[-1]
        state.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
    return np.array(state, dtype=np.uint32)


_GENRAND = _genrand_state(19650218)


def first_randoms(seeds: Iterable[str]) -> np.ndarray:
    """``[random.Random(s).random() for s in seeds]``, as float64.

    ``random.Random(s)`` seeds MT19937's ``init_by_array`` with the
    int whose big-endian bytes are ``s.encode()`` followed by their
    SHA-512 digest, split into little-endian 32-bit words. Seeds are
    grouped by that word count, and each group's keys are built in one
    buffer. A group of at least :data:`_VECTOR_MIN` keys of at most
    624 words runs :func:`_seeded_first_randoms` across its keys; the
    rest, and a key whose leading zero bytes shorten its int, seed a
    ``random.Random`` from that int, as ``random.Random(s)`` does.
    """
    groups: Dict[int, bytearray] = {}
    seed_sizes = array("q")
    for text in seeds:
        data = text.encode()
        size = (len(data) + 67) >> 2  # words of data + 64-byte digest
        keys = groups.get(size)
        if keys is None:
            keys = groups[size] = bytearray()
        keys += _PADS[len(data) & 3]
        keys += data
        keys += _sha512(data).digest()
        seed_sizes.append(size)
    sizes = np.frombuffer(seed_sizes, np.int64)
    out = np.empty(len(sizes))
    for size, keys in groups.items():
        # Each row: one int as big-endian words, most significant first.
        words = np.frombuffer(keys, ">u4").reshape(-1, size)
        rows = np.flatnonzero(sizes == size)
        if len(rows) >= _VECTOR_MIN and size <= _MT_N:
            out[rows] = _seeded_first_randoms(words[:, ::-1])
            # An int whose top word is zero has fewer words than its row.
            short = words[:, 0] == 0
            words, rows = words[short], rows[short]
        out[rows] = [
            random.Random(int.from_bytes(key.tobytes(), "big")).random()
            for key in words
        ]
    return out


def _seeded_first_randoms(keys: np.ndarray) -> np.ndarray:
    """The first ``random()`` after ``init_by_array(key)`` for each
    row of *keys*: 32-bit words, least significant first, at most 624.

    ``random()`` twists ``mt[0]`` and ``mt[1]`` of the seeded state,
    so it reads ``mt[1]``, ``mt[2]``, ``mt[397]`` and ``mt[398]``
    (``mt[0]`` is ``0x80000000``). Two passes keep O(seeds) state and
    build no 624-row matrix: the first runs ``init_by_array``'s first
    loop to its end, keeping only its running word and row 1; the
    second recomputes each first-loop row beside the second loop's
    step that reads it.
    """
    m, size = keys.shape
    # The first loop adds key[j] + j at its step j, j cycling the key.
    offsets = np.arange(size, dtype=np.uint32)[:, None]
    plus = np.add(keys.T, offsets, dtype=np.uint32, order="C")
    word = np.full(m, _GENRAND[0])
    tmp = np.empty_like(word)
    for i in range(1, _MT_N):
        np.right_shift(word, 30, out=tmp)
        np.bitwise_xor(tmp, word, out=tmp)
        np.multiply(tmp, _MIXES[0], out=tmp)
        np.bitwise_xor(tmp, _GENRAND[i], out=tmp)
        np.add(tmp, plus[(i - 1) % size], out=word)
        if i == 1:
            row1 = word.copy()
    # The loop wraps (mt[0] = mt[623]) and mixes row 1 once more.
    mt1 = (((word ^ (word >> 30)) * _MIXES[0]) ^ row1) + plus[(_MT_N - 1) % size]
    # Row 0: the first loop again; row 1: the second loop.
    state = np.stack([row1, mt1])
    tmp = np.empty_like(state)
    kept = {}
    for i in range(2, _MT_N):
        np.right_shift(state, 30, out=tmp)
        np.bitwise_xor(tmp, state, out=tmp)
        np.multiply(tmp, _MIXES, out=tmp)
        np.bitwise_xor(tmp[0], _GENRAND[i], out=state[0])
        np.add(state[0], plus[(i - 1) % size], out=state[0])
        np.bitwise_xor(tmp[1], state[0], out=state[1])
        np.subtract(state[1], i, out=state[1])
        if i in (2, 397, 398):
            kept[i] = state[1].copy()
    # The second loop wraps too, mixing row 1 last.
    last = state[1]
    mt1 = (((last ^ (last >> 30)) * _MIXES[1]) ^ mt1) - 1
    high = _tempered_twist(0x80000000, mt1, kept[397]) >> 5
    low = _tempered_twist(mt1, kept[2], kept[398]) >> 6
    return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)


def _tempered_twist(upper, lower, far: np.ndarray) -> np.ndarray:
    """One MT19937 output: twist the upper bit of *upper* and the lower
    bits of *lower* into *far* (the word 397 on), then temper."""
    y = (upper & 0x80000000) | (lower & 0x7FFFFFFF)
    y = far ^ (y >> 1) ^ ((y & 1) * 0x9908B0DF)
    y ^= y >> 11
    y ^= (y << 7) & 0x9D2C5680
    y ^= (y << 15) & 0xEFC60000
    return y ^ (y >> 18)
