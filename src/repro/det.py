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
"""

from __future__ import annotations

import math
import zlib
from typing import Sequence

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

__all__ = ["mix64", "key64", "fold64", "KeyedRand"]


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
    def _u64(self) -> int:
        self._i += 1
        x = (self._key + self._i * _GOLDEN) & _MASK
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        return x ^ (x >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits.

        The counter mix is inlined (same ops as :meth:`_u64`): this is
        the single most-called function of a crawl run, and the extra
        frame was measurable.
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

    def choice(self, seq: Sequence):
        if not seq:
            raise IndexError("cannot choose from an empty sequence")
        return seq[int(self.random() * len(seq))]

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

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

    def expovariate(self, lambd: float) -> float:
        u = self.random()
        while u <= 1e-12:  # pragma: no cover - p < 2**-40
            u = self.random()
        return -math.log(u) / lambd

    def lognormvariate(self, mu: float, sigma: float) -> float:
        return math.exp(self.gauss(mu, sigma))
