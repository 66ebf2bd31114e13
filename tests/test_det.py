"""``repro.det.first_randoms`` against its definition.

``first_randoms(seeds)`` is ``[random.Random(s).random() for s in
seeds]`` by definition; these tests pin it to that list on the toplist's
own seeds and on the keys that stress CPython's string seeding: an
empty string, a leading NUL (the seed int drops leading zero bytes),
non-ASCII text and a key over 624 words (a string over 2,432 bytes).
"""

import random

import numpy as np
import pytest

import repro.det as det
from repro.det import first_randoms


def by_definition(seeds):
    return np.array([random.Random(s).random() for s in seeds])


def assert_first_randoms(seeds):
    got = first_randoms(seeds)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, by_definition(seeds))


@pytest.fixture
def vector_passes(monkeypatch):
    """The number of keys each vector pass takes."""
    passes = []
    kernel = det._seeded_first_randoms

    def spy(keys):
        passes.append(len(keys))
        return kernel(keys)

    monkeypatch.setattr(det, "_seeded_first_randoms", spy)
    return passes


@pytest.mark.parametrize("seed", [7, 17, -3])
def test_site_seeds_of_a_20k_world(seed, vector_passes):
    """The class scan's seeds: 20,000 ranks fall into two or three key
    sizes, and all but a few head ranks take a vector pass."""
    assert_first_randoms([f"{seed}:site:{rank}" for rank in range(1, 20_001)])
    assert sum(vector_passes) >= 19_991


def test_accepts_any_iterable_and_empty_input():
    seeds = (f"7:site:{rank}" for rank in range(1, 50))
    np.testing.assert_array_equal(
        first_randoms(seeds),
        by_definition([f"7:site:{rank}" for rank in range(1, 50)]),
    )
    assert first_randoms([]).shape == (0,)


#: Keys that stress CPython's string seeding, by test id.
EDGE_CASES = {
    "empty": "",
    "nul": "\0",
    "nul-abc": "\0abc",
    "five-nuls": "\0\0\0\0\0",
    "non-ascii": "héllo wörld ☃",
    "astral": "\U0001f600" * 3,
    "624-words": "y" * 2432,
    "625-words": "x" * 2433,
    "5000-bytes": "z" * 5000,
}


@pytest.mark.parametrize("text", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_edge_case_alone(text):
    """One seed takes the scalar path."""
    assert_first_randoms([text])


@pytest.mark.parametrize("text", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_edge_case_in_a_vector_group(text):
    """Enough seeds of the edge case's key size for a vector pass; a
    key over 624 words, or one whose int drops a whole word of leading
    zero bytes, still takes the scalar path."""
    seeds = [f"{text}{i:05d}" for i in range(det._VECTOR_MIN + 10)]
    assert_first_randoms(seeds)


def test_leading_zero_words_take_the_scalar_path(vector_passes):
    """"\\0" + four digits pads to 18 words, yet its seed int needs 17:
    the vector pass over the group's 18-word rows is wrong for those
    rows, and the scalar path replaces them."""
    n = det._VECTOR_MIN
    seeds = [f"\0{i:04d}" for i in range(n)] + [f"a{i:04d}" for i in range(n)]
    random.Random(0).shuffle(seeds)
    assert_first_randoms(seeds)
    assert vector_passes == [2 * n]


def test_leading_nul_keeps_its_words_in_the_vector_group(vector_passes):
    """"\\0" + three digits is 68 bytes with its digest, and its seed
    int still needs all 17 words."""
    seeds = [f"{lead}{i:03d}" for lead in "\0bc" for i in range(1000)]
    assert len(seeds) >= det._VECTOR_MIN
    assert_first_randoms(seeds)
    assert vector_passes == [len(seeds)]


def test_mixed_key_sizes_keep_their_positions():
    seeds = [f"{i}:{'w' * (i % 7)}" for i in range(3 * det._VECTOR_MIN)]
    for position, text in zip(range(0, len(seeds), 601), EDGE_CASES.values()):
        seeds.insert(position, text)
    assert_first_randoms(seeds)
