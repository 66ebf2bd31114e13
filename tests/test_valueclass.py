"""`repro.valueclass`: frozen dataclasses with ``__slots__`` that also
run on Python 3.9 (where ``dataclass(slots=True)`` does not exist)."""

import copy
import dataclasses
import datetime as dt
import pickle

import pytest

from repro.cmps.base import DialogButton, DialogDescriptor
from repro.valueclass import value_class
from repro.web.website import CmpEpisode, Website


def site():
    dialog = DialogDescriptor(
        "quantcast", "modal", (DialogButton("OK", "accept-all"),)
    )
    episode = CmpEpisode("quantcast", dt.date(2020, 1, 1), None, dialog)
    return Website(rank=3, domain="a.example", episodes=(episode,))


@pytest.mark.parametrize(
    "make",
    [
        site,
        lambda: site().episodes[0],
        lambda: site().episodes[0].dialog,
        lambda: site().episodes[0].dialog.buttons[0],
    ],
)
def test_site_classes_are_slotted_frozen_values(make):
    value = make()
    assert not hasattr(value, "__dict__")
    assert set(type(value).__slots__) == {
        field.name for field in dataclasses.fields(value)
    }
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, dataclasses.fields(value)[0].name, None)
    for twin in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
        dataclasses.replace(value),
    ):
        assert twin == value and twin is not value
        assert hash(twin) == hash(value)


def test_defaults_validation_and_class_attributes_survive():
    plain = Website(rank=1, domain="b.example")
    assert plain.embed_regions == frozenset({"EU", "US"})
    assert plain.n_subsites == 8 and plain.reachability == "https"
    assert "https" in Website._REACHABILITY
    with pytest.raises(ValueError):
        Website(rank=0, domain="c.example")
    assert repr(plain).startswith("Website(rank=1, domain='b.example'")


@value_class(order=True, memos=("_twice",))
class Pair:
    a: int
    b: int = 0

    def __init__(self, a: int, b: int = 0) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_twice", None)

    def twice(self) -> int:
        if self._twice is None:
            object.__setattr__(self, "_twice", 2 * (self.a + self.b))
        return self._twice


def test_memo_slots_are_not_fields():
    pair = Pair(1, 2)
    assert pair.twice() == 6
    assert [field.name for field in dataclasses.fields(pair)] == ["a", "b"]
    assert pair == Pair(1, 2) and Pair(1, 2) < Pair(1, 3)
    assert repr(pair) == "Pair(a=1, b=2)"
    copied = pickle.loads(pickle.dumps(pair))
    assert copied == pair and copied._twice is None
    assert dataclasses.replace(pair, b=5)._twice is None
