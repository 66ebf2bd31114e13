"""Frozen, slotted dataclasses that also run on Python 3.9.

``dataclass(slots=True)`` needs Python 3.10; :func:`value_class` builds
the same kind of class on 3.9. It applies ``dataclass(frozen=True)``
and rebuilds the result with ``__slots__`` naming its fields, plus any
*memos*: an instance then keeps its values in fixed slots instead of a
per-instance ``__dict__``, about 400 bytes less for a class of half a
dozen fields. The classes the crawl holds by the thousand (URLs, sites,
CMP episodes and their dialogs) are value classes for that reason.

A memo slot holds a value the class derives from its fields and caches
on the instance. Memos are not fields, so equality, ordering, ``repr``,
``dataclasses.replace`` and pickling ignore them. A class with memos
writes its own ``__init__`` (``dataclass`` keeps one defined in the
class body) and sets every slot there with ``object.__setattr__``, the
memos to ``None``: the class's own ``__setattr__`` refuses every
assignment, as a frozen dataclass does, and an unset slot raises
``AttributeError`` when read, far more slowly than a ``None`` test. A
replaced copy is built by that ``__init__``, and an unpickled one has
its fields restored and its memos set to ``None``: both start with
empty memos.

Like ``dataclass(slots=True)``, the rebuild replaces the class object,
so a method of a value class must not use zero-argument ``super()``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, fields
from typing import Callable, Optional, Sequence, Tuple


def value_class(
    cls: Optional[type] = None, *, order: bool = False, memos: Sequence[str] = ()
):
    """Class decorator: a frozen dataclass with ``__slots__``.

    *order* is passed to ``dataclass``; *memos* names extra slots for
    values the class caches on its instances (its ``__init__`` must set
    them). Usable bare (``@value_class``) or with arguments.
    """

    def wrap(cls: type) -> type:
        return _slotted(dataclass(frozen=True, order=order)(cls), tuple(memos))

    return wrap if cls is None else wrap(cls)


def _slotted(cls: type, memos: tuple) -> type:
    names = tuple(f.name for f in fields(cls))
    body = {
        key: value
        for key, value in cls.__dict__.items()
        # Field defaults live in __init__'s defaults; as class
        # attributes they would shadow the slots.
        if key not in names and key not in ("__dict__", "__weakref__")
    }
    body["__slots__"] = names + memos
    body["__setattr__"] = _refuse_assignment
    body["__delattr__"] = _refuse_deletion
    if "__reduce__" not in body:
        body["__getstate__"], body["__setstate__"] = _field_state(names, memos)
    slotted = type(cls)(cls.__name__, cls.__bases__, body)
    slotted.__qualname__ = cls.__qualname__
    return slotted


def _refuse_assignment(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _field_state(names: tuple, memos: tuple) -> Tuple[Callable, Callable]:
    """Pickle support: the state is the field values, never the memos,
    which an unpickled copy gets empty (the default slot state would be
    restored through the refusing ``__setattr__``)."""

    def getstate(self) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def setstate(self, state: tuple) -> None:
        for name, value in zip(names, state):
            object.__setattr__(self, name, value)
        for memo in memos:
            object.__setattr__(self, memo, None)

    return getstate, setstate
