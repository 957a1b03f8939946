"""The base of the package's enums, and the decoding of their wire values.

CPython 3.11's ``Enum`` hashes a member with a Python-level
``hash(self._name_)``, reads ``member.value`` through a Python-level
property and turns a value into a member through ``EnumType.__call__``,
each a few hundred nanoseconds. The settlement step hashes members on every
call (spec, handler and enabled-set lookups), writes five member values into
every event and decodes the role and kind of every replayed event, so the
package takes these costs off that path:

* ``SuretyEnum`` members hash by identity. A member is a singleton
  (pickling and copying give back the member itself), so identity hashing
  agrees with equality. The order of a set of members could never be relied
  on: ``hash(self._name_)`` already varies with ``PYTHONHASHSEED``.
* ``decoder(enum_cls)`` maps a wire value to its member through a dict
  built at import, and calls the enum on a miss, so a bad value raises the
  enum's own error (``'x' is not a valid Role``).
* Events and canonical encodings read a member's ``_value_``, the plain
  attribute behind the ``value`` property.
* A member read on the step path is bound to a module name, such as
  ``lifecycle._PHASE_TRANSACTION``: ``EnumType`` defines ``__getattr__``, so
  even a member stored in the class dict costs several times a global to
  read as ``Phase.TRANSACTION``. Tables built once at import keep the
  qualified names.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, TypeVar

E = TypeVar("E", bound=Enum)


class SuretyEnum(Enum):
    """An enum whose members hash by identity."""

    __hash__ = object.__hash__


def decoder(enum_cls: type[E]) -> Callable[[object], E]:
    """``enum_cls(value)``, answered from a dict of its members' values."""
    by_value = {member._value_: member for member in enum_cls}

    def decode(value: object) -> E:
        try:
            return by_value[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            return enum_cls(value)

    return decode
