"""The base of the package's enums.

The settlement step reads enum members on every call: it compares phases and
states, hashes kinds into the spec, handler and enabled-set tables, writes
five member values into every event and turns the role and kind of every
replayed event back into members. CPython 3.11's ``Enum`` makes each of these
a few hundred nanoseconds: ``EnumType`` defines ``__getattr__``, so even
``Phase.TRANSACTION`` takes a slow attribute path; a member hashes with a
Python-level ``hash(self._name_)``; ``value`` is a Python-level property; and
``Role(value)`` runs through ``EnumType.__call__`` and ``Enum.__new__``.

``SuretyEnum`` is a small enum of the package's own that keeps what the
package uses of ``Enum`` and none of those costs:

* Each public name in a class body becomes a member: an instance stored as a
  plain class attribute, with ``name`` and ``value`` as plain attributes.
  The metaclass defines no ``__getattr__``, so a member reads as fast as any
  class attribute.
* Members hash by identity. A member is a singleton (pickling and copying
  give back the member itself), so identity hashing agrees with equality.
* ``Cls(value)`` is one lookup in a dict built at class creation, which also
  maps each member to itself. A miss raises the stdlib's error,
  ``'x' is not a valid Role``.
* Iterating a class gives its members in declaration order; ``str`` and
  ``repr`` read as the stdlib's (``Phase.CLOSED``, ``<Phase.CLOSED: 'CLOSED'>``).
"""

from __future__ import annotations


class SuretyEnumType(type):
    """The metaclass: makes the members, iterates them and looks values up."""

    def __new__(mcls, cls_name, bases, namespace):
        cls = super().__new__(mcls, cls_name, bases, namespace)
        members, lookup = [], {}
        for name, value in namespace.items():
            if not name.startswith("_"):
                member = object.__new__(cls)
                member.name, member.value = name, value
                setattr(cls, name, member)
                members.append(member)
                lookup[value] = lookup[member] = member
        cls._members, cls._lookup = tuple(members), lookup
        return cls

    def __iter__(cls):
        return iter(cls._members)

    def __call__(cls, value):
        try:
            return cls._lookup[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise ValueError(f"{value!r} is not a valid {cls.__qualname__}") from None


class SuretyEnum(metaclass=SuretyEnumType):
    """An enum whose members are singletons, hashed by identity."""

    def __reduce__(self):
        return type(self), (self.value,)

    def __str__(self) -> str:
        return f"{type(self).__name__}.{self.name}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__}.{self.name}: {self.value!r}>"
