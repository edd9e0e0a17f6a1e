"""The one equality, hash and repr of the package's record classes.

A record is a plain `__slots__` class whose fields are its slots, in order,
and whose `__init__` is written by hand. Deriving from `Record` gives it
what `@dataclass(frozen=True)` would: `==` compares the field tuples of two
instances of the same class (`NotImplemented` for any other class), the
hash is that of the field tuple (so unhashable fields make an unhashable
record), and the repr is `Name(field=value!r, ...)`. A class's own method
still wins over these.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        get = attrgetter(*names)
        if len(names) == 1:     # attrgetter of one name returns it bare
            one = get
            get = lambda self: (one(self),)
        cls._field_values = staticmethod(get)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = self._field_values
        return get(self) == get(other)

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in
                           zip(self.__slots__, self._field_values(self)))
        return f"{self.__class__.__qualname__}({fields})"
