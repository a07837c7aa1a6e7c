"""Frozen records: field holders whose methods are shared functions, so that
defining one compiles no generated code. `@frozen` makes a class's
annotations its fields, in order, with class attributes as defaults; a
record is built positionally or by keyword, runs `__post_init__`, refuses
assignment and deletion, and compares and hashes over its `__init__` fields.
A field whose default is `DERIVED` is set by `__post_init__` alone."""
from operator import attrgetter

DERIVED = object()
fields = attrgetter("_fields")  # the field names of a record or its class


def _init(self, *args, **kwargs):
    cls = type(self)
    names = cls._init_fields
    values = dict(cls._defaults, **dict(zip(names, args)), **kwargs)
    if len(args) > len(names) or set(values) != set(names):
        raise TypeError(f"{cls.__qualname__}.__init__() takes {names}, got "
                        f"{len(args)} positional and the keywords {sorted(kwargs)}")
    self.__dict__.update(values)
    if hasattr(cls, "__post_init__"):
        self.__post_init__()


def _frozen(self, name, value=None):
    raise AttributeError(f"field {name!r} of a frozen {type(self).__name__} is fixed")


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self._key(self) == self._key(other)


def _hash(self):
    return hash(self._key(self))


def _repr(self):
    inner = ", ".join(f"{n}={v!r}" for n, v in asdict(self).items())
    return f"{type(self).__qualname__}({inner})"


def frozen(cls):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    init = tuple(n for n in names if cls.__dict__.get(n) is not DERIVED)
    cls._fields, cls._init_fields, cls._key = names, init, attrgetter(*init)
    cls._defaults = {n: cls.__dict__[n] for n in init if n in cls.__dict__}
    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = _init, _eq, _hash, _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def asdict(record) -> dict:
    """{field name: value} of a record, shallow."""
    return {n: getattr(record, n) for n in record._fields}
