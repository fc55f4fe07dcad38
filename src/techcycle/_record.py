"""Immutable value records built without code generation.

``frozen`` gives a class a constructor, comparison, hash and repr from one
set of shared functions that read the field names from a closure, so
decorating a class compiles nothing.
"""


def frozen(cls):
    """Make ``cls`` an immutable record of its annotated fields, in order.

    Why: data-class code generation cost about 1.25 ms per class at import.

    Fields take positional or keyword arguments; class attributes serve as
    defaults, shared by every instance, so they must be immutable.
    ``__post_init__``, if defined, runs after the fields are set and may
    update them with ``object.__setattr__``.  Assigning or deleting an
    attribute raises ``AttributeError``.  Records are equal when they are
    of the same class with equal field values, and hash as the tuple of
    those values.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    name_set = frozenset(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    label = cls.__qualname__

    def __init__(self, *args, **kwargs):
        if args:
            if len(args) > len(names) or not kwargs.keys().isdisjoint(names[: len(args)]):
                raise TypeError(f"{label}() takes each of its {len(names)} fields at most once")
            kwargs.update(zip(names, args))  # **kwargs is a fresh dict on every call
        if defaults:
            kwargs = {**defaults, **kwargs}
        if kwargs.keys() != name_set:
            wrong = ", ".join(sorted(kwargs.keys() ^ name_set))
            raise TypeError(f"{label}() fields missing or unknown: {wrong}")
        self.__dict__.update(kwargs)
        if post_init is not None:
            post_init(self)

    def fields(self):
        return tuple(map(self.__dict__.__getitem__, names))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
        return f"{label}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{label}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
