"""One small base for the package's record classes.

A subclass lists its fields once, as class annotations, each with an
optional default: a plain value or a `field`.  When the class is created
the base writes a straight-line `__init__` for it with one `exec`, as
PEP 557 data classes do (a loop over the fields in one shared `__init__`
would slow every AST and query-graph build).  Records compare their
fields as tuples, list them in `__repr__` and are unhashable; a subclass
of a record does not inherit its fields.
"""

from operator import attrgetter

_NONE = object()


class field:
    """A default built per instance by `factory()`, or a plain `default`;
    `init=False` keeps the field out of `__init__`, `shown=False` out of
    `__repr__` and `__eq__`."""

    def __init__(self, default=_NONE, *, factory=None, init=True, shown=True):
        self.default, self.factory, self.init, self.shown = default, factory, init, shown


class Record:
    __hash__ = None

    def __init_subclass__(cls):
        params, body, env = ["self"], [], {"_NONE": _NONE}
        specs = {name: vars(cls).get(name, _NONE) for name in cls.__annotations__}
        for name, spec in specs.items():
            if isinstance(spec, field):  # as a class attribute it would slow
                delattr(cls, name)  # every access to the instance's value
            else:
                spec = specs[name] = field(spec)
            env[f"_d_{name}"], env[f"_f_{name}"] = spec.default, spec.factory
            value = f"_f_{name}()" if spec.factory else f"_d_{name}"
            if spec.init and spec.factory:
                params.append(f"{name}=_NONE")
                value = f"{value} if {name} is _NONE else {name}"
            elif spec.init:
                params.append(name if spec.default is _NONE else f"{name}={value}")
                value = name
            body.append(f"\n    self.{name} = {value}")
        exec(f"def __init__({', '.join(params)}):{''.join(body) or ' pass'}", env)
        cls.__init__ = env["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls._shown = [name for name, spec in specs.items() if spec.shown]
        cls._key = attrgetter("__class__", *cls._shown)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"
