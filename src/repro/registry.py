"""Named registries for pluggable implementations.

Three extension points of the library are discoverable by name:

* **methods** — the anonymization algorithms behind
  :func:`repro.anonymize` and :class:`repro.Anonymizer` (the paper's three
  algorithms ship pre-registered; third parties add their own with
  :func:`register_method`);
* **partitioners** — fixed-size microaggregation heuristics usable as
  Algorithm 1's base step (``mdav``, ``vmdav``, ...);
* **EMD modes** — flavours of the ordered Earth Mover's Distance
  (``distinct`` per Li et al., ``rank`` per the paper's propositions).

Each registry is a read-only mapping from name to implementation, so
``sorted(METHODS)``, ``"merge" in METHODS`` and ``METHODS["merge"]`` all
work, and the CLI / sweep runner enumerate choices without hard-coding
them.  Registration happens at definition site::

    from repro.registry import register_method

    @register_method("my-algorithm")
    def my_algorithm(data, k, t, **kwargs):
        ...

The built-in entries are registered when their defining modules import,
which ``repro`` (and ``repro.core``) trigger eagerly — importing this
module *alone* yields registries that only fill up once the rest of the
library loads.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, TypeVar

T = TypeVar("T")


class RegistryError(KeyError, ValueError):
    """Raised on lookup of an unregistered name (lists what is available).

    Inherits both ``KeyError`` (it is a failed mapping lookup) and
    ``ValueError`` (the historical type raised for unknown method names, so
    pre-registry callers' ``except ValueError`` handlers keep working).
    """

    def __str__(self) -> str:
        # KeyError.__str__ shows repr(args[0]) — wrong for a sentence.
        return str(self.args[0]) if self.args else ""


class Registry(Mapping[str, T]):
    """A read-only mapping of names to implementations with decorator entry.

    Parameters
    ----------
    kind:
        Human-readable noun for error messages ("method", "partitioner").
    """

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._entries: dict[str, T] = {}

    # -- registration -----------------------------------------------------------

    def register(self, name: str, obj: T | None = None) -> Callable[[T], T] | T:
        """Register ``obj`` under ``name``; usable as a decorator.

        ``register("x")`` returns a decorator; ``register("x", fn)``
        registers immediately and returns ``fn``.  Re-registering a taken
        name raises — replacing an implementation must be an explicit
        :meth:`unregister` first, never an accident of import order.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self._kind} name must be a non-empty string")

        def _add(impl: T) -> T:
            if name in self._entries:
                raise ValueError(
                    f"{self._kind} {name!r} is already registered "
                    f"({self._entries[name]!r}); unregister it first"
                )
            self._entries[name] = impl
            return impl

        if obj is not None:
            return _add(obj)
        return _add

    def unregister(self, name: str) -> T:
        """Remove and return the entry for ``name`` (for tests/extensions)."""
        self.resolve(name)  # raises RegistryError with the available names
        return self._entries.pop(name)

    # -- lookup ------------------------------------------------------------------

    def resolve(self, name: str) -> T:
        """Look up ``name``; unknown names raise listing the alternatives.

        (The inherited :meth:`Mapping.get` keeps its stdlib contract —
        returns ``default`` on a miss — so the raising lookup has its own
        name.)
        """
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self._kind} {name!r}; "
                f"expected one of {sorted(self._entries)}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """Registered names, sorted."""
        return tuple(sorted(self._entries))

    # -- Mapping protocol ---------------------------------------------------------

    def __getitem__(self, name: str) -> T:
        return self.resolve(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self._kind}: {sorted(self._entries)})"


#: Anonymization algorithms: ``(data, k, t, **kwargs) -> TClosenessResult``.
METHODS: Registry = Registry("method")

#: Fixed-size partitioners: ``(X, k) -> Partition`` over an encoded matrix.
PARTITIONERS: Registry = Registry("partitioner")

#: Ordered-EMD flavours: name -> :class:`EMDModeSpec`.
EMD_MODES: Registry = Registry("EMD mode")


def register_method(name: str, fn: Callable | None = None):
    """Register an anonymization algorithm under ``name`` (decorator)."""
    return METHODS.register(name, fn)


def register_partitioner(name: str, fn: Callable | None = None):
    """Register a fixed-size partitioner under ``name`` (decorator)."""
    return PARTITIONERS.register(name, fn)


def register_emd_mode(name: str, spec=None):
    """Register an ordered-EMD mode descriptor under ``name`` (decorator)."""
    return EMD_MODES.register(name, spec)
