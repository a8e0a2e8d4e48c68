"""Resolution of the ``backend=`` argument every public entry point takes.

There is one compute backend, :class:`~repro.backend.serial.SerialBackend`
(the three hot primitives callers can substitute);
:func:`resolve_backend` is the single resolution path.  ``None`` and
``"serial"`` resolve to one shared :class:`SerialBackend` instance, an
instance (a subclass included) passes through unchanged, and any other
name raises.  The backend is an execution detail: it is deliberately
**not** serialized into saved models.
"""

from __future__ import annotations

import inspect

from ..registry import RegistryError
from .serial import SerialBackend

#: The instance ``None`` and ``"serial"`` resolve to.
_SHARED = SerialBackend()


def resolve_backend(spec: "SerialBackend | str | None" = None) -> SerialBackend:
    """Resolve a backend argument to a live :class:`SerialBackend`.

    ``None`` and ``"serial"`` give the process-wide shared instance; a
    :class:`SerialBackend` instance (a subclass included) passes through
    unchanged.  Any other name raises
    :class:`~repro.registry.RegistryError` (a ``ValueError``) naming
    ``"serial"``, so a caller still asking for a retired backend fails at
    construction instead of silently running serial.
    """
    if spec is None:
        return _SHARED
    if isinstance(spec, str):
        if spec == "serial":
            return _SHARED
        raise RegistryError(f"unknown backend {spec!r}; expected one of ['serial']")
    if isinstance(spec, SerialBackend):
        return spec
    raise TypeError(
        f"backend must be 'serial', a SerialBackend instance or None, "
        f"got {type(spec).__name__}"
    )


def accepts_backend(fn) -> bool:
    """Whether ``fn`` explicitly names a ``backend`` keyword parameter.

    The forwarding guard for registry-discovered callables (methods,
    partitioners): built-ins take ``backend=`` and receive the session's
    choice; a third-party callable without the parameter is simply called
    as before — never surprised with an unknown keyword (``**kwargs``
    catch-alls deliberately don't count, since such a callable gives no
    evidence it understands the argument).
    """
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False
    return "backend" in params
