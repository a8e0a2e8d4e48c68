"""The compute backend behind the library's hot primitives.

See :mod:`repro.backend.serial` for :class:`SerialBackend` (the three
primitives callers can substitute), :mod:`repro.backend.base` for the
``backend=`` resolution rules, and :mod:`repro.backend.kernels` for the
canonical distance arithmetic those primitives execute.
"""

from .base import accepts_backend, resolve_backend
from .kernels import iter_blocks, sq_distances_block
from .serial import SerialBackend

__all__ = [
    "SerialBackend",
    "accepts_backend",
    "iter_blocks",
    "resolve_backend",
    "sq_distances_block",
]
