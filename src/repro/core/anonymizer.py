"""High-level anonymization API.

Wraps the registered algorithms behind one entry point, applies the
aggregation step (quasi-identifiers → cluster representatives) and returns
the release plus the run's diagnostics.  :func:`anonymize` is the one-shot
convenience; the full lifecycle (policies beyond k/t, fit/transform,
serializable models) lives in :class:`repro.core.model.Anonymizer`, of
which everything here is a thin shim.

Algorithms are discovered through the :data:`repro.registry.METHODS`
registry — the paper's three ship pre-registered; extensions add their own
with ``@register_method("name")`` and become available to this function,
the CLI and the sweep runner alike.
"""

from __future__ import annotations

from typing import Callable

from ..backend import SerialBackend
from ..data.dataset import Microdata

# Importing the algorithm modules registers the paper's three methods.
from ..registry import METHODS
from . import kanon_first, merge, tclose_first  # noqa: F401  (registration)
from .base import TClosenessResult
from .model import Anonymizer
from .policy import KAnonymity, TCloseness


def resolve_method(method: str) -> Callable[..., TClosenessResult]:
    """Look up a registered algorithm by name.

    The single validation path behind :func:`anonymize`, the CLI and the
    sweep runner; unknown names raise a ``ValueError`` listing the
    registered alternatives.
    """
    return METHODS.resolve(method)


def anonymize(
    data: Microdata,
    k: int,
    t: float,
    *,
    method: str = "tclose-first",
    backend: SerialBackend | str | None = None,
    **method_kwargs: object,
) -> tuple[Microdata, TClosenessResult]:
    """Produce a k-anonymous t-close release of ``data``.

    Parameters
    ----------
    data:
        Microdata with quasi-identifier and confidential roles assigned
        (identifier columns, if any, are dropped from the release).
    k:
        k-anonymity level (minimum records per equivalence class).
    t:
        t-closeness level (maximum EMD between any class's confidential
        distribution and the whole table's).
    method:
        A registered algorithm name: ``"merge"`` (Algorithm 1),
        ``"kanon-first"`` (Algorithm 2) or ``"tclose-first"`` (Algorithm 3,
        default — the paper's best performer on utility and speed).
    backend:
        Compute backend (``"serial"``, a
        :class:`~repro.backend.SerialBackend` instance, or ``None`` for
        the shared one).
    method_kwargs:
        Forwarded to the underlying algorithm (e.g. ``partitioner=`` for
        Algorithm 1, ``merge_fallback=`` for Algorithm 2).

    Returns
    -------
    (release, result):
        The anonymized dataset (quasi-identifiers replaced by cluster
        representatives, confidential attributes untouched, identifiers
        dropped) and the algorithm diagnostics.

    Notes
    -----
    This is a shim over ``Anonymizer(KAnonymity(k) & TCloseness(t),
    method=method).fit(data)``.  The repair phase engages only when the
    algorithm's raw output misses t (possible for Algorithm 3's
    extra-record clusters on small tables) — and is skipped entirely when
    the caller explicitly opted out of t enforcement with
    ``merge_fallback=False``, preserving that flag's raw-partition
    contract.
    """
    repair = method_kwargs.get("merge_fallback", True) is not False
    model = Anonymizer(
        KAnonymity(int(k)) & TCloseness(float(t)),
        method=method,
        repair=repair,
        backend=backend,
        **method_kwargs,
    ).fit(data)
    return model.release_, model.result_

