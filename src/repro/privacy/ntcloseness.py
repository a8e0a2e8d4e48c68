"""(n, t)-closeness verification (Li, Li & Venkatasubramanian, TKDE 2010).

(n, t)-closeness relaxes t-closeness: an equivalence class E complies if
*some* "natural" superset E' of at least n records has EMD(E, E') <= t —
the intuition being that learning which large neighbourhood a subject
belongs to is acceptable, as long as the class reveals little beyond that
neighbourhood.  The paper notes its algorithms "are easily adaptable to
(n, t)-closeness"; this module provides the corresponding verifier.

Deciding over *all* natural supersets is intractable; following the
original authors' own evaluation strategy, the verifier checks the natural
candidates for microaggregated releases: for each class, the supersets
obtained by absorbing the nearest equivalence classes (in released
quasi-identifier space) one by one until at least n records are covered.
"""

from __future__ import annotations

import numpy as np

from ..constants import T_TOLERANCE
from ..core.confidential import ConfidentialModel
from ..data.dataset import Microdata
from ..microagg.partition import Partition
from .kanonymity import equivalence_classes


def nt_closeness_level(
    data: Microdata,
    n: int,
    *,
    classes: Partition | None = None,
    emd_mode: str = "distinct",
) -> float:
    """Smallest t such that the release satisfies (n, t)-closeness.

    For each class, grows a neighbourhood by repeatedly absorbing the
    nearest other class (by released QI centroid) until it holds >= n
    records, and takes the *minimum* EMD between the class and any
    intermediate neighbourhood of >= n records (any of them is a candidate
    natural superset).  The level is the maximum of those minima over
    classes.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if classes is None:
        classes = equivalence_classes(data)
    if n > data.n_records:
        raise ValueError(
            f"n={n} exceeds the number of records ({data.n_records})"
        )
    model = ConfidentialModel(data, emd_mode=emd_mode)
    qi = data.matrix(data.quasi_identifiers)
    members = list(classes.clusters())
    centroids = np.stack([qi[m].mean(axis=0) for m in members])

    worst = 0.0
    for g, base in enumerate(members):
        diffs = centroids - centroids[g]
        order = np.argsort(np.einsum("ij,ij->i", diffs, diffs), kind="stable")
        neighbourhood = base
        best = np.inf
        for other in order:
            if other != g:
                neighbourhood = np.concatenate([neighbourhood, members[other]])
            if len(neighbourhood) >= n:
                best = min(best, _emd_between(model, base, neighbourhood))
                # Growing further can only help, but the minimum over all
                # valid supersets is what defines the level; keep scanning
                # until the neighbourhood covers everything.
        if not np.isfinite(best):  # pragma: no cover - n <= n_records above
            best = _emd_between(model, base, np.arange(data.n_records))
        worst = max(worst, float(best))
    return worst


def is_nt_close(
    data: Microdata,
    n: int,
    t: float,
    *,
    classes: Partition | None = None,
    emd_mode: str = "distinct",
) -> bool:
    """Whether every class has a >= n-record natural superset within EMD t."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    level = nt_closeness_level(data, n, classes=classes, emd_mode=emd_mode)
    return level <= t + T_TOLERANCE


def _emd_between(
    model: ConfidentialModel, part: np.ndarray, whole: np.ndarray
) -> float:
    """EMD between a class and one of its supersets (max over attributes).

    (n, t)-closeness compares a class against a *superset*, not the full
    table, so the comparison universe is the superset's own values: ordered
    attributes get a local bin frame built on ``values[whole]`` (in the
    model's EMD flavour), nominal attributes keep their fixed category set
    (absent categories carry zero mass on both sides).
    """
    from ..distance.emd import NominalEMDReference, OrderedEMDReference

    worst = 0.0
    for ref, values, spec in zip(model._refs, model._values, model._specs):
        if isinstance(ref, NominalEMDReference):
            local = NominalEMDReference(values[whole], spec.n_categories)
            value = local.emd(values[part])
        else:
            local = OrderedEMDReference(values[whole], mode=model.emd_mode)
            value = local.emd(values[part])
        worst = max(worst, value)
    return worst
