"""t-Closeness verification on released microdata.

Checks Definition 2 of the paper directly: for every equivalence class of
the released table, the EMD between the class's confidential distribution
and the full table's must be at most t.  Crucially, the *reference*
distribution is taken from the released table itself — released
confidential values are unperturbed under microaggregation, so this equals
the original distribution — making the check self-contained on the release.
"""

from __future__ import annotations

import numpy as np

from ..constants import T_TOLERANCE
from ..core.confidential import ConfidentialModel
from ..data.dataset import Microdata
from ..microagg.partition import Partition
from .kanonymity import equivalence_classes


def class_emds(
    data: Microdata,
    *,
    classes: Partition | None = None,
    emd_mode: str = "distinct",
) -> np.ndarray:
    """Per-class EMD to the full table (max over confidential attributes).

    Uses the dense Definition-2 float evaluation
    (:meth:`~repro.core.confidential.ConfidentialModel.cluster_emd`),
    which shares no arithmetic with the exact ratios the anonymization
    algorithms decide on.
    """
    if classes is None:
        classes = equivalence_classes(data)
    model = ConfidentialModel(data, emd_mode=emd_mode)
    return np.array([model.cluster_emd(members) for members in classes.clusters()])


def t_closeness_level(
    data: Microdata,
    *,
    classes: Partition | None = None,
    emd_mode: str = "distinct",
) -> float:
    """The smallest t for which the release satisfies t-closeness."""
    return float(class_emds(data, classes=classes, emd_mode=emd_mode).max())


def is_t_close(
    data: Microdata,
    t: float,
    *,
    classes: Partition | None = None,
    emd_mode: str = "distinct",
) -> bool:
    """Whether every equivalence class is within EMD t of the full table.

    The threshold comparison uses the library-wide
    :data:`~repro.constants.T_TOLERANCE` shared with
    ``TClosenessResult.satisfies_t`` and the policy audit.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return (
        t_closeness_level(data, classes=classes, emd_mode=emd_mode)
        <= t + T_TOLERANCE
    )
