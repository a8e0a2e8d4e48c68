"""repro — t-closeness through microaggregation.

A from-scratch reproduction of Soria-Comas, Domingo-Ferrer, Sánchez &
Martínez, *"t-Closeness through Microaggregation: Strict Privacy with
Enhanced Utility Preservation"* (IEEE TKDE / ICDE 2016): three
microaggregation algorithms that produce k-anonymous t-close microdata
releases, plus the substrates they rest on (microdata model, EMD distances,
MDAV-family partitioners, privacy verifiers, generalization baselines and
information-loss metrics).

Quickstart — one-shot release::

    >>> from repro import anonymize
    >>> from repro.data import load_mcd
    >>> release, result = anonymize(load_mcd(), k=5, t=0.15, method="tclose-first")
    >>> result.satisfies_t
    True

Quickstart — composable policies and the fit/transform lifecycle::

    >>> from repro import Anonymizer, KAnonymity, TCloseness, DistinctLDiversity
    >>> policy = KAnonymity(5) & TCloseness(0.15) & DistinctLDiversity(3)
    >>> model = Anonymizer(policy).fit(load_mcd())
    >>> release = model.release_            # release of the fitted table
    >>> served = model.transform(batch)     # map new records to fitted clusters
    >>> model.save("model.npz")             # ship to server workers; Anonymizer.load
    >>> model.audit().satisfied             # independent policy audit
    True

Algorithms, partitioners and EMD modes are discovered through the named
registries in :mod:`repro.registry`; extensions register their own with
``@register_method`` / ``@register_partitioner`` / ``register_emd_mode``.
Every hot path (clustering, swap scoring, batch serving) calls its
distance, scoring and nearest-representative primitives on a
:class:`SerialBackend` (:mod:`repro.backend`); ``backend=`` on
``anonymize`` / ``Anonymizer`` takes ``"serial"`` or an instance, so a
subclass can count, time or replace those three calls.
"""

from .backend import SerialBackend
from .core import (
    METHODS,
    Anonymizer,
    DistinctLDiversity,
    KAnonymity,
    PrivacyPolicy,
    PSensitivity,
    Requirement,
    RunReport,
    TCloseness,
    TClosenessResult,
    anonymize,
    emd_lower_bound,
    emd_upper_bound,
    kanonymity_first,
    microaggregation_merge,
    required_cluster_size,
    tclose_first_cluster_size,
    tcloseness_first,
)
from .core.validation import BatchSchemaError, DataValidationError, ValidationError
from .data import Microdata
from .registry import EMD_MODES, PARTITIONERS, Registry
from .runtime import (
    ArtifactCorruptError,
    ArtifactError,
    ArtifactMissingError,
    ArtifactVersionError,
    CheckpointStore,
)

# Serving imports stay last: repro.core must be loaded before repro.serving
# (core.model closes the core↔serving import cycle).
from .serving import (
    AnonymizationService,
    ModelRegistry,
    ServingMetrics,
    TransformModel,
)

__version__ = "1.1.0"

__all__ = [
    "anonymize",
    "Anonymizer",
    "TClosenessResult",
    "RunReport",
    "PrivacyPolicy",
    "Requirement",
    "KAnonymity",
    "TCloseness",
    "DistinctLDiversity",
    "PSensitivity",
    "METHODS",
    "PARTITIONERS",
    "EMD_MODES",
    "Registry",
    "Microdata",
    "microaggregation_merge",
    "kanonymity_first",
    "tcloseness_first",
    "emd_lower_bound",
    "emd_upper_bound",
    "required_cluster_size",
    "tclose_first_cluster_size",
    "ValidationError",
    "DataValidationError",
    "BatchSchemaError",
    "ArtifactError",
    "ArtifactMissingError",
    "ArtifactCorruptError",
    "ArtifactVersionError",
    "CheckpointStore",
    "SerialBackend",
    "AnonymizationService",
    "ModelRegistry",
    "ServingMetrics",
    "TransformModel",
    "__version__",
]
