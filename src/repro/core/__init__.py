"""The paper's contribution: three microaggregation algorithms for t-closeness."""

from .anonymizer import METHODS, anonymize, resolve_method
from .base import TClosenessResult
from .bounds import (
    adjust_cluster_size,
    emd_lower_bound,
    emd_upper_bound,
    required_cluster_size,
    tclose_first_cluster_size,
)
from .confidential import ClusterTrackerSet, ConfidentialModel
from .kanon_first import kanonymity_first
from .merge import merge_to_t_closeness, microaggregation_merge
from .model import Anonymizer, NotFittedError, RunReport
from .policy import (
    DistinctLDiversity,
    KAnonymity,
    PolicyError,
    PrivacyPolicy,
    PSensitivity,
    Requirement,
    TCloseness,
    as_policy,
)
from .repair import PolicyInfeasibleError, cluster_distinct_counts, enforce_policy
from .tclose_first import tcloseness_first

__all__ = [
    "anonymize",
    "resolve_method",
    "Anonymizer",
    "NotFittedError",
    "RunReport",
    "TClosenessResult",
    "METHODS",
    "PrivacyPolicy",
    "Requirement",
    "KAnonymity",
    "TCloseness",
    "DistinctLDiversity",
    "PSensitivity",
    "PolicyError",
    "as_policy",
    "enforce_policy",
    "cluster_distinct_counts",
    "PolicyInfeasibleError",
    "microaggregation_merge",
    "merge_to_t_closeness",
    "kanonymity_first",
    "tcloseness_first",
    "ConfidentialModel",
    "ClusterTrackerSet",
    "emd_lower_bound",
    "emd_upper_bound",
    "required_cluster_size",
    "adjust_cluster_size",
    "tclose_first_cluster_size",
]
