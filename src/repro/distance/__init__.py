"""Distances between records and between confidential-value distributions."""

from .emd import (
    ClusterEMDTracker,
    NominalClusterTracker,
    NominalEMDFrame,
    NominalEMDReference,
    OrderedEMDFrame,
    OrderedEMDReference,
    emd_hierarchical,
    emd_nominal,
    emd_ordered,
)
from .emd import EMDModeSpec
from .records import (
    QIEncoder,
    centroid,
    encode_mixed,
    farthest_index,
    k_nearest_indices,
    nearest_index,
    pairwise_sq_distances,
    sq_distances_to,
)
from .taxonomy import Taxonomy, TaxonomyError

__all__ = [
    "OrderedEMDReference",
    "OrderedEMDFrame",
    "ClusterEMDTracker",
    "NominalEMDReference",
    "NominalEMDFrame",
    "NominalClusterTracker",
    "emd_ordered",
    "emd_nominal",
    "emd_hierarchical",
    "Taxonomy",
    "TaxonomyError",
    "sq_distances_to",
    "pairwise_sq_distances",
    "centroid",
    "farthest_index",
    "nearest_index",
    "k_nearest_indices",
    "encode_mixed",
    "QIEncoder",
    "EMDModeSpec",
]
