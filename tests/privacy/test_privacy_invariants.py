"""Property-based privacy invariants for all four anonymization paths.

For *every* generated table — mixed quasi-identifier schemas crossed with
the full sensitive-attribute distribution space of ``tests.strategies``
(tie-free numeric, heavily tied numeric, skewed ordinal, skewed nominal,
multi-attribute) — and every drawn (k, t), the output of each algorithm
path must satisfy both formal guarantees:

* **k-anonymity**: every cluster holds at least k records and the clusters
  cover the table exactly;
* **t-closeness**: the *dense* Definition-2 verifier of
  ``repro.privacy.tcloseness`` accepts the partition.  The verifier
  evaluates EMDs with the dense float histogram arithmetic, deliberately
  independent of the exact integer numerators and incremental trackers
  the algorithms themselves decide on — if the exact path ever
  under-estimated an EMD, the algorithms would stop refining too early
  and this suite would catch the violation.

The four paths: Algorithm 1 over MDAV, Algorithm 1 over V-MDAV,
Algorithm 2 (kanon-first, swap refinement + merge fallback) and
Algorithm 3 (tclose-first, t-close by construction).

The main invariant tests additionally run every path in each execution
context of ``tests.contexts.CONTEXTS`` (calling thread, two threads at
once, two forked processes), so the formal guarantees are asserted on
every copy across the full generated input space — not just on the fixed
golden datasets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import anonymize, kanonymity_first, microaggregation_merge
from repro.core.tclose_first import tcloseness_first
from repro.microagg import vmdav
from repro.privacy.tcloseness import is_t_close, t_closeness_level

from ..contexts import CONTEXTS
from ..strategies import microdata

#: Sensitive kinds with a single rankable column — Algorithm 3's input
#: contract (it needs a total order on confidential values).
RANKABLE_KINDS = ("numeric", "numeric-tied", "ordinal")

RUNNERS = {
    "merge-mdav": microaggregation_merge,
    "merge-vmdav": lambda data, k, t: microaggregation_merge(
        data, k, t, partitioner=lambda X, kk: vmdav(X, kk, gamma=0.2)
    ),
    "kanon-first": kanonymity_first,
    "tclose-first": tcloseness_first,
}


def assert_privacy_invariants(data, result, k, t):
    """The two formal guarantees plus partition sanity, verified densely."""
    # k-anonymity at the cluster level (the release masks each cluster to
    # one QI representative, so classes coincide with clusters).
    result.partition.validate_min_size(k)
    assert result.partition.sizes().sum() == data.n_records
    # Formal dense t-closeness verifier, independent of the exact paths.
    assert is_t_close(data, t, classes=result.partition), (
        f"dense verifier rejects: achieved "
        f"{t_closeness_level(data, classes=result.partition)} > t={t}"
    )
    # The reported per-cluster EMDs (exact ratios, correctly rounded) must
    # agree with the dense verdict to float precision.
    assert result.max_emd <= t + 1e-9


@pytest.mark.parametrize("run", CONTEXTS)
@pytest.mark.parametrize("name", ["merge-mdav", "merge-vmdav", "kanon-first"])
@settings(max_examples=25)
@given(
    data=microdata(confidential="any"),
    k=st.integers(2, 5),
    t=st.floats(0.05, 0.5),
)
def test_privacy_invariants(name, run, data, k, t):
    for result in run(lambda: RUNNERS[name](data, k, t)):
        assert_privacy_invariants(data, result, k, t)


@pytest.mark.parametrize("run", CONTEXTS)
@settings(max_examples=25)
@given(
    data=microdata(confidential="numeric"),
    k=st.integers(2, 5),
    t=st.floats(0.05, 0.5),
)
def test_privacy_invariants_tclose_first(run, data, k, t):
    """Tie-free confidential values, *release path*: rank and distinct EMD
    coincide, so Proposition 2 covers every one-record-per-bucket cluster —
    but the extra-record rule (the ``n mod k'`` leftovers parked centrally,
    Figures 3-4) sits outside the proposition, and on small tables a
    cluster holding an extra record can exceed t.  The release lifecycle
    repairs exactly that (``repro.core.repair``), so the released partition
    must always pass the dense verifier."""
    for _, result in run(lambda: anonymize(data, k, t, method="tclose-first")):
        assert_privacy_invariants(data, result, k, t)


@settings(max_examples=25)
@given(
    data=microdata(confidential="numeric"),
    k=st.integers(2, 5),
    t=st.floats(0.05, 0.5),
)
def test_tclose_first_raw_construction_bound(data, k, t):
    """The raw construction, without repair: when the effective cluster
    size divides n — equal buckets, no extra records, exactly Proposition
    2's setting (tie-free values make distinct EMD equal rank EMD, the
    bound's formulation) — every cluster is within the bound.  With a
    remainder, both the uneven buckets and the extra-record rule fall
    outside the proposition and the bound may be exceeded (which is what
    the release path's repair exists for)."""
    result = tcloseness_first(data, k, t)
    result.partition.validate_min_size(k)
    assert result.partition.sizes().sum() == data.n_records
    if data.n_records % result.info["effective_k"] == 0:
        assert result.info["n_extra_records"] == 0
        assert (result.cluster_emds <= result.info["emd_bound"] + 1e-9).all()


@settings(max_examples=25)
@given(
    data=microdata(confidential=RANKABLE_KINDS),
    k=st.integers(2, 5),
    t=st.floats(0.05, 0.5),
)
def test_privacy_invariants_tclose_first_rank_mode(data, k, t):
    """Tied/ordinal confidential values, *release path*: Proposition 2 is
    stated for the rank (per-record bins) formulation, so the dense
    rank-mode verifier is the formal check — distinct-mode EMD may
    legitimately exceed t on ties (the paper's construction slices
    *ranks*, not distinct values).  The extra-record caveat applies in
    rank mode exactly as in distinct mode (the rule sits outside the
    proposition whenever k' does not divide n), so the guarantee is made
    on the repaired release, not the raw construction."""
    _, result = anonymize(data, k, t, method="tclose-first", emd_mode="rank")
    result.partition.validate_min_size(k)
    assert result.partition.sizes().sum() == data.n_records
    assert is_t_close(data, t, classes=result.partition, emd_mode="rank")


@settings(max_examples=15)
@given(
    data=microdata(confidential="any"),
    k=st.integers(2, 4),
    t=st.floats(0.05, 0.4),
)
def test_kanon_first_swap_phase_never_weakens_privacy(data, k, t):
    """Even without the merge fallback the swap phase preserves k-anonymity
    and never reports an EMD below what the dense verifier measures."""
    result = kanonymity_first(data, k, t, merge_fallback=False)
    result.partition.validate_min_size(k)
    assert result.partition.sizes().sum() == data.n_records
    achieved = t_closeness_level(data, classes=result.partition)
    # Reported (exact) worst EMD agrees with the dense measurement.
    assert result.max_emd == pytest.approx(achieved, abs=1e-9)
    # satisfies_t must never claim more privacy than the dense verifier.
    if result.satisfies_t:
        assert is_t_close(data, t, classes=result.partition)
