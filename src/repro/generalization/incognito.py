"""Incognito-style full-domain generalization search with t-closeness.

Incognito (LeFevre, DeWitt & Ramakrishnan, SIGMOD 2005) finds all *minimal*
full-domain generalizations satisfying k-anonymity by a bottom-up,
level-wise walk of the generalization lattice, pruning upward thanks to
monotonicity: if a recoding vector satisfies the model, so does every more
general vector.  Li et al.'s original t-closeness paper (ICDE 2007) obtains
its algorithm by adding the t-closeness test to exactly this search — both
k-anonymity and EMD-based t-closeness are monotone along generalization
(coarser recodings merge classes, and merging classes can only move each
class's distribution toward the table's).

This implementation walks the product lattice of per-attribute levels
breadth-first from the most specific vector, with monotone pruning of
dominated vectors; for the handful of quasi-identifiers and levels typical
of full-domain recoding this is exact and fast.  (The original paper adds a
subset-lattice pre-filtering phase that accelerates — but does not change —
the result; it is omitted here.)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping

from ..constants import T_TOLERANCE
from ..data.dataset import Microdata
from .hierarchy import AttributeHierarchy
from .recoding import RecodedRelease, recode, recoding_loss


@dataclass(frozen=True)
class IncognitoResult:
    """Outcome of the lattice search.

    Attributes
    ----------
    release:
        The feasible recoding with the smallest Loss Metric.
    minimal_vectors:
        All minimal feasible recoding vectors (no strictly-less-general
        feasible vector exists), as level dicts.
    n_checked:
        Number of lattice nodes actually evaluated (pruning diagnostic).
    """

    release: RecodedRelease
    minimal_vectors: tuple[dict[str, int], ...]
    n_checked: int


def incognito(
    data: Microdata,
    hierarchies: Mapping[str, AttributeHierarchy],
    k: int,
    t: float | None = None,
    *,
    emd_mode: str = "distinct",
) -> IncognitoResult:
    """Find the minimal full-domain recoding meeting k-anonymity (+ t).

    Parameters
    ----------
    data:
        Microdata with quasi-identifier and confidential roles.
    hierarchies:
        One :class:`AttributeHierarchy` per quasi-identifier.
    k:
        k-anonymity requirement.
    t:
        Optional t-closeness requirement (EMD threshold); ``None`` checks
        k-anonymity only.
    emd_mode:
        EMD flavour for the t-closeness test.

    Raises
    ------
    ValueError
        If even the fully-suppressed vector fails (cannot happen for
        ``k <= n``, since one single class contains all records and has
        EMD zero).
    """
    names = list(data.quasi_identifiers)
    if not names:
        raise ValueError("dataset has no quasi-identifiers")
    missing = set(names) - set(hierarchies)
    if missing:
        raise ValueError(f"no hierarchy for quasi-identifier(s): {sorted(missing)}")
    if not 1 <= k <= data.n_records:
        raise ValueError(f"k must be in [1, {data.n_records}], got {k}")
    if t is not None and t < 0:
        raise ValueError(f"t must be >= 0, got {t}")

    max_levels = [hierarchies[name].n_levels for name in names]

    def satisfies(vector: tuple[int, ...]) -> tuple[bool, RecodedRelease]:
        release = recode(
            data, hierarchies, {name: lv for name, lv in zip(names, vector)}
        )
        if release.k_level() < k:
            return False, release
        if t is not None and release.t_level(emd_mode=emd_mode) > t + T_TOLERANCE:
            return False, release
        return True, release

    # Level-wise walk: frontier of height h holds all not-yet-pruned
    # vectors whose coordinates sum to h.
    feasible: list[tuple[tuple[int, ...], RecodedRelease]] = []
    dominated: set[tuple[int, ...]] = set()
    n_checked = 0
    all_vectors = sorted(
        product(*(range(m + 1) for m in max_levels)), key=sum
    )
    for vector in all_vectors:
        if vector in dominated:
            continue
        n_checked += 1
        ok, release = satisfies(vector)
        if ok:
            feasible.append((vector, release))
            # Monotonicity: every more general vector also satisfies the
            # model; mark the up-set as dominated so it is never evaluated.
            _mark_upset(vector, max_levels, dominated)

    if not feasible:  # pragma: no cover - the all-suppressed node always passes
        raise ValueError("no feasible generalization found")

    minimal = tuple(
        {name: lv for name, lv in zip(names, vector)} for vector, _ in feasible
    )
    best_release = min(
        (release for _, release in feasible),
        key=lambda r: recoding_loss(hierarchies, r.levels),
    )
    return IncognitoResult(
        release=best_release, minimal_vectors=minimal, n_checked=n_checked
    )


def _mark_upset(
    vector: tuple[int, ...],
    max_levels: list[int],
    dominated: set[tuple[int, ...]],
) -> None:
    """Add every strictly-more-general vector to the dominated set."""
    ranges = [range(v, m + 1) for v, m in zip(vector, max_levels)]
    for candidate in product(*ranges):
        if candidate != vector:
            dominated.add(candidate)
