"""Masked, allocation-light clustering engine for MDAV-style partitioners.

Every partitioner in this library (MDAV, V-MDAV, and the clustering loops of
Algorithms 2 and 3) repeats the same three primitives over a shrinking set
of unassigned records: distance-to-a-point, extreme-record selection, and
k-nearest selection.  The direct implementations pay for that shrinkage with
a fresh fancy-indexed copy of the record matrix (``X[remaining]``) per
primitive per round — O(n^2 d / k) bytes of pure copying — plus a
from-scratch centroid re-average each round.

:class:`ClusteringEngine` owns the record matrix once and provides the same
primitives without per-round copies:

* **masked distance evaluation** — squared distances from a query point to
  every record in the active window are written into one preallocated
  buffer through a single preallocated column scratch (no n x d temporary,
  no per-round allocation); the arithmetic is the library's canonical
  kernel (:func:`repro.distance.records.sq_distances_to`'s column-
  sequential accumulation, compiled with FP contraction off when the host
  has a C compiler), so every record gets the bitwise-same distance the
  direct implementations compute — exact ties between distinct records
  (ubiquitous in categorical/integer data) stay exact ties.  Assigned
  records are masked out of selections with sentinel values rather than
  removed;
* **incremental centroid** — the coordinate sum of unassigned records is
  maintained by subtracting each assigned cluster, giving an O(d)
  :meth:`~ClusteringEngine.centroid_fast`; the default
  :meth:`~ClusteringEngine.centroid` instead reproduces the reference's
  gather-and-mean bitwise, because a running sum can drift a few ulp and
  an ulp is enough to break an exact distance tie differently;
* **geometric compaction** — when the fraction of live records in the
  window falls below ``compact_ratio`` the window is physically compacted
  (ascending record order preserved), so per-round work tracks the number
  of unassigned records like the copying implementations did, without their
  per-round copies;
* **k-nearest selection** — one pass over the distance buffer
  (:func:`repro.backend.kernels.k_nearest_live`, compiled when the host
  has a C compiler) keeps the k live records with the smallest
  (distance, id), in that order — the rule of
  :func:`repro.distance.records.k_smallest_indices`, with no gather of
  the live distances.

Equivalence contract
--------------------
Engine-backed partitioners are held (by
``tests/microagg/test_engine_equivalence.py``) to produce *identical*
partitions to the reference implementations, including tie-breaking:
distances use the canonical ``sq_distances_to`` arithmetic row-for-row,
the centroid is the reference's own gather-and-mean, all selections see
live records in ascending record order (exactly the reference code's
``remaining`` arrays), argmin/argmax take the lowest id on exact ties, and
k-nearest selection takes the k records with the smallest (distance, id)
— ``np.lexsort((ids, d2))[:k]`` over the reference's ``X[remaining]``,
the same on every host.  The golden
fixtures (continuous, mixed, integer-grid, categorical-only, univariate
and duplicate-heavy datasets) pin this down empirically, and
``tests/microagg/test_mdav_reference.py`` checks MDAV and V-MDAV against
a brute-force reference on that rule;
:meth:`ClusteringEngine.centroid_fast` is the one opt-out, trading that
guarantee for an O(d) centroid.

One caveat for archaeologists: "reference" means the seed *algorithms*
running on today's canonical ``sq_distances_to`` (the fixtures were
generated exactly so — seed tree plus the canonical kernel).  The seed
originally summed squares via ``einsum``, whose reduction order is a
numpy-build detail; canonicalizing the kernel changed distance rounding
in the last ulp, which on near-tie data can place a record differently
than a pre-canonicalization run on some particular numpy build would
have.  Exact ties and tie-breaking rules — the reproducible part — are
identical, and on integer-valued data (where every kernel is exact) so
are whole partitions.  (The k-nearest rule changed once: the seed left
boundary ties to ``argpartition``; the partitions that choice moved are
listed in ``scripts/generate_engine_golden.py``.)

Distance evaluations are delegated to the engine's compute backend
(:meth:`repro.backend.SerialBackend.eval_sq_distances`), called on the
instance the engine was given so a substituted backend sees every
evaluation, one call per evaluation; the k-nearest selection runs
:func:`~repro.backend.kernels.k_nearest_live` and the other selections
(masked argmin/argmax) are plain numpy calls on the distance buffer.
"""

from __future__ import annotations

import numpy as np

from ..backend import SerialBackend, resolve_backend
from ..backend.kernels import k_nearest_live
from ..distance.records import sq_distances_to

#: Below this many dead rows, compaction is skipped (not worth the copy).
_MIN_COMPACT_GAP = 32


class ClusteringEngine:
    """In-place partitioning primitives over one record matrix.

    Parameters
    ----------
    X:
        Record matrix (n x d), float-convertible.  The engine keeps a
        private working copy; the caller's array is never modified.
    compact_ratio:
        Compact the active window whenever the live fraction drops below
        this value (0 < ratio <= 1).  ``None`` disables compaction, which
        keeps window positions equal to record ids for the lifetime of the
        engine; callers that cache window positions across calls
        (Algorithm 3's bucket bookkeeping) instead watch
        :attr:`n_compactions` and refresh on change.
    backend:
        Compute backend whose ``eval_sq_distances`` fills the distance
        buffer: ``"serial"``, a :class:`~repro.backend.SerialBackend`
        instance, or ``None`` for the shared serial instance.
    """

    def __init__(
        self,
        X: np.ndarray,
        *,
        compact_ratio: float | None = 0.7,
        backend: SerialBackend | str | None = None,
    ) -> None:
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[0] == 0:
            raise ValueError("X must have at least one record")
        if compact_ratio is not None and not 0.0 < compact_ratio <= 1.0:
            raise ValueError(
                f"compact_ratio must be in (0, 1] or None, got {compact_ratio}"
            )
        n = X.shape[0]
        self._X = X  # original rows, addressed by record id
        self._backend = resolve_backend(backend)
        # The working copy is column-major and always a *copy* — even for
        # d == 1, where X.T is already contiguous — so compaction can
        # never write through into the caller's data.
        self._XwT = np.empty(X.T.shape)
        np.copyto(self._XwT, X.T)
        self._ids = np.arange(n, dtype=np.int64)  # window position -> id
        self._pos = np.arange(n, dtype=np.int64)  # record id -> position
        self._alive = np.ones(n, dtype=bool)  # by window position
        self._m = n  # active window length
        self._n_alive = n
        self._sum = X.sum(axis=0)  # coordinate sum of live records
        self._d2 = np.empty(n)  # distance buffer, window layout
        self._tmp = np.empty(n)  # per-column difference scratch
        self._ratio = compact_ratio
        self._dead_pos = np.empty(n, dtype=np.int64)  # kills since compaction
        self._n_dead = 0
        self._X_owned = False  # _X may alias caller data until replace_row
        self._n_evals = 0
        self._n_compactions = 0

    # -- introspection ---------------------------------------------------------

    @property
    def n_records(self) -> int:
        """Total number of records the engine was built over."""
        return self._X.shape[0]

    @property
    def n_alive(self) -> int:
        """Number of records not yet assigned (killed)."""
        return self._n_alive

    @property
    def window(self) -> int:
        """Current active-window length (``n_alive <= window <= n_records``)."""
        return self._m

    @property
    def backend(self) -> SerialBackend:
        """The compute backend filling this engine's distance buffer."""
        return self._backend

    @property
    def n_compactions(self) -> int:
        """Number of window compactions so far.

        Callers that cache window positions (:meth:`positions_of`) must
        refresh their caches whenever this counter changes.
        """
        return self._n_compactions

    @property
    def stats(self) -> dict[str, int]:
        """Counters for tests and benchmarks (evals, compactions)."""
        return {
            "n_evals": self._n_evals,
            "n_compactions": self._n_compactions,
        }

    def positions_of(self, record_ids: np.ndarray) -> np.ndarray:
        """Window positions of live records, for indexing the distance buffer.

        Positions stay valid until the next compaction (watch
        :attr:`n_compactions`).  Requesting positions of dead records is
        undefined: their entries go stale once a compaction drops them.
        """
        return self._pos[record_ids]

    def ids_at(self, positions: np.ndarray) -> np.ndarray:
        """Record ids at the given window positions (inverse of
        :meth:`positions_of`; same staleness rules apply)."""
        return self._ids[positions]

    def row(self, record_id: int) -> np.ndarray:
        """The (original) coordinate row of one record, dead or alive."""
        return self._X[record_id]

    def alive_ids(self) -> np.ndarray:
        """Ids of all unassigned records, ascending."""
        return self._ids[: self._m][self._alive[: self._m]]

    def centroid(self) -> np.ndarray:
        """Centroid of the unassigned records, reference arithmetic.

        Gathers the live rows and averages them exactly as the direct
        implementations did (``X[remaining].mean(axis=0)``), so the result
        is bitwise identical and exact distance ties to the centroid break
        the same way.  Costs O(n_alive * d); see :meth:`centroid_fast` for
        the O(d) running-sum alternative.
        """
        if self._n_alive == 0:
            raise ValueError("no records alive")
        return self._X[self.alive_ids()].mean(axis=0)

    def centroid_fast(self) -> np.ndarray:
        """Centroid from the incrementally maintained coordinate sum.

        O(d) instead of O(n_alive * d): the sum of live rows is updated by
        subtraction on every :meth:`kill`.  It can drift a few ulp from
        :meth:`centroid` after many rounds, which is harmless for clustering
        quality but *can* break an exact distance tie differently — use
        :meth:`centroid` where bitwise reproduction of the reference
        partitions matters.
        """
        if self._n_alive == 0:
            raise ValueError("no records alive")
        return self._sum / self._n_alive

    # -- distance evaluation ---------------------------------------------------

    def eval_distances(self, point: np.ndarray) -> np.ndarray:
        """Fill the distance buffer with squared distances from ``point``.

        Evaluates ``sum((row - point)^2)`` for every window row (live and
        dead) into the preallocated buffer and returns it (a view —
        invalidated by the next evaluation or compaction).  The evaluation
        is delegated to the engine's compute backend, which runs the
        canonical column-sequential kernel of
        :mod:`repro.backend.kernels` — the same arithmetic as
        :func:`~repro.distance.records.sq_distances_to`, elementwise
        ufuncs only, so the result is bitwise identical to that function
        (independent of the block layout), and exact distance ties are
        preserved everywhere the reference implementations had them.
        """
        m = self._m
        p = np.ascontiguousarray(point, dtype=np.float64)
        if len(p) == 0:
            self._d2[:m] = 0.0
            self._n_evals += 1
            return self._d2[:m]
        self._backend.eval_sq_distances(self._XwT, p, self._d2, self._tmp, m)
        self._n_evals += 1
        return self._d2[:m]

    def _masked(self, fill: float) -> np.ndarray:
        """The distance buffer with dead window rows set to ``fill``.

        Dead rows are overwritten through the list of kills accumulated
        since the last compaction — O(dead) scattered writes instead of an
        O(window) boolean pass (the window holds few dead rows by
        construction: compaction fires once they exceed ``1 - ratio``).
        """
        d2 = self._d2[: self._m]
        d2[self._dead_pos[: self._n_dead]] = fill
        return d2

    def masked_distances(self, fill: float = np.inf) -> np.ndarray:
        """Last evaluated distances with dead rows overwritten by ``fill``.

        Returns the window view of the internal buffer, indexed by window
        position (:meth:`positions_of`); gathers through live positions
        therefore see ``fill`` at every record killed since the evaluation.
        """
        return self._masked(fill)

    # -- selections ------------------------------------------------------------
    #
    # Every selection accepts point=None, meaning "reuse the last evaluated
    # distances".  Buffer values survive kill() (masking only overwrites dead
    # rows) and compaction (the buffer is compacted alongside the window), so
    # e.g. MDAV evaluates distances to an extreme record once and uses them
    # both to carve its cluster and to select the next seed afterwards.

    def farthest(self, point: np.ndarray | None = None) -> int:
        """Id of the live record farthest from ``point`` (ties: lowest id)."""
        if point is not None:
            self.eval_distances(point)
        d2 = self._masked(-np.inf)
        return int(self._ids[np.argmax(d2)])

    #: Relative margin below the maximum distance within which the fast
    #: centroid's ulp drift could conceivably reorder records.  The actual
    #: drift perturbs squared distances by ~1e-13 relative at most; 1e-6
    #: leaves seven orders of magnitude of safety while still making the
    #: exact re-adjudication a rare event on continuous data.
    _FARTHEST_MARGIN = 1e-6

    def farthest_from_centroid(self) -> int:
        """Id of the live record farthest from the live centroid.

        Scans with the O(d) running-sum centroid (:meth:`centroid_fast`)
        and, whenever more than one record lands within a conservative
        margin of the maximum — the only situation where the running sum's
        ulp drift could pick a different record — re-judges exactly those
        candidates against the exact reference centroid
        (:meth:`centroid`).  The selected record is therefore always the
        one the reference implementations' ``argmax`` over
        ``sq_distances_to(X[remaining], X[remaining].mean(axis=0))``
        selects, at running-sum cost on tie-free rounds.
        """
        self.eval_distances(self.centroid_fast())
        d2 = self._masked(-np.inf)
        top = int(np.argmax(d2))
        band = self._FARTHEST_MARGIN * (1.0 + abs(d2[top]))
        candidates = np.flatnonzero(d2 >= d2[top] - band)
        if candidates.size == 1:
            return int(self._ids[top])
        cand_ids = self._ids[candidates]  # ascending: flatnonzero order
        exact = sq_distances_to(self._X[cand_ids], self.centroid())
        return int(cand_ids[int(np.argmax(exact))])

    def nearest_with_value(
        self, point: np.ndarray | None = None
    ) -> tuple[int, float]:
        """Nearest live record and its squared distance (ties: lowest id).

        The value is the true squared distance (always >= 0), comparable
        against absolute thresholds (V-MDAV's extension test).
        """
        if point is not None:
            self.eval_distances(point)
        d2 = self._masked(np.inf)
        pos = int(np.argmin(d2))
        return int(self._ids[pos]), float(d2[pos])

    def k_nearest(self, k: int, point: np.ndarray | None = None) -> np.ndarray:
        """Ids of the ``k`` live records with the smallest (distance, id),
        in that order; every live record when ``k >= n_alive``.

        One pass over the distance buffer
        (:func:`~repro.backend.kernels.k_nearest_live`): window positions
        ascend with record ids, so the (distance, position) order is the
        (distance, id) order, and the result is the ``k``-prefix of a
        stable sort of the live records by distance — which lets
        Algorithm 2 take a seed's cluster and the first pool chunk after it
        without sorting a pool it usually never consumes.
        """
        if point is not None:
            self.eval_distances(point)
        return self._ids[k_nearest_live(self._d2, self._alive, self._m, k)]

    # -- state updates ---------------------------------------------------------

    def replace_row(self, record_id: int, row: np.ndarray) -> None:
        """Overwrite one *live* record's coordinates in-place.

        The buffer-sharing primitive behind the merge phase
        (:func:`repro.core.merge.merge_to_t_closeness`): there the engine's
        records are cluster centroids, and a merge moves the surviving
        cluster's centroid.  Updates the working columns, the original-row
        view (:meth:`row`) and the running coordinate sum; previously
        evaluated distances for this row go stale (re-evaluate before the
        next selection).  The caller's input matrix is never touched — the
        row storage is copied on the first replacement.
        """
        row = np.ascontiguousarray(row, dtype=np.float64)
        if row.shape != (self._X.shape[1],):
            raise ValueError(
                f"row must have shape ({self._X.shape[1]},), got {row.shape}"
            )
        self._check_id(record_id)
        pos = int(self._pos[record_id])
        if pos < 0 or not self._alive[pos]:
            raise ValueError("cannot replace a record that is already assigned")
        if not self._X_owned:
            # __init__ may have kept a no-copy view of the caller's array;
            # mutation must never write through into caller data.
            self._X = self._X.copy()
            self._X_owned = True
        self._sum += row - self._X[record_id]
        self._X[record_id] = row
        self._XwT[:, pos] = row

    def _check_id(self, record_id: int) -> None:
        """Reject an id outside ``[0, n_records)``: numpy would read a
        negative one from the end of the position map, aliasing a live
        record."""
        if not 0 <= record_id < self._pos.size:
            raise ValueError(
                f"record id {record_id} outside [0, {self._pos.size})"
            )

    def kill(self, record_ids: np.ndarray) -> None:
        """Mark records as assigned: mask them out and update the sum.

        Triggers window compaction when the live fraction falls below
        ``compact_ratio``.  Raises ``ValueError``, changing nothing, for
        an id outside ``[0, n_records)``, an already-dead record (a
        record a compaction dropped carries the -1 position sentinel, so
        a stale position never aliases a live record) and an id repeated
        in the batch (it would be counted twice in ``n_alive`` and the
        running sum).  The guards run on the batch as Python lists: the
        partitioners kill one cluster of a few records at a time, where a
        list pass is cheaper than numpy's per-call overhead.
        """
        ids = np.asarray(record_ids, dtype=np.int64).ravel()
        batch = ids.tolist()
        if not batch:
            return
        self._check_id(min(batch))
        self._check_id(max(batch))
        pos = self._pos[ids]
        where = pos.tolist()
        alive = self._alive
        if min(where) < 0 or not all(alive[p] for p in where):
            raise ValueError("cannot kill a record that is already assigned")
        if len(set(batch)) != len(batch):
            raise ValueError("record ids to kill must be unique")
        alive[pos] = False
        self._dead_pos[self._n_dead : self._n_dead + len(batch)] = pos
        self._n_dead += len(batch)
        self._n_alive -= len(batch)
        self._sum -= np.add.reduce(self._X[ids], axis=0)
        if (
            self._ratio is not None
            and self._n_alive < self._ratio * self._m
            and self._m - self._n_alive >= _MIN_COMPACT_GAP
        ):
            self._compact()

    def kill_one(self, record_id: int) -> None:
        """Scalar fast path of :meth:`kill` for a single record.

        Same guards, same compaction trigger, bitwise the same running-sum
        update (a one-row ``sum(axis=0)`` is the row itself) — minus the
        array allocation and uniqueness bookkeeping a batch kill pays.
        The merge loop retires exactly one cluster per commit, so this is
        its per-merge call.
        """
        self._check_id(record_id)
        pos = int(self._pos[record_id])
        if pos < 0 or not self._alive[pos]:
            raise ValueError("cannot kill a record that is already assigned")
        self._alive[pos] = False
        self._dead_pos[self._n_dead] = pos
        self._n_dead += 1
        self._n_alive -= 1
        self._sum -= self._X[record_id]
        if (
            self._ratio is not None
            and self._n_alive < self._ratio * self._m
            and self._m - self._n_alive >= _MIN_COMPACT_GAP
        ):
            self._compact()

    def _compact(self) -> None:
        """Shrink the window to the live records, preserving their order.

        The distance buffer is compacted too, so selections that reuse the
        last evaluation stay valid across a compaction triggered mid-round.
        """
        m = self._m
        live = np.flatnonzero(self._alive[:m])
        new_m = live.size
        # Invalidate the dropped records' position entries before reusing
        # their window slots, so kill()'s liveness guard stays sound.
        self._pos[self._ids[self._dead_pos[: self._n_dead]]] = -1
        self._XwT[:, :new_m] = self._XwT[:, :m][:, live]
        self._d2[:new_m] = self._d2[live]
        self._ids[:new_m] = self._ids[live]
        self._pos[self._ids[:new_m]] = np.arange(new_m, dtype=np.int64)
        self._alive[:new_m] = True
        self._n_dead = 0
        self._m = new_m
        self._n_compactions += 1
