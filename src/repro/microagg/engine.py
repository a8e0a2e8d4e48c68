"""The live sets MDAV-style partitioners select from.

Every partitioner in this library (MDAV, V-MDAV, and the clustering loops of
Algorithms 2 and 3) repeats the same queries over a shrinking set of
unassigned ("live") records: the record farthest from a point, the k
records nearest a point, and kills of the records a cluster took.  The
direct implementations pay for that shrinkage with a fresh fancy-indexed
copy of the record matrix (``X[remaining]``) per query per round, plus a
from-scratch centroid re-average each round.  Two structures answer the
same queries by the same rules without those copies:

* :class:`LiveIndex` — a kd-tree over all n records, built once, whose
  per-node live counts and boxes are refit on every kill
  (:class:`~repro.backend.kernels.LiveTree`, queried and updated by the
  compiled ``repro_live_*`` entry points of :mod:`repro.backend._native`).
  A query scores only the leaves its box bounds cannot rule out instead
  of every live record;
* :class:`ClusteringEngine` — the scan engine, and the spec: every query
  fills a distance buffer over an active window of the live records, and
  the selections are passes over that buffer.

:func:`live_set` picks the structure: MDAV, V-MDAV and Algorithm 2 get
the live index when the compiled library loaded, the matrix has at most
four columns, the split rule of :func:`~repro.backend.kernels.split_depth`
gives it a tree of at least one level and every coordinate is finite;
otherwise (no compiler, ``REPRO_NO_NATIVE=1``, wider tables — one-hot
encoded ones included — small tables, non-finite data) they get the scan
engine.  The width limit is measured (``_INDEX_MAX_WIDTH``): past four
columns the farthest queries' box bounds stop pruning on uniform and
integer-grid tables.  Algorithm 3 and the merge phase's partner search
build a :class:`ClusteringEngine` directly: Algorithm 3 picks from its
buckets through the distance buffer, and the merge's partner search over
a few thousand centroids gained nothing from an index.

The scan engine owns the record matrix once:

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

The live index keeps no window, distance buffer or dead list: its leaf
scans compute the same canonical distances (bitwise the compiled scan's),
its box bounds are conservative under rounding, and it prunes a node only
on a strict inequality or when the node holds no live record, so every
selection — ties to the lowest id included — is the scan engine's.

Both keep the **incremental centroid**: the coordinate sum of unassigned
records is maintained by subtracting each assigned cluster, giving an O(d)
``centroid_fast``; ``centroid`` instead reproduces the reference's
gather-and-mean bitwise, because a running sum can drift a few ulp and an
ulp is enough to break an exact distance tie differently.  The kill
guards and the farthest-from-centroid rule (the running-sum selection, its
1e-6 band and the exact re-judge) are written once, in their shared base.

Equivalence contract
--------------------
Partitioners are held (by ``tests/microagg/test_engine_equivalence.py``
and ``tests/microagg/test_mdav_reference.py``) to produce *identical*
partitions to the reference implementations, including tie-breaking, on
either structure: distances use the canonical ``sq_distances_to``
arithmetic row-for-row, the centroid is the reference's own
gather-and-mean, argmin/argmax take the lowest id on exact ties, and
k-nearest selection takes the k records with the smallest (distance, id)
— ``np.lexsort((ids, d2))[:k]`` over the reference's ``X[remaining]``,
the same on every host.  The golden
fixtures (continuous, mixed, integer-grid, categorical-only, univariate
and duplicate-heavy datasets) pin this down empirically, and
``tests/microagg/test_mdav_reference.py`` checks MDAV and V-MDAV against
a brute-force reference on that rule through the live index (forced down
to leaves of one or two records), the scan engine and its numpy specs;
``centroid_fast`` is the one opt-out, trading that guarantee for an O(d)
centroid.

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

The scan engine delegates distance evaluations to its compute backend
(:meth:`repro.backend.SerialBackend.eval_sq_distances`), called on the
instance the engine was given so a substituted backend sees every
evaluation, one call per evaluation; the k-nearest selection runs
:func:`~repro.backend.kernels.k_nearest_live` and the other selections
(masked argmin/argmax) are plain numpy calls on the distance buffer.  The
live index's queries do not go through a backend.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..backend import SerialBackend, _native, resolve_backend
from ..backend.kernels import (
    build_live_tree,
    k_nearest_live,
    k_smallest_indices,
    split_depth,
)
from ..distance.records import sq_distances_to

#: Below this many dead rows, compaction is skipped (not worth the copy).
_MIN_COMPACT_GAP = 32

#: Widest matrix given the live index, set from the grid of
#: ``benchmarks/bench_live_index_grid.py`` (tables in
#: ``benchmarks/README.md``): past four columns the farthest queries' box
#: bounds open most leaves of a table that fills its bounding box, and the
#: index lost to the scan engine on uniform and integer-grid tables (down
#: to 0.59x); up to four it won on every table kind measured, except MDAV
#: and V-MDAV on uniform and integer-grid tables of four columns (0.90x to
#: 1.11x).
_INDEX_MAX_WIDTH = 4

#: Relative margin below the maximum distance within which the fast
#: centroid's ulp drift could conceivably reorder records.  The actual
#: drift perturbs squared distances by ~1e-13 relative at most; 1e-6
#: leaves seven orders of magnitude of safety while still making the
#: exact re-adjudication a rare event on continuous data.
_FARTHEST_MARGIN = 1e-6


def _band_floor(top: float) -> float:
    """The least squared distance inside the band below the maximum
    ``top``: a relative margin of ``_FARTHEST_MARGIN`` below it or, for
    an infinite maximum (squares overflowing), inf itself, so that the
    band is every record at inf."""
    if top == np.inf:
        return top
    return top - _FARTHEST_MARGIN * (1.0 + abs(top))


def _check_id(record_id: int, n_records: int) -> None:
    """Reject an id outside ``[0, n_records)``: numpy would read a negative
    one from the end of a per-record array, aliasing a live record."""
    if not 0 <= record_id < n_records:
        raise ValueError(f"record id {record_id} outside [0, {n_records})")


class _LiveRecords:
    """What both live sets share: the rows by record id, the running sum
    of the live ones, the kill guards and the farthest-from-centroid rule.

    A subclass sets ``_X`` (rows by record id), ``_sum``, ``_n_alive``,
    ``_pos`` (record id -> index into ``_alive``; -1 once dropped) and
    ``_alive``, and implements ``alive_ids``, ``_farthest_with_value``,
    ``_farthest_band`` and ``_forget``.
    """

    @property
    def n_records(self) -> int:
        """Total number of records the structure was built over."""
        return self._X.shape[0]

    @property
    def n_alive(self) -> int:
        """Number of records not yet assigned (killed)."""
        return self._n_alive

    def row(self, record_id: int) -> np.ndarray:
        """The (original) coordinate row of one record, dead or alive."""
        return self._X[record_id]

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

    def farthest(self, point: np.ndarray | None = None) -> int:
        """Id of the live record farthest from ``point`` (ties: lowest id)."""
        return self._farthest_with_value(point)[0]

    def farthest_from_centroid(self) -> int:
        """Id of the live record farthest from the live centroid.

        Selects with the O(d) running-sum centroid (:meth:`centroid_fast`)
        and, whenever more than one record lands within a conservative
        margin of the maximum — the only situation where the running sum's
        ulp drift could pick a different record — re-judges exactly those
        candidates against the exact reference centroid
        (:meth:`centroid`); when the maximum is inf (squares overflowing)
        the candidates are every record at inf, and when it is NaN (the
        running sum went inf - inf) every live record.  The selected
        record is therefore the one the reference implementations'
        ``argmax`` over ``sq_distances_to(X[remaining],
        X[remaining].mean(axis=0))`` selects, at running-sum cost on
        tie-free rounds, as long as the running sum's drift stays inside
        the band (a sum that absorbs, then cancels, coordinates near the
        float range can leave it).
        """
        top, candidates = self._farthest_band(self.centroid_fast())
        if candidates.size == 0:
            # A NaN maximum (the running sum went inf - inf): no distance
            # is comparable, so every live record is re-judged.
            candidates = self.alive_ids()
        if candidates.size == 1:
            return top
        exact = sq_distances_to(self._X[candidates], self.centroid())
        return int(candidates[int(np.argmax(exact))])

    def kill(self, record_ids: np.ndarray) -> None:
        """Mark records as assigned: drop them from every later selection
        and subtract them from the running sum.

        Raises ``ValueError``, changing nothing, for an id outside
        ``[0, n_records)``, an already-dead record (a record the scan
        engine's compaction dropped carries the -1 position sentinel, so
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
        n = self._X.shape[0]
        _check_id(min(batch), n)
        _check_id(max(batch), n)
        pos = self._pos[ids]
        where = pos.tolist()
        alive = self._alive
        if min(where) < 0 or not all(alive[p] for p in where):
            raise ValueError("cannot kill a record that is already assigned")
        if len(set(batch)) != len(batch):
            raise ValueError("record ids to kill must be unique")
        self._n_alive -= len(batch)
        self._sum -= np.add.reduce(self._X[ids], axis=0)
        self._forget(ids, pos)


class ClusteringEngine(_LiveRecords):
    """The scan engine: in-place partitioning primitives over one record
    matrix, by passes over a distance buffer.

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

    def alive_ids(self) -> np.ndarray:
        """Ids of all unassigned records, ascending."""
        return self._ids[: self._m][self._alive[: self._m]]

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

    def _farthest_with_value(self, point: np.ndarray | None) -> tuple[int, float]:
        if point is not None:
            self.eval_distances(point)
        d2 = self._masked(-np.inf)
        top = int(np.argmax(d2))
        return int(self._ids[top]), float(d2[top])

    def _farthest_band(self, point: np.ndarray) -> tuple[int, np.ndarray]:
        """The farthest live record and the ids, ascending, of the live
        records in the band below its distance (:func:`_band_floor`)."""
        top, top_d2 = self._farthest_with_value(point)
        band = self._d2[: self._m] >= _band_floor(top_d2)  # dead rows: -inf
        return top, self._ids[np.flatnonzero(band)]

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
        stable sort of the live records by distance.  On either live set a
        longer prefix extends a shorter one, which is what lets Algorithm 2
        take a seed's cluster and its pool in chunks without sorting a
        pool it usually never consumes.
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
        _check_id(record_id, self._pos.size)
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

    def _forget(self, ids: np.ndarray, pos: np.ndarray) -> None:
        """Mask killed records out of the buffer's selections; compact the
        window when the live fraction falls below ``compact_ratio``."""
        self._alive[pos] = False
        self._dead_pos[self._n_dead : self._n_dead + ids.size] = pos
        self._n_dead += ids.size
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
        _check_id(record_id, self._pos.size)
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


class LiveIndex(_LiveRecords):
    """The live records of a finite matrix, queried through a kd-tree.

    Built by :func:`live_set`.  Offers the scan engine's selections with
    the same rules — :meth:`k_nearest`, :meth:`farthest`,
    :meth:`farthest_from_centroid`, :meth:`nearest_with_value`,
    :meth:`kill` — where ``point=None`` means the last query point.
    Queries run the compiled ``repro_live_*`` entry points over a
    :class:`~repro.backend.kernels.LiveTree` of ``depth`` levels; a query
    point with a NaN coordinate (a running-sum centroid of rows near the
    float range) takes the numpy spec over the live rows instead.
    """

    def __init__(self, X: np.ndarray, depth: int, native) -> None:
        n = X.shape[0]
        self._X = X  # rows by record id; never written
        self._tree = build_live_tree(X, depth)
        self._handle = _native.live_handle(self._tree)
        self._addr = ctypes.addressof(self._handle)
        self._native = native
        # The kill guards read the tree's own liveness, by slot.
        self._pos = self._tree.slot
        self._alive = self._tree.alive
        self._n_alive = n
        self._sum = X.sum(axis=0)
        self._point: np.ndarray | None = None

    def alive_ids(self) -> np.ndarray:
        """Ids of all unassigned records, ascending."""
        return np.flatnonzero(self._alive[self._pos].view(bool))

    def _query(self, point: np.ndarray | None) -> np.ndarray:
        """Set the query point (a private copy), or reuse the last one."""
        if point is not None:
            p = np.array(point, dtype=np.float64)
            if p.shape != (self._X.shape[1],):
                raise ValueError(
                    f"point must have shape ({self._X.shape[1]},), got {p.shape}"
                )
            self._point = p
        elif self._point is None:
            raise ValueError("no query point yet")
        return self._point

    def _spec(self) -> tuple[np.ndarray, np.ndarray]:
        """The live ids, ascending, and their canonical squared distances
        from the last query point: the scan engine's buffer, gathered."""
        live = self.alive_ids()
        return live, sq_distances_to(self._X[live], self._point)

    def k_nearest(self, k: int, point: np.ndarray | None = None) -> np.ndarray:
        """Ids of the ``k`` live records with the smallest (distance, id),
        in that order; every live record when ``k >= n_alive``."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        x = self._query(point)
        m = min(k, self._n_alive)
        ids = np.empty(m, dtype=np.int64)
        if self._native.live_k_nearest(self._addr, x, k, ids, np.empty(m)) < 0:
            live, d2 = self._spec()
            return live[k_smallest_indices(d2, k)]
        return ids

    def _farthest_with_value(self, point: np.ndarray | None) -> tuple[int, float]:
        x = self._query(point)
        top = np.empty(2)
        got = self._native.live_farthest(self._addr, x, 0.0, top)
        if got < 0:
            live, d2 = self._spec()
            j = int(np.argmax(d2))
            return int(live[j]), float(d2[j])
        return got, float(top[0])

    def _farthest_band(self, point: np.ndarray) -> tuple[int, np.ndarray]:
        """The farthest live record and the ids, ascending, of the live
        records in the band below its distance (:func:`_band_floor`).

        One query finds the farthest record and the largest distance of
        the others in the band; only when that runner-up is in the band
        too does a second query list the band's records."""
        x = self._query(point)
        top = np.empty(2)
        got = self._native.live_farthest(self._addr, x, _FARTHEST_MARGIN, top)
        if got < 0:
            live, d2 = self._spec()
            j = int(np.argmax(d2))
            return int(live[j]), live[d2 >= _band_floor(d2[j])]
        least = _band_floor(top[0])
        if not top[1] >= least:
            return got, np.array([got])
        return got, self._at_or_above(least)

    def nearest_with_value(
        self, point: np.ndarray | None = None
    ) -> tuple[int, float]:
        """Nearest live record and its squared distance (ties: lowest id)."""
        x = self._query(point)
        ids, d2 = np.empty(1, dtype=np.int64), np.empty(1)
        if self._native.live_k_nearest(self._addr, x, 1, ids, d2) < 0:
            live, dist = self._spec()
            j = int(np.argmin(dist))
            return int(live[j]), float(dist[j])
        return int(ids[0]), float(d2[0])

    def _at_or_above(self, least: float) -> np.ndarray:
        """Ids, ascending, of the live records at squared distance
        ``>= least`` from the last query point."""
        out = np.empty(16, dtype=np.int64)
        got = self._native.live_at_or_above(self._addr, self._point, least, out, 16)
        if got > 16:
            out = np.empty(got, dtype=np.int64)
            self._native.live_at_or_above(self._addr, self._point, least, out, got)
        elif got < 0:
            live, d2 = self._spec()
            return live[d2 >= least]
        out = out[:got]
        out.sort()
        return out

    def _forget(self, ids: np.ndarray, pos: np.ndarray) -> None:
        self._native.live_kill(self._addr, ids)


def live_set(
    X: np.ndarray, *, backend: SerialBackend | str | None = None
) -> "LiveIndex | ClusteringEngine":
    """The live set MDAV, V-MDAV and Algorithm 2 select from.

    A :class:`LiveIndex` when the compiled library loaded, the matrix
    has at most ``_INDEX_MAX_WIDTH`` (4) columns, the split rule
    (:func:`~repro.backend.kernels.split_depth`) gives it a tree of at
    least one level and every coordinate is finite; else a
    :class:`ClusteringEngine` over ``backend``.  Both make the same
    selections, so the rule only decides speed.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim == 2 and X.shape[0] and X.shape[1] <= _INDEX_MAX_WIDTH:
        native = _native.load()
        depth = split_depth(*X.shape)
        if native is not None and depth > 0 and np.isfinite(X).all():
            return LiveIndex(X, depth, native)
    return ClusteringEngine(X, backend=backend)
