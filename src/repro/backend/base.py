"""Compute-backend protocol: the engine's hot primitives, pluggable.

Profiling the three anonymization algorithms (and the fitted-model serving
path) shows all of their distance work funnels through a handful of
primitives: filling a distance buffer from one query point, masked
argmin/argmax selection over that buffer, the k-th-smallest bound behind
stable k-nearest prefixes, scoring a block of swap candidates against an
EMD tracker, and the batch nearest-representative query.
:class:`ComputeBackend` names exactly those primitives; everything above
it — :class:`~repro.microagg.engine.ClusteringEngine`, the algorithms,
:class:`~repro.core.model.Anonymizer` — is backend-agnostic, so a new
execution strategy (a process pool, numba, a GPU) is one registry entry,
not another engine rewrite.

Three implementations ship: :class:`~repro.backend.serial.SerialBackend`
(this class's own single-threaded numpy bodies, the default),
:class:`~repro.backend.threaded.ThreadedBackend` (row-block shards of the
same kernels on a thread pool) and
:class:`~repro.backend.process.ProcessBackend` (the same shards on a
process pool over shared-memory buffers).  All produce **bit-for-bit
identical results**, because every primitive either keeps per-row arithmetic
unchanged under arbitrary row blocking (the canonical kernel of
:mod:`repro.backend.kernels`) or merges per-shard results under a total
order — see each method's contract below.

Backend selection
-----------------
Backends are discoverable by name through
:data:`repro.registry.BACKENDS`; :func:`resolve_backend` is the single
resolution path used by the engine, the algorithms, ``Anonymizer`` and
the CLI.  ``None`` falls back to the ``REPRO_BACKEND`` environment
variable (default ``"serial"``); the threaded backend sizes its pool from
``REPRO_NUM_THREADS`` (default: the machine's CPU count).  The choice is
a pure execution detail: it is deliberately **not** serialized into saved
models — a model fitted under one backend loads and transforms
identically under any other.
"""

from __future__ import annotations

import inspect
import os

import numpy as np

from ..registry import BACKENDS
from .kernels import (
    NearestIndex,
    build_nearest_index,
    iter_blocks,
    nearest_block,
    sq_distances_block,
)

#: Environment variable naming the default backend (see resolve_backend).
BACKEND_ENV = "REPRO_BACKEND"

#: Environment variable sizing the threaded backend's worker pool.
NUM_THREADS_ENV = "REPRO_NUM_THREADS"


class BackendConfigError(ValueError):
    """Invalid backend configuration from the environment.

    Raised for an unusable ``REPRO_NUM_THREADS`` value — a *user input*
    problem (the CLI turns it into a clean error message and exit code,
    like an unknown ``REPRO_BACKEND`` name), distinct from the plain
    ``ValueError`` a caller gets for invalid constructor arguments.
    """


class ComputeBackend:
    """Serial reference implementation of the compute primitives.

    The method bodies here *are* the library's canonical single-threaded
    numpy path (the arithmetic the golden fixtures pin); subclasses
    override whichever primitives they can execute differently while
    honouring each contract's bit-for-bit clause.  Instances must be
    safe to share between engines (they hold no per-computation state).
    """

    #: Registry name; subclasses override.
    name = "serial"

    #: Worker-pool width (1 for serial backends) — introspection only.
    num_workers = 1

    # -- working-buffer allocation ---------------------------------------------

    def empty(self, shape) -> np.ndarray:
        """Allocate an uninitialized float64 working buffer.

        The clustering engine allocates its long-lived hot buffers (the
        column-major working copy, the distance buffer, the difference
        scratch) through this hook so a backend can place them in storage
        its workers can reach — the process backend returns views into
        ``multiprocessing.shared_memory`` segments, letting worker
        processes read and write the *same* bytes with zero copying.  The
        base implementation is a plain ``np.empty``; allocation placement
        never changes any computed value, only where it lives.
        """
        return np.empty(shape)

    # -- distance evaluation ---------------------------------------------------

    def eval_sq_distances(
        self,
        cols: np.ndarray,
        point: np.ndarray,
        out: np.ndarray,
        tmp: np.ndarray,
        n: int,
        chunk_size: int | None = None,
    ) -> None:
        """Fill ``out[:n]`` with squared distances from ``point``.

        ``cols`` is the transposed record matrix (``cols[j]`` = column j),
        ``tmp`` an equally long scratch, ``point`` non-empty.  Contract:
        every output row must be computed by the canonical
        column-sequential kernel (:func:`~repro.backend.kernels
        .sq_distances_block`), whose per-row arithmetic is independent of
        row blocking — so any backend's buffer is bitwise identical.
        """
        for start, stop in iter_blocks(n, chunk_size):
            sq_distances_block(cols, point, out, tmp, start, stop)

    # -- selections ------------------------------------------------------------

    def argmin(self, values: np.ndarray) -> int:
        """Index of the smallest entry; exact ties -> lowest index.

        Contract: equivalent to ``np.argmin`` on NaN-free input (all this
        library's buffers are NaN-free; masked entries use ±inf fills).
        The first-minimum rule is a total order on ``(value, index)``, so
        sharded implementations merge deterministically.
        """
        return int(np.argmin(values))

    def argmax(self, values: np.ndarray) -> int:
        """Index of the largest entry; exact ties -> lowest index."""
        return int(np.argmax(values))

    def kth_smallest_value(self, values: np.ndarray, k: int) -> float:
        """Value of the k-th smallest entry (``1 <= k <= len(values)``).

        The selection *bound* behind
        :meth:`~repro.microagg.engine.ClusteringEngine.k_nearest_sorted`:
        a property of the value multiset only, hence identical under any
        sharding.  (Which *indices* attain it is resolved by the caller
        with a stable sort, so tie-breaking never depends on the backend.)
        """
        return float(values[np.argpartition(values, k - 1)[:k]].max())

    # -- batched candidate EMD scoring -----------------------------------------

    def score_swaps(
        self,
        trackers,
        member_records: np.ndarray,
        candidate_records: np.ndarray,
    ) -> np.ndarray:
        """Score a block of swap candidates against one cluster tracker.

        Returns the ``(len(candidate_records), len(member_records))``
        matrix of
        :meth:`~repro.core.confidential.ClusterTrackerSet.swap_emds_batch`
        — row b is bitwise the vector ``swap_emds(member_records,
        candidate_records[b])`` would produce, and each row's arithmetic
        is independent of which other candidates share the call, so
        backends may shard the candidate axis freely.  Scoring is
        read-only on the tracker (no caches are touched), which is what
        makes that sharding safe.
        """
        return trackers.swap_emds_batch(member_records, candidate_records)

    # -- serving: nearest fitted representative --------------------------------

    def assign_nearest(
        self, X: np.ndarray, reps: "NearestIndex | np.ndarray"
    ) -> np.ndarray:
        """Nearest representative (by canonical squared distance) per row.

        ``reps`` is a :class:`~repro.backend.kernels.NearestIndex` — built
        once per fitted model, which is how serving calls this — or a raw
        ``(R, d)`` matrix, indexed for this call only.  Exact ties resolve
        to the lowest representative index.  Contract: per-row results
        equal :func:`~repro.backend.kernels.nearest_block` over any row
        blocking (each row's query is independent).  Input
        coercion/validation lives here once; backends override the
        :meth:`_assign_nearest` execution body only.
        """
        index = reps if isinstance(reps, NearestIndex) else build_nearest_index(reps)
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != index.shape[1]:
            raise ValueError(
                f"X and reps must be 2-D with equal widths, got "
                f"{X.shape} and {index.shape}"
            )
        assignment = np.zeros(X.shape[0], dtype=np.int64)
        if X.shape[0] == 0 or X.shape[1] == 0:
            return assignment
        self._assign_nearest(X, index, assignment)
        return assignment

    def _assign_nearest(
        self, X: np.ndarray, index: NearestIndex, assignment: np.ndarray
    ) -> None:
        """Execution body of :meth:`assign_nearest` (inputs pre-validated,
        non-degenerate); fills ``assignment`` in place."""
        n = X.shape[0]
        best_d2 = np.full(n, np.inf)
        d2 = np.empty(n)
        tmp = np.empty(n)
        nearest_block(X.T, index, assignment, best_d2, d2, tmp, 0, n)

    # -- cosmetics -------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


#: Default instance per registered name, built lazily by resolve_backend
#: (a threaded backend owns a worker pool; one shared instance per process
#: is the right granularity for "give me the named backend").
_DEFAULT_INSTANCES: dict[str, ComputeBackend] = {}


def resolve_backend(spec: "ComputeBackend | str | None" = None) -> ComputeBackend:
    """Resolve a backend argument to a live :class:`ComputeBackend`.

    ``None`` reads the ``REPRO_BACKEND`` environment variable (default
    ``"serial"``); a string is looked up in
    :data:`repro.registry.BACKENDS` and resolves to a process-wide shared
    instance (constructed on first use — the threaded backend therefore
    reads ``REPRO_NUM_THREADS`` once, at that moment); a
    :class:`ComputeBackend` instance passes through unchanged (the escape
    hatch for explicit configuration, e.g.
    ``ThreadedBackend(num_threads=2)``).
    """
    if spec is None:
        spec = os.environ.get(BACKEND_ENV) or "serial"
    if isinstance(spec, str):
        if spec not in _DEFAULT_INSTANCES:
            _DEFAULT_INSTANCES[spec] = BACKENDS.resolve(spec)()
        return _DEFAULT_INSTANCES[spec]
    if isinstance(spec, ComputeBackend):
        return spec
    raise TypeError(
        f"backend must be a name, a ComputeBackend instance or None, "
        f"got {type(spec).__name__}"
    )


def accepts_backend(fn) -> bool:
    """Whether ``fn`` explicitly names a ``backend`` keyword parameter.

    The forwarding guard for registry-discovered callables (methods,
    partitioners): built-ins take ``backend=`` and receive the session's
    choice; a third-party callable without the parameter is simply called
    as before — never surprised with an unknown keyword (``**kwargs``
    catch-alls deliberately don't count, since such a callable gives no
    evidence it understands the argument).
    """
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False
    return "backend" in params


def num_threads_default() -> int:
    """Worker count from ``REPRO_NUM_THREADS``, else the CPU count."""
    env = os.environ.get(NUM_THREADS_ENV)
    if env:
        try:
            count = int(env)
        except ValueError:
            raise BackendConfigError(
                f"{NUM_THREADS_ENV} must be an integer >= 1, got {env!r}"
            ) from None
        if count < 1:
            raise BackendConfigError(
                f"{NUM_THREADS_ENV} must be >= 1, got {count}"
            )
        return count
    return os.cpu_count() or 1
