"""Optional compiled kd query for the nearest-representative assign.

:func:`repro.backend.kernels.nearest_block` answers serving's
nearest-representative queries against a
:class:`~repro.backend.kernels.NearestIndex`.  On hosts that ship a C
compiler this module builds one small shared library with one entry
point, ``repro_kd_nearest``: a depth-first kd-tree search that

* scans a leaf's representatives with the canonical arithmetic of
  :mod:`repro.backend.kernels`, for each (row, representative) pair::

      t = x[0] - rep[0];  acc  = t * t;
      t = x[j] - rep[j];  acc += t * t;     # columns left to right

  compiled with ``-ffp-contract=off``, so every multiply and add rounds as
  an individual IEEE-754 double operation (no FMA contraction) and each
  distance is bitwise the numpy kernel's;
* bounds a node by squaring the per-column gaps from the row to the
  node's box and summing them in the same column order.  Rounding is
  monotone, so the bound never exceeds the canonical distance to any
  representative inside the box;
* prunes a node only when its bound is strictly greater than the running
  best, and keeps the smaller ``(distance, id)`` pair, so exact ties go to
  the lowest representative id and assignments and distances equal the
  numpy scan's bit for bit.

A tree of one leaf is exactly the brute scan, so there is no separate
brute-force body.  The C call releases the GIL (``ctypes.CDLL``), so
queries from concurrent threads (serving's batcher runs each assign on an
executor thread) run in parallel.

The build is best-effort and cached:

* no compiler, a failed compile, or ``REPRO_NO_NATIVE=1`` → ``load()``
  returns ``None`` and callers keep the numpy path;
* the shared object is cached under the system temp directory keyed by a
  hash of the source and toolchain, so forked serving workers and repeat
  processes reuse one artifact (built via a unique temp name and
  ``os.replace`` — concurrent builders race benignly);
* after loading, a differential self-check runs the kd query against the
  numpy kernel on a tie-heavy fixture, through a forced multi-level tree
  and through a single leaf, and rejects the library on any bit
  difference, so a misbehaving toolchain degrades to the (slow, correct)
  fallback instead of corrupting assignments.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = r"""
#include <stddef.h>

#define BLOCK 256
#define MAX_DEPTH 64

/* Arithmetic contract (must match repro.backend.kernels exactly):
 * squared distances accumulate column-sequentially, left to right, one
 * rounded multiply and one rounded add per column -- compile with
 * -ffp-contract=off so no FMA contraction merges them.
 *
 * The running best is a (d2, id) pair; a candidate replaces it when it is
 * strictly closer, or equally close with a lower id.  The caller's
 * incoming entry has id -1 here, so it keeps exact ties, as it does in the
 * numpy scan's strictly-smaller update.
 */

/* Lower bound on the squared distance from x to any point of the box
 * [lo, hi], accumulated in the leaf scan's column order.  Per column the
 * gap is no larger than |x[j] - rep[j]| for a rep inside the box, and
 * rounded subtraction, multiplication and addition are all monotone, so
 * the rounded bound never exceeds the rounded distance. */
static double box_bound(const double *restrict x, const double *restrict lo,
                        const double *restrict hi, long long d)
{
    double acc = 0.0;
    for (long long j = 0; j < d; ++j) {
        double g = 0.0;
        if (x[j] < lo[j])
            g = lo[j] - x[j];
        else if (x[j] > hi[j])
            g = x[j] - hi[j];
        acc += g * g;
    }
    return acc;
}

/* Canonical distances from x to the permuted representatives p0..p1-1
 * (repcols: d x n_reps, one column of the permuted matrix per row). */
static void scan_leaf(const double *restrict x, long long d,
                      const double *restrict repcols,
                      const long long *restrict ids, long long n_reps,
                      long long p0, long long p1,
                      double *best, long long *best_id)
{
    double buf[BLOCK];
    for (long long g0 = p0; g0 < p1; g0 += BLOCK) {
        long long m = p1 - g0;
        if (m > BLOCK)
            m = BLOCK;
        const double *c0 = repcols + g0;
        for (long long r = 0; r < m; ++r) {
            double t = x[0] - c0[r];
            buf[r] = t * t;
        }
        for (long long j = 1; j < d; ++j) {
            const double *cj = repcols + j * n_reps + g0;
            double xj = x[j];
            for (long long r = 0; r < m; ++r) {
                double t = xj - cj[r];
                buf[r] += t * t;
            }
        }
        for (long long r = 0; r < m; ++r) {
            if (buf[r] < *best
                || (buf[r] == *best && ids[g0 + r] < *best_id)) {
                *best = buf[r];
                *best_id = ids[g0 + r];
            }
        }
    }
}

/* rows:        n x d, row-major (one record per row)
 * repcols/ids: the index's permuted representatives and their ids
 * lo/hi:       n_nodes x d boxes, heap order (children 2i+1, 2i+2)
 * leaf_bounds: leaf k holds permuted representatives
 *              leaf_bounds[k] .. leaf_bounds[k+1]-1
 * n_inner:     internal nodes (nodes n_inner.. are leaves; 0: one leaf)
 * assignment / best_d2: length n, running best id / squared distance.
 */
void repro_kd_nearest(const double *restrict rows, long long n, long long d,
                      const double *restrict repcols,
                      const long long *restrict ids, long long n_reps,
                      const double *restrict lo, const double *restrict hi,
                      const long long *restrict leaf_bounds, long long n_inner,
                      long long *restrict assignment,
                      double *restrict best_d2)
{
    long long stack[MAX_DEPTH];
    double stack_bound[MAX_DEPTH];
    for (long long i = 0; i < n; ++i) {
        const double *x = rows + i * d;
        double best = best_d2[i];
        long long best_id = -1;
        int top = 0;
        long long node = 0;
        while (node >= 0) {
            /* Descend to the nearer child, deferring the farther one. */
            while (node < n_inner) {
                long long near = 2 * node + 1, far = near + 1;
                double b_near = box_bound(x, lo + near * d, hi + near * d, d);
                double b_far = box_bound(x, lo + far * d, hi + far * d, d);
                if (b_far < b_near) {
                    long long s = near;
                    double sb = b_near;
                    near = far;
                    far = s;
                    b_near = b_far;
                    b_far = sb;
                }
                if (!(b_far > best)) {
                    stack[top] = far;
                    stack_bound[top] = b_far;
                    ++top;
                }
                node = b_near > best ? -1 : near;
                if (node < 0)
                    break;
            }
            if (node >= 0) {
                long long k = node - n_inner;
                scan_leaf(x, d, repcols, ids, n_reps, leaf_bounds[k],
                          leaf_bounds[k + 1], &best, &best_id);
            }
            /* Resume at the deepest deferred box that can still win. */
            node = -1;
            while (top > 0) {
                --top;
                if (!(stack_bound[top] > best)) {
                    node = stack[top];
                    break;
                }
            }
        }
        if (best_id >= 0) {
            best_d2[i] = best;
            assignment[i] = best_id;
        }
    }
}
"""

_BASE_FLAGS = ["-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC"]

_UNSET = object()
_cached: object = _UNSET


def _cache_dir() -> Path:
    return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"


def _compile(cc: str) -> Path | None:
    tag = f"{_SOURCE}|{cc}|{sys.version_info[:2]}|v1"
    key = hashlib.sha256(tag.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"nearest-{key}.so"
    if so_path.exists():
        return so_path
    cache.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache) as build:
        src = Path(build) / "nearest.c"
        src.write_text(_SOURCE)
        out = Path(build) / "nearest.so"
        for flags in (["-march=native", *_BASE_FLAGS], _BASE_FLAGS):
            proc = subprocess.run(
                [cc, *flags, str(src), "-o", str(out)],
                capture_output=True,
                timeout=120,
            )
            if proc.returncode == 0:
                os.replace(out, so_path)  # atomic vs concurrent builders
                return so_path
    return None


def _bind(fn):
    """The raw C entry point as ``query(rows, index, assignment, best_d2)``.

    ``rows`` is a C-contiguous ``(n, d)`` float64 block and ``index`` a
    :class:`~repro.backend.kernels.NearestIndex`; ``assignment`` (int64)
    and ``best_d2`` (float64) are the rows' running best entries, updated
    in place.
    """

    def query(rows, index, assignment, best_d2) -> None:
        fn(
            rows,
            rows.shape[0],
            rows.shape[1],
            index.repcols,
            index.ids,
            index.shape[0],
            index.lo,
            index.hi,
            index.leaf_bounds,
            len(index.leaf_bounds) - 2,
            assignment,
            best_d2,
        )

    return query


def _self_check(query) -> bool:
    """The kd query must be bit-for-bit the numpy kernel on tie-heavy data.

    Runs a forced four-level tree (so the box bounds, the pruning and the
    deferred-node stack all run) and a single leaf (the brute scan) over
    half-integer grids, where exact cross-representative ties are common,
    with a duplicated representative and a run of identical ones.
    """
    from . import kernels

    rng = np.random.default_rng(0)
    X = np.round(rng.standard_normal((96, 3)) * 2.0) / 2.0
    reps = np.round(rng.standard_normal((80, 3)) * 2.0) / 2.0
    reps[41] = reps[7]
    reps[60:68] = reps[12]
    n = len(X)
    a_ref = np.zeros(n, dtype=np.int64)
    b_ref = np.full(n, np.inf)
    kernels._nearest_block_numpy(
        X.T, reps, a_ref, b_ref, np.empty(n), np.empty(n), 0, n
    )
    for depth in (4, 0):
        a_nat = np.zeros(n, dtype=np.int64)
        b_nat = np.full(n, np.inf)
        query(X, kernels._build_tree(reps, depth), a_nat, b_nat)
        if not (np.array_equal(a_ref, a_nat) and np.array_equal(b_ref, b_nat)):
            return False
    return True


def load():
    """Return the compiled kd query, or ``None``.

    The single entry point that builds (or reuses) the shared library;
    the result (including failure) is memoized for the process lifetime.
    The returned callable is ``query(rows, index, assignment, best_d2)``
    (see :func:`_bind`); ctypes ndpointer argtypes enforce every array's
    dtype and contiguity.
    """
    global _cached
    if _cached is not _UNSET:
        return _cached
    _cached = None
    if os.environ.get("REPRO_NO_NATIVE"):
        return None
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        return None
    try:
        so_path = _compile(cc)
        if so_path is None:
            return None
        lib = ctypes.CDLL(str(so_path))
        fn = lib.repro_kd_nearest
        c_double_p = np.ctypeslib.ndpointer(
            dtype=np.float64, flags="C_CONTIGUOUS"
        )
        c_int64_p = np.ctypeslib.ndpointer(
            dtype=np.int64, flags="C_CONTIGUOUS"
        )
        fn.argtypes = [
            c_double_p,
            ctypes.c_longlong,
            ctypes.c_longlong,
            c_double_p,
            c_int64_p,
            ctypes.c_longlong,
            c_double_p,
            c_double_p,
            c_int64_p,
            ctypes.c_longlong,
            c_int64_p,
            c_double_p,
        ]
        fn.restype = None
        query = _bind(fn)
        if not _self_check(query):
            return None
        _cached = query
    except Exception:
        _cached = None
    return _cached
