"""Optional compiled kernels: the kd assign query, Algorithm 2's refinement,
the clustering engine's per-round scans, the live index and the merge
step.

On hosts that ship a C compiler this module builds one small shared
library with twelve entry points.

``repro_kd_nearest`` answers serving's nearest-representative queries
(:func:`repro.backend.kernels.nearest_block`) against a
:class:`~repro.backend.kernels.NearestIndex` by a depth-first kd-tree
search that

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
brute-force body.

``repro_alg2_refine`` runs Algorithm 2's swap refinement of one cluster
over a chunk of its candidate pool
(:meth:`repro.backend.SerialBackend.refine_swaps`): the decision rule of
:class:`~repro.core.confidential.SwapFrame` in 64-bit integers, with
128-bit cross products to compare scores of different attributes, so it
decides exactly as the Python spec :meth:`SwapFrame.refine
<repro.core.confidential.SwapFrame.refine>` does.  It keeps no static
state; its work arrays are allocated per call.

``repro_sq_distances`` is the canonical column-sequential kernel of
:mod:`repro.backend.kernels` (the same loop as a kd leaf scan, also
compiled with ``-ffp-contract=off``) over the first n records of a
column-major matrix; :meth:`repro.backend.SerialBackend.eval_sq_distances`
runs it once per evaluation.  ``repro_k_nearest`` makes one pass over the
clustering engine's distance buffer and keeps, in a max-heap, the k live
window positions with the smallest (distance, position); a later
position never wins a tie, so a candidate enters only when strictly
closer than the heap's root.  Window positions ascend with record ids,
so the result is the (distance, id) order that
:func:`repro.backend.kernels.k_smallest_indices` defines, independent of
numpy's SIMD dispatch.  Both are reached through raw-address bindings
that check their arrays' layout themselves and take each array's address
with :func:`_address` rather than ``ndarray.ctypes.data``, which builds a
``_ctypes`` object per lookup.  On a 2-CPU x86-64 host with numpy 2 (best
of repeated runs), the scan binding costs 3.5 µs a call over a 100-row
window, against 6.2 µs with ``.ctypes.data`` and about 1 µs for the raw
C call.

The four ``repro_live_*`` entry points run the live index MDAV, V-MDAV
and Algorithm 2 select from (:class:`repro.microagg.engine.LiveIndex`):
a :class:`~repro.backend.kernels.LiveTree`, the kd-tree of a
``NearestIndex`` built once over all n records, whose per-node live
counts and boxes ``repro_live_kill`` updates as clusters take records
(decrement the counts on the leaf-to-root path, refit the leaf's box to
its live records when the killed one was on its boundary, propagate the
union upward until a box stops moving).  ``repro_live_k_nearest`` (the k
smallest (distance, id), in that order), ``repro_live_farthest`` (the
lowest id at the maximum and, given ``farthest_from_centroid``'s band
margin, the largest distance of the other records in the band, so one
traversal tells whether the band holds a second record) and
``repro_live_at_or_above`` (every live record at or above a squared
distance: the band's records, listed only when it holds more than one)
score a leaf's live records with the canonical leaf-scan arithmetic, so
every candidate gets bitwise ``repro_sq_distances``' distance.  They
bound a node from below by ``box_bound`` and from above by summing
``max(x - lo, hi - x)**2`` in the same column order, which monotone
rounding keeps at or above every live record's rounded distance, and
skip a node only when it holds no live record or its bound is strictly
past the running best (for the farthest query given a band margin, past
twice that margin below it), because a node exactly at the bound may
hold a lower id.  A query point with a NaN coordinate is declined
(-1) and the caller runs its numpy spec.  An index is bound once, as one
ctypes struct of its array addresses (:func:`live_handle`); a query
passes that struct's address, the point and its outputs.

The four ``repro_merge_*`` entry points run the ``nearest-qi`` merge loop
of Algorithm 1 (:func:`repro.core.merge.merge_to_t_closeness`) over a
:class:`~repro.backend.kernels.MergeState`, bound once as a ctypes struct
of its array addresses (:func:`merge_handle`; the centroid columns later,
by :func:`bind_columns`, once a first merge is due).
``repro_merge_step`` is one whole merge per call: it takes the worst
cluster from an indexed binary heap keyed on the exact ratios (128-bit
cross products, the lowest id on ties, no stale entries), stops when it
is within t (``num <= (t_num * den) >> e`` for ``min(t, 1) = t_num /
2^e``, in 128 bits), scans the centroid columns for the live cluster
other than it with the smallest (canonical distance, id), a NaN distance
last, moves the survivor's centroid to the size-weighted mean of the two
(rounded as numpy rounds it), splices the partner's member list after
the survivor's, and re-scores the survivor: its bins gathered along the
links and sorted, then ``distinct`` and ``current_s``, the refinement's
helpers, over the same attribute layout (a merged cluster with c*n*m
reaching 2^63 is refused).  ``repro_merge_commit`` is that commit for a
given pair (a resume's replay), ``repro_merge_heapify`` builds the heap
and ``repro_merge_labels`` writes the survivors' members as labels.

Every C call releases the GIL (``ctypes.CDLL``), so calls from concurrent
threads (serving's batcher runs each assign on an executor thread, fits
may run on several threads) run in parallel.

The build is best-effort and cached:

* no compiler, a failed compile, or ``REPRO_NO_NATIVE=1`` → ``load()``
  returns ``None`` and callers keep the numpy and Python specs;
* the shared object is cached under the system temp directory keyed by a
  hash of the source and toolchain, so forked serving workers and repeat
  processes reuse one artifact (built via a unique temp name and
  ``os.replace`` — concurrent builders race benignly);
* after loading, a differential self-check runs every entry point
  against its spec on tie-heavy fixtures — the kd query through a forced
  multi-level tree and through a single leaf, the refinement over
  duplicate ordered bins, a nominal attribute, two attributes and a
  one-bin attribute at budgets 1 and unlimited, the distance scan over
  half-integer grids with duplicated rows and a window shorter than its
  buffer, the selection over distances in {0, 1, 2} with dead positions
  at k = 1 up to past the live count, the live index's queries (the
  farthest one at band margins of 0, 1e-6 and 0.25, with its runner-up)
  through kills at two forced depths over half-integer grids with
  duplicated rows and a row of 1e200, the merge step against a
  brute-force merge loop on integer-grid centroids with duplicate
  ordered bins and a nominal attribute, stopping at a cluster exactly at
  t — and rejects the library on any difference, so a misbehaving
  toolchain degrades to the (slow, correct) specs instead of corrupting
  results.  The whole self-check takes a few tens of milliseconds, once
  per process.
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
from typing import Callable, NamedTuple

import numpy as np

_SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdlib.h>

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

/* ---- The clustering engine's per-round scans ----------------------------
 *
 * Canonical squared distances from point to the first n records of a
 * column-major matrix (column j starts at cols + j * stride), blocked by
 * rows so the running sums stay in cache; each row's accumulation is the
 * same in every blocking.
 */
void repro_sq_distances(const double *restrict cols, long long stride,
                        long long d, const double *restrict point,
                        double *restrict out, long long n)
{
    for (long long r0 = 0; r0 < n; r0 += BLOCK) {
        long long m = n - r0 < BLOCK ? n - r0 : BLOCK;
        double *o = out + r0, p0 = point[0];
        const double *c0 = cols + r0;
        for (long long r = 0; r < m; ++r) {
            double t = c0[r] - p0;
            o[r] = t * t;
        }
        for (long long j = 1; j < d; ++j) {
            const double *cj = cols + j * stride + r0;
            double pj = point[j];
            for (long long r = 0; r < m; ++r) {
                double t = cj[r] - pj;
                o[r] += t * t;
            }
        }
    }
}

/* Whether position a sorts after position b by (d2, position). */
static int after(const double *d2, long long a, long long b)
{
    return d2[a] > d2[b] || (d2[a] == d2[b] && a > b);
}

/* Restore the max-heap below heap[i] (the root sorts last). */
static void sift(long long *heap, long long size, long long i,
                 const double *d2)
{
    for (;;) {
        long long top = i, l = 2 * i + 1, r = l + 1;
        if (l < size && after(d2, heap[l], heap[top]))
            top = l;
        if (r < size && after(d2, heap[r], heap[top]))
            top = r;
        if (top == i)
            return;
        long long s = heap[i];
        heap[i] = heap[top];
        heap[top] = s;
        i = top;
    }
}

/* The k live positions p < m (alive[p] != 0) with the smallest
 * (d2[p], p), in that order, into out; returns how many (k, or every live
 * position when fewer).  One pass keeps the k best in a max-heap: a later
 * position never wins a tie, so a candidate enters only when strictly
 * closer than the heap's root.  Returns -1 when a NaN distance is among
 * the first k live ones (the caller then takes the numpy spec, which
 * sorts NaN last).
 */
long long repro_k_nearest(const double *restrict d2,
                          const unsigned char *restrict alive, long long m,
                          long long k, long long *restrict out)
{
    long long size = 0, p = 0;
    for (; p < m && size < k; ++p) {
        if (!alive[p])
            continue;
        if (d2[p] != d2[p])
            return -1;
        out[size++] = p;
    }
    for (long long i = size / 2 - 1; i >= 0; --i)
        sift(out, size, i, d2);
    if (size) {
        double worst = d2[out[0]];
        for (; p < m; ++p) {
            if (d2[p] < worst && alive[p]) {
                out[0] = p;
                sift(out, size, 0, d2);
                worst = d2[out[0]];
            }
        }
    }
    for (long long end = size - 1; end > 0; --end) {
        long long s = out[0];
        out[0] = out[end];
        out[end] = s;
        sift(out, end, 0, d2);
    }
    return size;
}

/* ---- The live index: a kd-tree over the unassigned records -------------
 *
 * The tree of a NearestIndex built over all n records (cols: d x n in leaf
 * order, ids: slot -> record id, slot: record id -> slot), plus a live
 * count per node and per-slot liveness.  A kill decrements the counts on
 * the leaf-to-root path, refits the leaf's box to its live records and
 * propagates the union upward, so every non-empty node's box is exactly
 * the bounding box of its live records.  Queries score a leaf's live
 * records with the canonical arithmetic (bitwise repro_sq_distances), skip
 * nodes without live records and prune the others only on a strict
 * inequality, so exact ties still go to the lowest record id.  Every query
 * returns -1, touching nothing, for a point with a NaN coordinate (the
 * caller then runs its numpy spec).
 */
typedef struct {
    long long n, d, n_inner;
    const double *cols;
    const long long *ids, *slot, *leaf_bounds;
    double *lo, *hi;
    long long *count;
    unsigned char *alive;
} live_tree;

static int has_nan(const double *x, long long d)
{
    for (long long j = 0; j < d; ++j)
        if (x[j] != x[j])
            return 1;
    return 0;
}

/* Upper bound on the squared distance from x to any point of the box: the
 * farther box face per column, squared and summed in the leaf scan's
 * column order.  For lo <= r <= hi, |x - r| <= max(x - lo, hi - x), and
 * rounding is monotone (and symmetric under negation), so the rounded
 * bound is never below the rounded distance to a record inside. */
static double box_reach(const double *restrict x, const double *restrict lo,
                        const double *restrict hi, long long d)
{
    double acc = 0.0;
    for (long long j = 0; j < d; ++j) {
        double a = x[j] - lo[j], b = hi[j] - x[j];
        double g = a > b ? a : b;
        acc += g * g;
    }
    return acc;
}

/* Canonical distances from x to the slots g0..g0+m-1 (m <= BLOCK). */
static void live_block(const live_tree *t, const double *restrict x,
                       long long g0, long long m, double *restrict buf)
{
    const double *c0 = t->cols + g0;
    for (long long r = 0; r < m; ++r) {
        double u = x[0] - c0[r];
        buf[r] = u * u;
    }
    for (long long j = 1; j < t->d; ++j) {
        const double *cj = t->cols + j * t->n + g0;
        double xj = x[j];
        for (long long r = 0; r < m; ++r) {
            double u = xj - cj[r];
            buf[r] += u * u;
        }
    }
}

/* Whether (da, ia) sorts after (db, ib). */
static int pair_after(double da, long long ia, double db, long long ib)
{
    return da > db || (da == db && ia > ib);
}

/* Restore the max-heap of (d2, id) pairs below position i. */
static void pair_sift(long long *id, double *d2, long long size, long long i)
{
    for (;;) {
        long long top = i, l = 2 * i + 1, r = l + 1;
        if (l < size && pair_after(d2[l], id[l], d2[top], id[top]))
            top = l;
        if (r < size && pair_after(d2[r], id[r], d2[top], id[top]))
            top = r;
        if (top == i)
            return;
        long long si = id[i];
        double sd = d2[i];
        id[i] = id[top];
        d2[i] = d2[top];
        id[top] = si;
        d2[top] = sd;
        i = top;
    }
}

/* The k live records with the smallest (distance, id), in that order, into
 * out_id / out_d2; returns how many (k, or every live record when fewer).
 * A max-heap holds the k best so far; a node is skipped when the heap is
 * full and the node's lower bound is strictly above the heap's root. */
long long repro_live_k_nearest(const live_tree *t, const double *restrict x,
                               long long k, long long *restrict out_id,
                               double *restrict out_d2)
{
    const long long d = t->d, n_inner = t->n_inner;
    long long stack[MAX_DEPTH], size = 0;
    double stack_bound[MAX_DEPTH], buf[BLOCK];
    int top = 0;
    if (has_nan(x, d))
        return -1;
    long long node = k > 0 && t->count[0] > 0 ? 0 : -1;
    while (node >= 0) {
        while (node < n_inner) {
            long long near = 2 * node + 1, far = near + 1;
            int live_far = t->count[far] > 0;
            double b_near = 0.0, b_far = 0.0;
            if (t->count[near] > 0)
                b_near = box_bound(x, t->lo + near * d, t->hi + near * d, d);
            if (live_far)
                b_far = box_bound(x, t->lo + far * d, t->hi + far * d, d);
            if (t->count[near] == 0 || (live_far && b_far < b_near)) {
                long long s = near;
                double sb = b_near;
                near = far;
                far = s;
                b_near = b_far;
                b_far = sb;
                live_far = t->count[far] > 0;
            }
            if (live_far && !(size == k && b_far > out_d2[0])) {
                stack[top] = far;
                stack_bound[top] = b_far;
                ++top;
            }
            node = size == k && b_near > out_d2[0] ? -1 : near;
            if (node < 0)
                break;
        }
        if (node >= 0) {
            long long leaf = node - n_inner;
            long long p1 = t->leaf_bounds[leaf + 1];
            for (long long g0 = t->leaf_bounds[leaf]; g0 < p1; g0 += BLOCK) {
                long long m = p1 - g0 < BLOCK ? p1 - g0 : BLOCK;
                live_block(t, x, g0, m, buf);
                for (long long r = 0; r < m; ++r) {
                    if (!t->alive[g0 + r])
                        continue;
                    long long id = t->ids[g0 + r];
                    if (size < k) {
                        /* Sift the new pair up from the end. */
                        long long i = size++;
                        while (i > 0) {
                            long long parent = (i - 1) / 2;
                            if (!pair_after(buf[r], id, out_d2[parent],
                                            out_id[parent]))
                                break;
                            out_id[i] = out_id[parent];
                            out_d2[i] = out_d2[parent];
                            i = parent;
                        }
                        out_id[i] = id;
                        out_d2[i] = buf[r];
                    } else if (pair_after(out_d2[0], out_id[0], buf[r], id)) {
                        out_id[0] = id;
                        out_d2[0] = buf[r];
                        pair_sift(out_id, out_d2, size, 0);
                    }
                }
            }
        }
        node = -1;
        while (top > 0) {
            --top;
            if (!(size == k && stack_bound[top] > out_d2[0])) {
                node = stack[top];
                break;
            }
        }
    }
    for (long long end = size - 1; end > 0; --end) {
        long long si = out_id[0];
        double sd = out_d2[0];
        out_id[0] = out_id[end];
        out_d2[0] = out_d2[end];
        out_id[end] = si;
        out_d2[end] = sd;
        pair_sift(out_id, out_d2, end, 0);
    }
    return size;
}

/* The pruning threshold of a farthest query at running maximum best.  With
 * margin 0 it is best: a node is skipped only when its upper bound is
 * strictly below the maximum.  With a margin the query must also score
 * every record in the band [best - margin * (1 + |best|), best] below the
 * final maximum (engine._band_floor), so it keeps every node reaching
 * within twice that margin of the running maximum: the final maximum is
 * never below the running one, and the band floor of the final maximum
 * then lies at least margin * (1 + |best|) above this threshold, far more
 * than their rounding.  An infinite maximum keeps every node at inf. */
static double reach_floor(double best, double margin)
{
    if (margin == 0.0 || best == INFINITY)
        return best;
    return best - 2.0 * margin * (1.0 + fabs(best));
}

/* The live record farthest from x, the lowest id on exact ties.  Its squared
 * distance goes to out[0] and the largest squared distance of the other
 * records scored to out[1] (-inf with none); with margin > 0 every record in
 * the band below the maximum (see reach_floor) is scored, so out[1] tells
 * whether the band holds a second record.  Returns the id, or -1 when no
 * record is live. */
long long repro_live_farthest(const live_tree *t, const double *restrict x,
                              double margin, double *restrict out)
{
    const long long d = t->d, n_inner = t->n_inner;
    long long stack[MAX_DEPTH], best_id = -1;
    double stack_bound[MAX_DEPTH], buf[BLOCK], best = -INFINITY;
    double runner = -INFINITY, cut = -INFINITY;
    int top = 0;
    if (has_nan(x, d))
        return -1;
    long long node = t->count[0] > 0 ? 0 : -1;
    while (node >= 0) {
        while (node < n_inner) {
            long long far = 2 * node + 1, near = far + 1;
            int live_near = t->count[near] > 0;
            double b_far = 0.0, b_near = 0.0;
            if (t->count[far] > 0)
                b_far = box_reach(x, t->lo + far * d, t->hi + far * d, d);
            if (live_near)
                b_near = box_reach(x, t->lo + near * d, t->hi + near * d, d);
            if (t->count[far] == 0 || (live_near && b_near > b_far)) {
                long long s = far;
                double sb = b_far;
                far = near;
                near = s;
                b_far = b_near;
                b_near = sb;
                live_near = t->count[near] > 0;
            }
            if (live_near && !(b_near < cut)) {
                stack[top] = near;
                stack_bound[top] = b_near;
                ++top;
            }
            node = b_far < cut ? -1 : far;
            if (node < 0)
                break;
        }
        if (node >= 0) {
            long long leaf = node - n_inner;
            long long p1 = t->leaf_bounds[leaf + 1];
            for (long long g0 = t->leaf_bounds[leaf]; g0 < p1; g0 += BLOCK) {
                long long m = p1 - g0 < BLOCK ? p1 - g0 : BLOCK;
                live_block(t, x, g0, m, buf);
                for (long long r = 0; r < m; ++r) {
                    if (!t->alive[g0 + r])
                        continue;
                    long long id = t->ids[g0 + r];
                    if (buf[r] > best || (buf[r] == best && id < best_id)) {
                        runner = best;
                        best = buf[r];
                        best_id = id;
                    } else if (buf[r] > runner) {
                        runner = buf[r];
                    }
                }
            }
            cut = reach_floor(best, margin);
        }
        node = -1;
        while (top > 0) {
            --top;
            if (!(stack_bound[top] < cut)) {
                node = stack[top];
                break;
            }
        }
    }
    out[0] = best;
    out[1] = runner;
    return best_id;
}

/* Every live record at squared distance >= least from x, in tree order:
 * the first cap ids into out; returns how many there are in all. */
long long repro_live_at_or_above(const live_tree *t, const double *restrict x,
                                 double least, long long *restrict out,
                                 long long cap)
{
    const long long d = t->d, n_inner = t->n_inner;
    long long stack[MAX_DEPTH], found = 0;
    double buf[BLOCK];
    int top = 0;
    if (has_nan(x, d))
        return -1;
    if (t->count[0] > 0)
        stack[top++] = 0;
    while (top > 0) {
        long long node = stack[--top];
        /* Descend the left spine, deferring right children. */
        while (node < n_inner) {
            long long left = 2 * node + 1, right = left + 1;
            int keep_left = t->count[left] > 0
                && !(box_reach(x, t->lo + left * d, t->hi + left * d, d) < least);
            if (t->count[right] > 0
                && !(box_reach(x, t->lo + right * d, t->hi + right * d, d) < least))
                stack[top++] = right;
            node = keep_left ? left : -1;
            if (node < 0)
                break;
        }
        if (node < 0)
            continue;
        long long leaf = node - n_inner;
        long long p1 = t->leaf_bounds[leaf + 1];
        for (long long g0 = t->leaf_bounds[leaf]; g0 < p1; g0 += BLOCK) {
            long long m = p1 - g0 < BLOCK ? p1 - g0 : BLOCK;
            live_block(t, x, g0, m, buf);
            for (long long r = 0; r < m; ++r) {
                if (t->alive[g0 + r] && buf[r] >= least) {
                    if (found < cap)
                        out[found] = t->ids[g0 + r];
                    ++found;
                }
            }
        }
    }
    return found;
}

/* Recompute node v's box from its live children; returns whether it moved. */
static int refit_inner(live_tree *t, long long v)
{
    const long long d = t->d;
    long long l = 2 * v + 1, r = l + 1;
    double *lo = t->lo + v * d, *hi = t->hi + v * d;
    const double *llo = t->lo + l * d, *lhi = t->hi + l * d;
    const double *rlo = t->lo + r * d, *rhi = t->hi + r * d;
    int moved = 0;
    for (long long j = 0; j < d; ++j) {
        double a, b;
        if (t->count[l] == 0) {
            a = rlo[j];
            b = rhi[j];
        } else if (t->count[r] == 0) {
            a = llo[j];
            b = lhi[j];
        } else {
            a = llo[j] < rlo[j] ? llo[j] : rlo[j];
            b = lhi[j] > rhi[j] ? lhi[j] : rhi[j];
        }
        moved |= a != lo[j] || b != hi[j];
        lo[j] = a;
        hi[j] = b;
    }
    return moved;
}

/* Mark the m live records rec[0..m) dead (the caller checks they are live
 * and distinct), keeping the counts and boxes exact. */
void repro_live_kill(live_tree *t, const long long *restrict rec, long long m)
{
    const long long d = t->d, n = t->n, n_inner = t->n_inner;
    for (long long i = 0; i < m; ++i) {
        long long s = t->slot[rec[i]], a = 0, b = n_inner + 1;
        t->alive[s] = 0;
        /* The leaf holding slot s: the last one starting at or before it. */
        while (b - a > 1) {
            long long mid = a + (b - a) / 2;
            if (t->leaf_bounds[mid] <= s)
                a = mid;
            else
                b = mid;
        }
        long long leaf = n_inner + a, v = leaf;
        for (;;) {
            --t->count[v];
            if (v == 0)
                break;
            v = (v - 1) / 2;
        }
        int moved = t->count[leaf] == 0;
        double *lo = t->lo + leaf * d, *hi = t->hi + leaf * d;
        int on_face = 0;
        for (long long j = 0; j < d; ++j) {
            double c = t->cols[j * n + s];
            on_face |= c == lo[j] || c == hi[j];
        }
        /* A record strictly inside its leaf's box leaves the box as is. */
        if (!moved && on_face) {
            long long p0 = t->leaf_bounds[a], p1 = t->leaf_bounds[a + 1];
            for (long long j = 0; j < d; ++j) {
                const double *c = t->cols + j * n;
                double mn = INFINITY, mx = -INFINITY;
                for (long long p = p0; p < p1; ++p) {
                    if (!t->alive[p])
                        continue;
                    if (c[p] < mn)
                        mn = c[p];
                    if (c[p] > mx)
                        mx = c[p];
                }
                moved |= mn != lo[j] || mx != hi[j];
                lo[j] = mn;
                hi[j] = mx;
            }
        }
        for (v = leaf; moved && v > 0;) {
            v = (v - 1) / 2;
            moved = t->count[v] == 0 || refit_inner(t, v);
        }
    }
}

/* ---- Algorithm 2's swap refinement, exact integers ----------------------
 *
 * Attribute a is attrs[4a..4a+3] = {kind (0 ordered, 1 nominal), m, w, T}
 * and tables[3a..3a+2] = {record -> bin map, cum, prefix} when ordered,
 * {record -> bin map, counts, counts} when nominal.  A cluster of c records
 * has the numerator S = sum_i |n*cum_c(i) - c*cum(i)| (ordered) or
 * sum_i |n*C_i - c*counts(i)| (nominal), EMD = S / (c*n*w); the caller
 * keeps k*n*m < 2^63, under which every product below fits 64 bits.
 * Scores S/w of different attributes compare by 128-bit cross products.
 */

typedef __int128 wide;

/* sum_{i in [s, e)} |nk - c*cum[i]|; cum is non-decreasing, so the sign
 * flips at the first i with cum[i] > nk / c (floor: cum is an integer). */
static long long segment(const long long *cum, const long long *prefix,
                         long long s, long long e, long long nk, long long c)
{
    if (s >= e)
        return 0;
    long long thr = nk / c, lo = s, hi = e;
    while (lo < hi) {
        long long mid = lo + (hi - lo) / 2;
        if (cum[mid] > thr)
            hi = mid;
        else
            lo = mid + 1;
    }
    return nk * (lo - s) - c * (prefix[lo] - prefix[s])
           + c * (prefix[e] - prefix[lo]) - nk * (e - lo);
}

/* Ordered S of the distinct member bins u[0..r) with counts cnt, one member
 * at u[rm] replaced by a record at bin add (rm = -1, add = -1: no swap). */
static long long ordered_s(const long long *cum, const long long *prefix,
                           long long m, long long n, long long c,
                           const long long *u, const long long *cnt,
                           long long r, long long rm, long long add)
{
    long long s = 0, start = 0, k = 0, i = 0;
    int adding = add >= 0;
    while (i < r || adding) {
        long long b, delta = 0;
        if (adding && (i == r || add <= u[i])) {
            b = add;
            delta = 1;
            adding = 0;
            if (i < r && u[i] == add) {
                delta += cnt[i] - (i == rm);
                ++i;
            }
        } else {
            b = u[i];
            delta = cnt[i] - (i == rm);
            ++i;
        }
        if (delta) {
            s += segment(cum, prefix, start, b, n * k, c);
            k += delta;
            start = b;
        }
    }
    return s + segment(cum, prefix, start, m, n * k, c);
}

/* Index of bin b in the distinct bins u[0..r), or -1. */
static long long find(const long long *u, long long r, long long b)
{
    long long lo = 0, hi = r;
    while (lo < hi) {
        long long mid = lo + (hi - lo) / 2;
        if (u[mid] < b)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < r && u[lo] == b ? lo : -1;
}

/* Per attribute the work area holds, c entries each: the sorted member
 * bins, the distinct ones and their counts (r of them), the swap S per
 * distinct bin and per member; then the current S. */
enum { SORTED, DISTINCT, COUNTS, PER_BIN, PER_MEMBER, CURRENT };

/* Distinct bins and counts of the sorted member bins; returns how many. */
static long long distinct(const long long *sorted, long long c, long long *u,
                          long long *cnt)
{
    long long r = 0;
    for (long long j = 0; j < c; ++j) {
        if (r && u[r - 1] == sorted[j]) {
            ++cnt[r - 1];
        } else {
            u[r] = sorted[j];
            cnt[r++] = 1;
        }
    }
    return r;
}

/* Insert bin b into the sorted bins s[0..len), which have room for one. */
static void insert(long long *s, long long len, long long b)
{
    long long i = len;
    for (; i > 0 && s[i - 1] > b; --i)
        s[i] = s[i - 1];
    s[i] = b;
}

/* max_a work_a[off] / w_a as a (numerator, weight) pair. */
static void max_score(const long long *work, long long stride, long long off,
                      const long long *attrs, long long n_attr,
                      long long *s, long long *w)
{
    *s = work[off];
    *w = attrs[2];
    for (long long a = 1; a < n_attr; ++a) {
        long long sa = work[a * stride + off], wa = attrs[4 * a + 2];
        if ((wide)sa * *w > (wide)*s * wa) {
            *s = sa;
            *w = wa;
        }
    }
}

/* S of attribute a's current members. */
static long long current_s(const long long *attr, const long long *const *tab,
                           long long n, long long c, const long long *u,
                           const long long *cnt, long long r)
{
    if (attr[0] == 0)
        return ordered_s(tab[1], tab[2], attr[1], n, c, u, cnt, r, -1, -1);
    long long s = 0, covered = 0;
    for (long long i = 0; i < r; ++i) {
        long long d = n * cnt[i] - c * tab[1][u[i]];
        s += d < 0 ? -d : d;
        covered += tab[1][u[i]];
    }
    return s + c * (n - covered);
}

/* S of each member's swap for a record at bin add: per distinct member
 * bin (PER_BIN), then per member (PER_MEMBER). */
static void swap_s(const long long *attr, const long long *const *tab,
                   long long n, long long c, const long long *members,
                   long long *work, long long r, long long add)
{
    const long long *u = work + DISTINCT * c, *cnt = work + COUNTS * c;
    long long *per_bin = work + PER_BIN * c, cur = work[CURRENT * c];
    if (attr[0] == 0) {
        for (long long i = 0; i < r; ++i)
            per_bin[i] = ordered_s(tab[1], tab[2], attr[1], n, c, u, cnt, r,
                                   i, add);
    } else {
        long long ia = find(u, r, add);
        long long da = n * (ia < 0 ? 0 : cnt[ia]) - c * tab[1][add];
        long long gain = llabs(da + n) - llabs(da);
        for (long long i = 0; i < r; ++i) {
            long long dr = n * cnt[i] - c * tab[1][u[i]];
            per_bin[i] = u[i] == add ? cur
                                     : cur + gain + llabs(dr - n) - llabs(dr);
        }
    }
    for (long long j = 0; j < c; ++j)
        work[PER_MEMBER * c + j] = per_bin[find(u, r, tab[0][members[j]])];
}

/* Refine one k-record cluster over the pool chunk (record ids, in order):
 * while some S_a > T_a, stop when `budget` swaps were accepted (status 2)
 * or the chunk is used up (status 1); else score the next record's swap
 * against every member, take the first lowest max_a S_a/w_a and accept it
 * if strictly below the current score.  Status 0: within t.  members is
 * edited in place; out = {swaps accepted, records consumed}.  Returns -1
 * when out of memory, -2 on a record id outside [0, n).
 */
long long repro_alg2_refine(const long long *attrs,
                            const long long *const *tables,
                            long long n_attr, long long n,
                            long long *members, long long c,
                            const long long *pool, long long n_pool,
                            long long budget, long long *out)
{
    long long stride = CURRENT * c + 1;
    long long *work = malloc(sizeof(long long) * (size_t)(n_attr * (stride + 1)));
    long long *rs, swaps = 0, consumed = 0, status = 0;
    if (!work)
        return -1;
    rs = work + n_attr * stride; /* distinct member bins per attribute */
    for (long long j = 0; j < c; ++j)
        if (members[j] < 0 || members[j] >= n)
            status = -2;
    for (long long a = 0; a < n_attr && status == 0; ++a) {
        long long *w = work + a * stride;
        for (long long j = 0; j < c; ++j)
            insert(w, j, tables[3 * a][members[j]]);
        rs[a] = distinct(w, c, w + DISTINCT * c, w + COUNTS * c);
        w[CURRENT * c] = current_s(attrs + 4 * a, tables + 3 * a, n, c,
                                   w + DISTINCT * c, w + COUNTS * c, rs[a]);
    }
    while (status == 0) {
        int over = 0;
        for (long long a = 0; a < n_attr; ++a)
            over |= work[a * stride + CURRENT * c] > attrs[4 * a + 3];
        if (!over)
            break;
        if (swaps >= budget) {
            status = 2;
            break;
        }
        if (consumed == n_pool) {
            status = 1;
            break;
        }
        long long y = pool[consumed++];
        if (y < 0 || y >= n) {
            status = -2;
            break;
        }
        for (long long a = 0; a < n_attr; ++a)
            swap_s(attrs + 4 * a, tables + 3 * a, n, c, members,
                   work + a * stride, rs[a], tables[3 * a][y]);
        long long best = -1, bs = 0, bw = 1, s, w;
        for (long long j = 0; j < c; ++j) {
            max_score(work, stride, PER_MEMBER * c + j, attrs, n_attr, &s, &w);
            if (best < 0 || (wide)s * bw < (wide)bs * w) {
                best = j;
                bs = s;
                bw = w;
            }
        }
        max_score(work, stride, CURRENT * c, attrs, n_attr, &s, &w);
        if (!((wide)bs * w < (wide)s * bw))
            continue;
        for (long long a = 0; a < n_attr; ++a) {
            long long *sorted = work + a * stride, i = 0;
            long long old = tables[3 * a][members[best]];
            while (sorted[i] != old)
                ++i;
            for (; i + 1 < c; ++i)
                sorted[i] = sorted[i + 1];
            insert(sorted, c - 1, tables[3 * a][y]);
            rs[a] = distinct(sorted, c, sorted + DISTINCT * c,
                             sorted + COUNTS * c);
            sorted[CURRENT * c] = sorted[PER_MEMBER * c + best];
        }
        members[best] = y;
        ++swaps;
    }
    out[0] = swaps;
    out[1] = consumed;
    free(work);
    return status;
}

/* ---- The merge phase's step (Algorithm 1), exact integers --------------
 *
 * The clusters of repro.core.merge's loop: per cluster g its size, its
 * liveness and its exact EMD ratio ratio[2g] / ratio[2g+1] (the max over
 * attributes of S_a / (c*n*w_a), the first attribute on exact ties, 0/1
 * when every S_a is 0), its members as a list linked through the records
 * (head, tail, next; a live cluster's tail links to -1) and its centroid,
 * entry g of each of the d columns of cols (d x G).  The live clusters sit
 * in an indexed binary heap, the largest ratio first and the lowest id on
 * exact ties, with no stale entries (where[g]: g's slot, -1 once
 * absorbed).  Attributes are the refinement's attrs / tables.  work holds
 * 4n scratch entries; pair receives each step's (worst, partner).  min(t, 1)
 * is t_num / 2^t_exp exactly: a float's ratio has a power-of-two
 * denominator.
 */
typedef struct {
    long long n_clusters, d, n_attr, n, t_num, t_exp, n_heap;
    const long long *attrs;
    const long long *const *tables;
    double *cols;
    long long *size, *ratio, *heap, *where, *head, *tail, *next, *work, *pair;
    unsigned char *alive;
} merge_state;

enum { MERGE_STOP = 0, MERGED = 1, MERGE_NO_CENTROIDS = 2,
       MERGE_PAST_BOUND = -1, MERGE_BAD_PAIR = -2 };

/* Whether cluster a pops before cluster b: a larger exact ratio (cross
 * products below 2^126), or an equal one and a lower id. */
static int pops_before(const merge_state *s, long long a, long long b)
{
    wide x = (wide)s->ratio[2 * a] * s->ratio[2 * b + 1];
    wide y = (wide)s->ratio[2 * b] * s->ratio[2 * a + 1];
    return x > y || (x == y && a < b);
}

static void heap_set(merge_state *s, long long i, long long g)
{
    s->heap[i] = g;
    s->where[g] = i;
}

static void heap_up(merge_state *s, long long i)
{
    long long g = s->heap[i];
    while (i > 0 && pops_before(s, g, s->heap[(i - 1) / 2])) {
        heap_set(s, i, s->heap[(i - 1) / 2]);
        i = (i - 1) / 2;
    }
    heap_set(s, i, g);
}

static void heap_down(merge_state *s, long long i)
{
    long long g = s->heap[i];
    for (;;) {
        long long c = 2 * i + 1;
        if (c >= s->n_heap)
            break;
        if (c + 1 < s->n_heap && pops_before(s, s->heap[c + 1], s->heap[c]))
            ++c;
        if (!pops_before(s, s->heap[c], g))
            break;
        heap_set(s, i, s->heap[c]);
        i = c;
    }
    heap_set(s, i, g);
}

/* Heap the live clusters. */
void repro_merge_heapify(merge_state *s)
{
    s->n_heap = 0;
    for (long long g = 0; g < s->n_clusters; ++g) {
        if (s->alive[g])
            heap_set(s, s->n_heap++, g);
        else
            s->where[g] = -1;
    }
    for (long long i = s->n_heap / 2 - 1; i >= 0; --i)
        heap_down(s, i);
}

/* Whether cluster g's ratio num/den is at most t_num / 2^t_exp, exactly:
 * num <= floor(t_num * den / 2^t_exp), with t_num < 2^53 and den < 2^63. */
static int within_t(const merge_state *s, long long g)
{
    unsigned __int128 bound = 0;
    if (s->t_exp < 128)
        bound = ((unsigned __int128)s->t_num * (unsigned long long)s->ratio[2 * g + 1])
                >> s->t_exp;
    return (unsigned __int128)s->ratio[2 * g] <= bound;
}

/* The live cluster other than w nearest w's centroid: the smallest
 * (squared distance, id), a NaN distance after every number.  Distances
 * accumulate in repro_sq_distances' column order; with no columns every
 * distance is 0.  Returns -1 when w is the only live cluster. */
static long long nearest_partner(const merge_state *s, long long w)
{
    const long long G = s->n_clusters, d = s->d;
    long long best = -1;
    double best_d2 = 0.0, buf[BLOCK];
    for (long long g0 = 0; g0 < G; g0 += BLOCK) {
        long long m = G - g0 < BLOCK ? G - g0 : BLOCK;
        if (d == 0) {
            for (long long r = 0; r < m; ++r)
                buf[r] = 0.0;
        } else {
            const double *c0 = s->cols + g0;
            double p0 = s->cols[w];
            for (long long r = 0; r < m; ++r) {
                double u = c0[r] - p0;
                buf[r] = u * u;
            }
        }
        for (long long j = 1; j < d; ++j) {
            const double *cj = s->cols + j * G + g0;
            double pj = s->cols[j * G + w];
            for (long long r = 0; r < m; ++r) {
                double u = cj[r] - pj;
                buf[r] += u * u;
            }
        }
        /* Ids ascend, so a later cluster wins only when strictly nearer,
         * or when it is a number and the best so far is NaN. */
        for (long long r = 0; r < m; ++r) {
            long long g = g0 + r;
            if (!s->alive[g] || g == w)
                continue;
            if (best < 0 || buf[r] < best_d2
                || (best_d2 != best_d2 && buf[r] == buf[r])) {
                best = g;
                best_d2 = buf[r];
            }
        }
    }
    return best;
}

/* Sort c bins ascending: insertion below 32, qsort above. */
static int compare_ll(const void *a, const void *b)
{
    long long x = *(const long long *)a, y = *(const long long *)b;
    return (x > y) - (x < y);
}

static void sort_bins(long long *bins, long long c)
{
    if (c > 32) {
        qsort(bins, (size_t)c, sizeof *bins, compare_ll);
        return;
    }
    for (long long j = 1; j < c; ++j)
        insert(bins, j, bins[j]);
}

/* Recompute cluster g's ratio from its members' bins: per attribute the
 * bins gathered along the links, sorted, their distinct values counted and
 * S_a taken as the refinement does (current_s).  Returns MERGE_PAST_BOUND,
 * leaving the ratio, when c*n*m reaches 2^63 for some attribute. */
static long long rescore(merge_state *s, long long g)
{
    const long long n = s->n, c = s->size[g];
    long long *ids = s->work, *sorted = ids + n, *u = sorted + n, *cnt = u + n;
    long long num = 0, den = 1;
    for (long long a = 0; a < s->n_attr; ++a)
        if ((wide)c * n * s->attrs[4 * a + 1] >= ((wide)1 << 63))
            return MERGE_PAST_BOUND;
    for (long long i = 0, r = s->head[g]; i < c; ++i, r = s->next[r])
        ids[i] = r;
    for (long long a = 0; a < s->n_attr; ++a) {
        const long long *attr = s->attrs + 4 * a, *bins = s->tables[3 * a];
        for (long long i = 0; i < c; ++i)
            sorted[i] = bins[ids[i]];
        sort_bins(sorted, c);
        long long r = distinct(sorted, c, u, cnt);
        long long sa = current_s(attr, s->tables + 3 * a, n, c, u, cnt, r);
        /* An attribute with S_a > 0 has m >= 2 bins, so w <= m and its
         * denominator c*n*w stays below 2^63. */
        wide da = (wide)c * n * attr[2];
        if ((wide)sa * den > (wide)num * da) {
            num = sa;
            den = (long long)da;
        }
    }
    s->ratio[2 * g] = num;
    s->ratio[2 * g + 1] = den;
    return MERGED;
}

/* Merge live cluster p into live cluster w: w's centroid becomes the
 * size-weighted mean of both, p's members are spliced after w's, p leaves
 * the heap and w is re-scored and re-placed. */
static long long commit(merge_state *s, long long w, long long p)
{
    const long long G = s->n_clusters;
    double sw = (double)s->size[w], sp = (double)s->size[p];
    double st = (double)(s->size[w] + s->size[p]);
    for (long long j = 0; j < s->d; ++j) {
        double *col = s->cols + j * G;
        col[w] = (sw * col[w] + sp * col[p]) / st;
    }
    s->next[s->tail[w]] = s->head[p];
    s->tail[w] = s->tail[p];
    s->size[w] += s->size[p];
    s->alive[p] = 0;
    long long i = s->where[p], last = s->heap[--s->n_heap];
    s->where[p] = -1;
    if (last != p) {
        heap_set(s, i, last);
        heap_up(s, i);
        heap_down(s, s->where[last]);
    }
    long long status = rescore(s, w);
    if (status == MERGED) {
        heap_up(s, s->where[w]);
        heap_down(s, s->where[w]);
    }
    return status;
}

/* One merge of the loop: stop (MERGE_STOP) when one cluster is left or
 * the worst one is within t; else merge the nearest partner into it and
 * write (worst, partner) to pair (MERGED).  MERGE_NO_CENTROIDS, changing
 * nothing, when a merge is due and the centroid columns are not bound. */
long long repro_merge_step(merge_state *s)
{
    if (s->n_heap < 2)
        return MERGE_STOP;
    long long w = s->heap[0];
    if (within_t(s, w))
        return MERGE_STOP;
    if (s->d > 0 && !s->cols)
        return MERGE_NO_CENTROIDS;
    long long p = nearest_partner(s, w);
    s->pair[0] = w;
    s->pair[1] = p;
    return commit(s, w, p);
}

/* The step's commit of a given pair (a resume's replay): MERGE_BAD_PAIR
 * unless both are distinct live clusters. */
long long repro_merge_commit(merge_state *s, long long w, long long p)
{
    if (w < 0 || p < 0 || w >= s->n_clusters || p >= s->n_clusters || w == p
        || !s->alive[w] || !s->alive[p])
        return MERGE_BAD_PAIR;
    if (s->d > 0 && !s->cols)
        return MERGE_NO_CENTROIDS;
    return commit(s, w, p);
}

/* Label every member of a live cluster with the cluster's rank among the
 * live ones (ascending id); returns how many records were labelled. */
long long repro_merge_labels(const merge_state *s, long long *labels)
{
    long long rank = 0, written = 0;
    for (long long g = 0; g < s->n_clusters; ++g) {
        if (!s->alive[g])
            continue;
        for (long long i = 0, r = s->head[g]; i < s->size[g]; ++i, r = s->next[r])
            labels[r] = rank;
        written += s->size[g];
        ++rank;
    }
    return written;
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
    so_path = cache / f"native-{key}.so"
    if so_path.exists():
        return so_path
    cache.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache) as build:
        src = Path(build) / "native.c"
        src.write_text(_SOURCE)
        out = Path(build) / "native.so"
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


def _address(a: np.ndarray) -> int:
    """Address of the first element of ``a``.

    ``ctypes.c_char.from_buffer`` exports a writable, C-contiguous,
    non-empty buffer and ``ctypes.addressof`` reads its address: about
    0.4 µs, against 2 µs for ``a.ctypes.data``.  Any other array
    (read-only, strided or empty) is refused by ``from_buffer`` and takes
    ``a.ctypes.data``.  Nothing is cached: the caller keeps ``a`` alive
    for the call.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data


class Native(NamedTuple):
    """The library's bound entry points (see :func:`load`)."""

    kd_nearest: Callable
    alg2_refine: Callable
    sq_distances: Callable
    k_nearest: Callable
    live_k_nearest: Callable
    live_farthest: Callable
    live_at_or_above: Callable
    live_kill: Callable
    merge_heapify: Callable
    merge_step: Callable
    merge_commit: Callable
    merge_labels: Callable


class LiveHandle(ctypes.Structure):
    """A :class:`~repro.backend.kernels.LiveTree`'s arrays by address, as
    the ``repro_live_*`` entry points take them (their ``live_tree``)."""

    _fields_ = [
        ("n", ctypes.c_longlong),
        ("d", ctypes.c_longlong),
        ("n_inner", ctypes.c_longlong),
        ("cols", ctypes.c_void_p),
        ("ids", ctypes.c_void_p),
        ("slot", ctypes.c_void_p),
        ("leaf_bounds", ctypes.c_void_p),
        ("lo", ctypes.c_void_p),
        ("hi", ctypes.c_void_p),
        ("count", ctypes.c_void_p),
        ("alive", ctypes.c_void_p),
    ]


def live_handle(tree) -> LiveHandle:
    """Bind a :class:`~repro.backend.kernels.LiveTree` once.

    The queries then take ``ctypes.addressof`` of the result; the caller
    keeps both the handle and ``tree`` (whose arrays it points into)
    alive while it queries.
    """
    d, n = tree.cols.shape
    return LiveHandle(
        n,
        d,
        len(tree.leaf_bounds) - 2,
        *(
            _address(a)
            for a in (
                tree.cols,
                tree.ids,
                tree.slot,
                tree.leaf_bounds,
                tree.lo,
                tree.hi,
                tree.count,
                tree.alive,
            )
        ),
    )


#: Statuses of the merge step and its commit (``repro_merge_step``,
#: ``repro_merge_commit``): the loop stops, a pair merged, a merge is due
#: but the centroid columns are not bound (nothing changed), the merged
#: cluster reaches c*n*m >= 2**63, the pair names no two live clusters.
MERGE_STOP, MERGED, MERGE_NO_CENTROIDS, MERGE_PAST_BOUND, MERGE_BAD_PAIR = 0, 1, 2, -1, -2


class MergeHandle(ctypes.Structure):
    """A :class:`~repro.backend.kernels.MergeState`'s arrays by address, as
    the ``repro_merge_*`` entry points take them (their ``merge_state``)."""

    _fields_ = [
        ("n_clusters", ctypes.c_longlong),
        ("d", ctypes.c_longlong),
        ("n_attr", ctypes.c_longlong),
        ("n", ctypes.c_longlong),
        ("t_num", ctypes.c_longlong),
        ("t_exp", ctypes.c_longlong),
        ("n_heap", ctypes.c_longlong),
        ("attrs", ctypes.c_void_p),
        ("tables", ctypes.c_void_p),
        ("cols", ctypes.c_void_p),
        ("size", ctypes.c_void_p),
        ("ratio", ctypes.c_void_p),
        ("heap", ctypes.c_void_p),
        ("where", ctypes.c_void_p),
        ("head", ctypes.c_void_p),
        ("tail", ctypes.c_void_p),
        ("next", ctypes.c_void_p),
        ("work", ctypes.c_void_p),
        ("pair", ctypes.c_void_p),
        ("alive", ctypes.c_void_p),
    ]


def merge_handle(state, layout, tables, t_num: int, t_den: int) -> MergeHandle:
    """Bind a :class:`~repro.backend.kernels.MergeState` once.

    ``layout`` and ``tables`` are the integer frames' kernel view
    (:func:`repro.core.confidential.kernel_view`) and ``t_num / t_den``
    is ``min(t, 1)`` as its float's exact ratio, whose denominator is a
    power of two.  The centroid columns are bound later, by
    :func:`bind_columns`.  The entry points then take ``ctypes.addressof``
    of the result; the caller keeps the handle, ``state`` and the frames
    alive while it steps.
    """
    if t_den & (t_den - 1):
        raise ValueError(f"t's denominator {t_den} is not a power of two")
    return MergeHandle(
        state.size.size,
        state.d,
        layout.shape[0],
        state.next.size,
        t_num,
        t_den.bit_length() - 1,
        0,
        _address(layout),
        _address(tables),
        None,
        *(
            _address(a)
            for a in (
                state.size,
                state.ratio,
                state.heap,
                state.where,
                state.head,
                state.tail,
                state.next,
                state.work,
                state.pair,
                state.alive,
            )
        ),
    )


def bind_columns(handle: MergeHandle, cols: np.ndarray) -> None:
    """Point a merge handle at its centroid columns, a C-contiguous
    ``(d, G)`` float64 array the caller keeps alive."""
    if not (
        cols.dtype == np.float64
        and cols.flags.c_contiguous
        and cols.shape == (handle.d, handle.n_clusters)
    ):
        raise ValueError(
            f"centroid columns must be C-contiguous float64 of shape "
            f"({handle.d}, {handle.n_clusters})"
        )
    handle.cols = _address(cols)


def _bind_kd(fn):
    """The raw kd query as ``query(rows, index, assignment, best_d2)``.

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


def _bind_refine(fn):
    """The raw kernel as ``refine(frame, members, pool, budget)``.

    ``frame`` is a :class:`~repro.core.confidential.SwapFrame`, whose
    leading arguments (``kernel_args``) are converted once per fit; only
    the int64 ``members`` (edited in place) and ``pool`` arrays and the
    output are converted per call.  Returns ``(swaps, consumed, status)``
    like the spec, :meth:`SwapFrame.refine
    <repro.core.confidential.SwapFrame.refine>`.
    """

    def refine(frame, members, pool, budget):
        for arr in (members, pool):
            if arr.dtype != np.int64 or not arr.flags.c_contiguous:
                raise ValueError("members and pool must be contiguous int64")
        if members.size != frame.k:
            raise ValueError(f"a refined cluster has k={frame.k} members")
        out = np.zeros(2, dtype=np.int64)
        status = fn(
            *frame.kernel_args,
            _address(members),
            members.size,
            _address(pool),
            pool.size,
            budget,
            _address(out),
        )
        if status < 0:
            raise (MemoryError if status == -1 else IndexError)(
                "refinement kernel failed"
            )
        return int(out[0]), int(out[1]), int(status)

    return refine


def _bind_sq(fn):
    """The raw scan as ``scan(cols, point, out, n) -> bool``.

    Fills ``out[:n]`` with the canonical squared distances from ``point``
    (float64, contiguous, ``d >= 1`` entries) to the first ``n`` records of
    ``cols``, the transposed record matrix, whose columns must each be
    contiguous float64 (any column stride).  Returns ``False``, touching
    nothing, for any other layout; the caller then runs the numpy spec.
    """

    def scan(cols, point, out, n) -> bool:
        if not (
            cols.dtype == point.dtype == out.dtype == np.float64
            and cols.ndim == 2
            and cols.strides[1] == 8
            and cols.strides[0] % 8 == 0
            and point.ndim == out.ndim == 1
            and point.flags.c_contiguous
            and out.flags.c_contiguous
            and 0 < point.shape[0] <= cols.shape[0]
            and 0 <= n <= min(cols.shape[1], out.shape[0])
        ):
            return False
        fn(
            _address(cols),
            cols.strides[0] // 8,
            point.shape[0],
            _address(point),
            _address(out),
            n,
        )
        return True

    return scan


def _bind_k_nearest(fn):
    """The raw selection as ``select(d2, alive, m, k)``.

    ``d2`` (float64) and ``alive`` (bool) are contiguous buffers at least
    ``m`` long.  Returns the positions ``p < m`` with ``alive[p]`` of the
    ``k`` smallest ``(d2[p], p)``, in that order (every live position when
    fewer), or ``None`` when the kernel declines: a NaN among the first k
    live distances, or buffers it does not take.
    """

    def select(d2, alive, m, k):
        if not (
            d2.dtype == np.float64
            and alive.dtype == np.bool_
            and d2.flags.c_contiguous
            and alive.flags.c_contiguous
            and 0 <= m <= min(d2.shape[0], alive.shape[0])
        ):
            return None
        out = np.empty(max(min(k, m), 0), dtype=np.int64)
        got = fn(_address(d2), _address(alive), m, k, _address(out))
        return None if got < 0 else out[:got]

    return select


def _bind_live(knn, farthest, at_or_above, kill):
    """The raw live-index entry points, over a bound tree's address.

    ``tree`` is ``ctypes.addressof`` of a :func:`live_handle`; ``point``
    a contiguous float64 array of the tree's width.  The caller
    guarantees the rest (the live index owns every array it passes):

    * ``k_nearest(tree, point, k, out_id, out_d2)`` writes the k live
      records with the smallest (distance, id), in that order, with their
      squared distances, into int64 / float64 buffers at least
      ``min(k, live)`` long, and returns how many;
    * ``farthest(tree, point, margin, out)`` returns the farthest live
      record, the lowest id on ties (or -1 with none live), with its
      squared distance in ``out[0]`` and the largest of the other scored
      records' in ``out[1]``; with ``margin > 0`` every record within
      ``margin * (1 + top)`` of the maximum ``top`` is scored, so
      ``out[1]`` reaches that floor exactly when a second record does;
    * ``at_or_above(tree, point, least, out, cap)`` writes the first
      ``cap`` ids, in tree order, of the live records at squared distance
      ``>= least`` and returns how many there are in all;
    * ``kill(tree, ids)`` marks the live, distinct int64 ``ids`` dead.

    Each query returns -1 for a point with a NaN coordinate.
    """

    def k_nearest(tree, point, k, out_id, out_d2):
        return knn(tree, _address(point), k, _address(out_id), _address(out_d2))

    def far(tree, point, margin, out):
        return farthest(tree, _address(point), margin, _address(out))

    def band(tree, point, least, out, cap):
        return at_or_above(tree, _address(point), least, _address(out), cap)

    def retire(tree, ids):
        kill(tree, _address(ids), ids.size)

    return k_nearest, far, band, retire


def _bind_merge(heapify, step, commit, labels):
    """The raw merge entry points, over a bound state's address.

    ``state`` is ``ctypes.addressof`` of a :func:`merge_handle`:

    * ``heapify(state)`` heaps the live clusters;
    * ``step(state)`` runs one merge of the loop and returns its status
      (:data:`MERGE_STOP`, :data:`MERGED` with (worst, partner) in the
      state's ``pair``, :data:`MERGE_NO_CENTROIDS` or
      :data:`MERGE_PAST_BOUND`);
    * ``commit(state, worst, partner)`` merges the given pair as the step
      does (:data:`MERGED`, :data:`MERGE_NO_CENTROIDS`,
      :data:`MERGE_PAST_BOUND`, or :data:`MERGE_BAD_PAIR` unless both are
      distinct live clusters);
    * ``labels(handle, out)`` writes every record's cluster, ranked among
      the live clusters by id, into ``out``, a contiguous int64 array of
      n, and returns how many records it wrote; it takes the
      :class:`MergeHandle` itself, to check ``out`` against it.
    """

    def write_labels(handle, out):
        if not (
            out.dtype == np.int64 and out.flags.c_contiguous and out.shape == (handle.n,)
        ):
            raise ValueError(f"labels must be a contiguous int64 array of {handle.n}")
        return labels(ctypes.addressof(handle), _address(out))

    return heapify, step, commit, write_labels


def _check_kd(query) -> bool:
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


def _check_refine(refine) -> bool:
    """The refinement kernel must equal the Python spec call for call.

    Tie-heavy fixture over 24 records: an ordered attribute with five
    bins, a three-way nominal one, both together, and a one-bin (m = 1)
    attribute beside the ordered one; each cluster starts at the records
    of the highest bins, so it takes several swaps to reach t, over pool
    chunks of seven at budgets of 1 and unlimited.  Every call's members,
    swap count, consumed count and status must match.
    """
    from ..core.confidential import CHUNK_EXHAUSTED, CONVERGED, UNLIMITED, SwapFrame
    from ..distance.emd import NominalEMDFrame, OrderedEMDFrame

    rng = np.random.default_rng(0)
    n, k = 24, 4
    ordered = OrderedEMDFrame(rng.integers(0, 5, n), 5)
    nominal = NominalEMDFrame(rng.integers(0, 3, n), 3)
    flat = OrderedEMDFrame(np.zeros(n, dtype=np.int64), 1)
    for frames in ([ordered], [nominal], [ordered, nominal], [flat, ordered]):
        frame = SwapFrame(frames, k, 0.05)
        order = np.argsort(-frames[-1].bins, kind="stable")
        for budget in (1, UNLIMITED):
            sides = [order[:k].copy(), order[:k].copy()]
            pool, used, end = order[k:], 0, 7
            while True:
                got = [
                    run(frame, members, pool[used:end], budget)
                    for run, members in zip((refine, SwapFrame.refine), sides)
                ]
                if got[0] != got[1] or not np.array_equal(*sides):
                    return False
                _, consumed, status = got[0]
                used += consumed
                if status == CHUNK_EXHAUSTED:
                    if end >= len(pool):
                        break
                    end += 7
                elif status == CONVERGED:
                    break
    return True


def _check_sq(scan) -> bool:
    """The distance scan must be bit-for-bit the numpy kernel.

    Half-integer grids (exact ties between distinct records), duplicated
    rows, one column and four, a square overflowing to inf, a window
    shorter than the buffer and a column stride longer than the window,
    as in the clustering engine's working copy.
    """
    from . import kernels

    rng = np.random.default_rng(0)
    for d in (1, 4):
        cols = np.round(rng.standard_normal((d, 300)) * 2.0) / 2.0
        cols[:, 200:240] = cols[:, 7:8]
        cols[0, 5] = 1e200
        for n in (300, 123, 1):
            point = cols[:, 7].copy()
            want, tmp = np.empty(300), np.empty(300)
            with np.errstate(over="ignore"):
                kernels.sq_distances_block(cols, point, want, tmp, 0, n)
            got = np.full(300, -1.0)
            if not scan(cols, point, got, n):
                return False
            if not (np.array_equal(got[:n], want[:n]) and (got[n:] == -1.0).all()):
                return False
    return True


def _check_k_nearest(select) -> bool:
    """The selection must equal the numpy spec, ties to the lower position.

    Distances in {0, 1, 2} (ties at every boundary) with dead positions,
    at k = 1, a middling k, k = live - 1, k = live and k > live, over a
    window shorter than the buffer.
    """
    from . import kernels

    rng = np.random.default_rng(0)
    for size in (40, 257):
        d2 = rng.integers(0, 3, size).astype(np.float64)
        alive = rng.random(size) < 0.8
        for m in (size, size - 9):
            live = int(alive[:m].sum())
            for k in (1, 5, live - 1, live, live + 3):
                if k < 1:
                    continue
                want = kernels._k_nearest_live_numpy(d2, alive, m, k)
                got = select(d2, alive, m, k)
                if got is None or not np.array_equal(got, want):
                    return False
    return True


def _runner_ok(d2: np.ndarray, out: np.ndarray, margin: float) -> bool:
    """Whether a farthest query's runner-up ``out[1]`` says right if the
    band within ``margin`` of the maximum holds a second record, and is
    that record's distance when it does."""
    top = out[0]
    least = top if top == np.inf else top - margin * (1.0 + abs(top))
    band = np.sort(d2[d2 >= least])
    if band.size < 2:
        return not out[1] >= least
    return out[1] == band[-2]


def _check_live(native: Native) -> bool:
    """The live index must make the scan engine's selections.

    64 records on a half-integer grid with a run of duplicated rows and a
    row of 1e200 (whose distances overflow to inf, so they tie), indexed
    at forced depths of 5 (leaves of two) and 2.  Clusters of eight are
    killed from the outside in, as MDAV carves them, emptying leaves and
    shrinking boxes; after every kill, from the first live record and
    from the 1e200 row (live, then dead), the k-nearest query (k = 1, 5
    and past the live count), the farthest query (with band margins of 0,
    1e-6 and 0.25, and its runner-up) and the band query must give the
    ids and distances of the spec: a stable sort, ``argmax`` and a
    threshold over the canonical distances of the live records.
    """
    from . import kernels

    rng = np.random.default_rng(0)
    X = np.round(rng.standard_normal((64, 2)) * 2.0) / 2.0
    X[40:48] = X[3]
    X[9] = 1e200
    scratch = np.empty(64)

    def distances(live, point):
        d2 = np.empty(live.size)
        with np.errstate(over="ignore"):
            kernels.sq_distances_block(X[live].T, point, d2, scratch, 0, live.size)
        return d2

    for depth in (5, 2):
        tree = kernels.build_live_tree(X, depth)
        handle = live_handle(tree)
        addr = ctypes.addressof(handle)
        alive = np.ones(64, dtype=bool)
        while alive.any():
            live = np.flatnonzero(alive)
            for point in (X[live[0]], X[9]):
                d2 = distances(live, point)
                order = np.argsort(d2, kind="stable")
                for k in (1, 5, live.size + 1):
                    m = min(k, live.size)
                    ids, dist = np.empty(m, dtype=np.int64), np.empty(m)
                    got = native.live_k_nearest(addr, point, k, ids, dist)
                    if got != m or not (
                        np.array_equal(ids, live[order[:m]])
                        and np.array_equal(dist, d2[order[:m]])
                    ):
                        return False
                top = np.empty(2)
                for margin in (0.0, 1e-6, 0.25):
                    got = native.live_farthest(addr, point, margin, top)
                    if got != live[np.argmax(d2)] or top[0] != d2.max():
                        return False
                    if margin and not _runner_ok(d2, top, margin):
                        return False
                for least in (d2.max(), d2[order[live.size // 2]]):
                    out = np.empty(live.size, dtype=np.int64)
                    got = native.live_at_or_above(addr, point, least, out, live.size)
                    if not np.array_equal(np.sort(out[:got]), live[d2 >= least]):
                        return False
            # The next cluster: the eight records nearest the one farthest
            # from the first live record.
            far = X[live[np.argmax(distances(live, X[live[0]]))]]
            carve = live[kernels.k_smallest_indices(distances(live, far), 8)]
            native.live_kill(addr, carve)
            alive[carve] = False
    return True


def _check_merge(native: Native) -> bool:
    """The merge step must make a brute-force merge loop's decisions.

    16 clusters of two over 32 records: an ordered attribute of five bins,
    duplicated within and across clusters, and a nominal one of three, so
    ratios tie exactly across clusters and, twice on this draw, across the
    attributes of one cluster; centroids on the integer grid {0, 1, 2}^2,
    so partner distances tie exactly (on 12 of the 25 merges).  At t = 0,
    at the first cluster's exact EMD (dyadic, since n, c and w_a are
    powers of two, so the float t is the ratio itself; the loop stops at a
    cluster exactly at t) and at t = 1, the steps' (worst, partner) pairs
    and the final ratios, centroid columns (bitwise) and labels must equal
    the loop's: the largest ratio by cross products, the lowest id on
    ties, the first attribute on ties within a cluster; a stop once it is
    at most t; the partner by a lexsort of (distance, id) over the other
    live clusters; size-weighted mean centroids; dense numerators.
    Replaying the pairs through the commit must end in the same state.
    """
    from ..core.confidential import kernel_view
    from ..distance.emd import NominalEMDFrame, OrderedEMDFrame
    from . import kernels

    rng = np.random.default_rng(12)
    n, G = 32, 16
    frames = [
        OrderedEMDFrame(rng.integers(0, 5, n), 5),
        NominalEMDFrame(rng.integers(0, 3, n), 3),
    ]
    counts = [np.bincount(f.bins, minlength=f.m) for f in frames]
    layout, tables = kernel_view(frames, [0, 0])
    grid = rng.integers(0, 3, (G, 2)).astype(np.float64)
    clusters = list(rng.permutation(n).reshape(G, 2))

    def ratio(members):
        c, best = len(members), (0, 1)
        for frame, dataset in zip(frames, counts):
            held = np.bincount(frame.bins[members], minlength=frame.m)
            if isinstance(frame, OrderedEMDFrame):
                held, dataset = np.cumsum(held), np.cumsum(dataset)
            s, d = int(np.abs(n * held - c * dataset).sum()), c * n * frame.weight
            if s * best[1] > best[0] * d:
                best = (s, d)
        return best

    initial = [ratio(m) for m in clusters]
    scratch = np.empty((2, G))
    for t in (0.0, initial[0][0] / initial[0][1], 1.0):
        t_num, t_den = t.as_integer_ratio()
        members, ratios, cents = list(clusters), list(initial), grid.copy()
        live, pairs = list(range(G)), []
        while len(live) > 1:
            w = live[0]
            for g in live[1:]:
                if ratios[g][0] * ratios[w][1] > ratios[w][0] * ratios[g][1]:
                    w = g
            if ratios[w][0] * t_den <= t_num * ratios[w][1]:
                break
            others = np.array([g for g in live if g != w])
            d2 = scratch[0, : others.size]
            kernels.sq_distances_block(cents[others].T, cents[w], d2, scratch[1], 0, others.size)
            p = int(others[np.lexsort((others, d2))[0]])
            sw, sp = len(members[w]), len(members[p])
            cents[w] = (sw * cents[w] + sp * cents[p]) / (sw + sp)
            members[w] = np.concatenate([members[w], members[p]])
            ratios[w] = ratio(members[w])
            live.remove(p)
            pairs.append((w, p))
        want = np.empty(n, dtype=np.int64)
        for rank, g in enumerate(live):
            want[members[g]] = rank
        for replay in (False, True):
            state = kernels.build_merge_state(
                np.full(G, 2), np.concatenate(clusters), initial, 2
            )
            handle = merge_handle(state, layout, tables, t_num, t_den)
            addr = ctypes.addressof(handle)
            native.merge_heapify(addr)
            got = []
            if replay:
                state.cols = np.ascontiguousarray(grid.T)
                bind_columns(handle, state.cols)
                for w, p in pairs:
                    if native.merge_commit(addr, w, p) != MERGED:
                        return False
                got = pairs
            else:
                while (status := native.merge_step(addr)) != MERGE_STOP:
                    if status == MERGE_NO_CENTROIDS and state.cols is None:
                        state.cols = np.ascontiguousarray(grid.T)
                        bind_columns(handle, state.cols)
                    elif status == MERGED:
                        got.append(tuple(state.pair.tolist()))
                    else:
                        return False
            labels = np.full(n, -1, dtype=np.int64)
            if not (
                got == pairs
                and native.merge_labels(handle, labels) == n
                and np.array_equal(labels, want)
                and np.flatnonzero(state.alive).tolist() == live
                and state.ratio[live].tolist() == [list(ratios[g]) for g in live]
                and (not pairs or np.array_equal(state.cols.T[live], cents[live]))
            ):
                return False
    return True


def _self_check(native: Native) -> bool:
    """Every entry point must equal its spec (kd query, refinement,
    distance scan, k-nearest selection, the live index's queries, the
    merge step)."""
    return (
        _check_kd(native.kd_nearest)
        and _check_refine(native.alg2_refine)
        and _check_sq(native.sq_distances)
        and _check_k_nearest(native.k_nearest)
        and _check_live(native)
        and _check_merge(native)
    )


def load() -> Native | None:
    """Return the compiled entry points, or ``None``.

    The single entry point that builds (or reuses) the shared library;
    the result (including failure, and a library the self-check
    rejects) is memoized for the process lifetime.  ``kd_nearest`` is
    ``query(rows, index, assignment, best_d2)`` (see :func:`_bind_kd`;
    ctypes ndpointer argtypes enforce every array's dtype and
    contiguity), ``alg2_refine`` is ``refine(frame, members, pool,
    budget)`` (see :func:`_bind_refine`), ``sq_distances`` and
    ``k_nearest`` are the engine's scans (:func:`_bind_sq`,
    :func:`_bind_k_nearest`), the four ``live_*`` fields are the live
    index's queries and kill over a :func:`live_handle` (see
    :func:`_bind_live`) and the four ``merge_*`` fields the merge step,
    its commit, its heap build and its labels over a
    :func:`merge_handle` (see :func:`_bind_merge`).
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
        kd = lib.repro_kd_nearest
        c_double_p = np.ctypeslib.ndpointer(
            dtype=np.float64, flags="C_CONTIGUOUS"
        )
        c_int64_p = np.ctypeslib.ndpointer(
            dtype=np.int64, flags="C_CONTIGUOUS"
        )
        c_int64 = ctypes.c_longlong
        kd.argtypes = [
            c_double_p,
            c_int64,
            c_int64,
            c_double_p,
            c_int64_p,
            c_int64,
            c_double_p,
            c_double_p,
            c_int64_p,
            c_int64,
            c_int64_p,
            c_double_p,
        ]
        kd.restype = None
        refine = lib.repro_alg2_refine
        # Raw addresses: ndpointer's per-call checks would dominate the
        # short refinement calls and the engine's per-round scans; the
        # bindings check their per-call arrays themselves.
        c_void_p = ctypes.c_void_p
        refine.argtypes = [
            c_void_p,
            c_void_p,
            c_int64,
            c_int64,
            c_void_p,
            c_int64,
            c_void_p,
            c_int64,
            c_int64,
            c_void_p,
        ]
        refine.restype = c_int64
        sq = lib.repro_sq_distances
        sq.argtypes = [c_void_p, c_int64, c_int64, c_void_p, c_void_p, c_int64]
        sq.restype = None
        k_nearest = lib.repro_k_nearest
        k_nearest.argtypes = [c_void_p, c_void_p, c_int64, c_int64, c_void_p]
        k_nearest.restype = c_int64
        live_knn = lib.repro_live_k_nearest
        live_knn.argtypes = [c_void_p, c_void_p, c_int64, c_void_p, c_void_p]
        live_knn.restype = c_int64
        live_far = lib.repro_live_farthest
        live_far.argtypes = [c_void_p, c_void_p, ctypes.c_double, c_void_p]
        live_far.restype = c_int64
        live_band = lib.repro_live_at_or_above
        live_band.argtypes = [c_void_p, c_void_p, ctypes.c_double, c_void_p, c_int64]
        live_band.restype = c_int64
        live_kill = lib.repro_live_kill
        live_kill.argtypes = [c_void_p, c_void_p, c_int64]
        live_kill.restype = None
        heapify = lib.repro_merge_heapify
        heapify.argtypes = [c_void_p]
        heapify.restype = None
        step = lib.repro_merge_step
        step.argtypes = [c_void_p]
        step.restype = c_int64
        commit = lib.repro_merge_commit
        commit.argtypes = [c_void_p, c_int64, c_int64]
        commit.restype = c_int64
        labels = lib.repro_merge_labels
        labels.argtypes = [c_void_p, c_void_p]
        labels.restype = c_int64
        native = Native(
            _bind_kd(kd),
            _bind_refine(refine),
            _bind_sq(sq),
            _bind_k_nearest(k_nearest),
            *_bind_live(live_knn, live_far, live_band, live_kill),
            *_bind_merge(heapify, step, commit, labels),
        )
        if not _self_check(native):
            return None
        _cached = native
    except Exception:
        _cached = None
    return _cached
