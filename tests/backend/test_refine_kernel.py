"""Compiled refinement kernel == the Python spec, call for call.

``SerialBackend.refine_swaps`` runs Algorithm 2's swap refinement of one
cluster in ``repro.backend._native`` when the library loads, else in
``SwapFrame.refine``.  Every decision is integer arithmetic, so the two
must agree exactly: the same members, swap counts, consumed counts and
statuses on every call, over random small tables (ordered attributes with
heavy duplicate bins, nominal ones, two attributes, one-bin ones), pool
chunks of any length and budgets of 1, 2, 7 and unlimited.  The suite
also pins the degrade path (a kernel that answers wrong is rejected at
load and fits run the spec) and resuming a fit killed mid-cluster on the
other path, bit for bit.
"""

import sys
import threading

import numpy as np
import pytest

from repro import Anonymizer, KAnonymity, TCloseness
from repro.backend import SerialBackend, _native
from repro.core.confidential import (
    BUDGET_SPENT,
    CHUNK_EXHAUSTED,
    CONVERGED,
    UNLIMITED,
    SwapFrame,
)
from repro.core.kanon_first import kanonymity_first
from repro.data import load_mcd
from repro.distance.emd import NominalEMDFrame, OrderedEMDFrame
from repro.runtime import CheckpointStore, faults
from repro.runtime.faults import InjectedFault

from ..contexts import CONTEXTS

native_only = pytest.mark.skipif(
    _native.load() is None, reason="no usable C toolchain on this host"
)

KINDS = [
    ("ordered",),
    ("nominal",),
    ("ordered", "nominal"),
    ("ordered", "ordered"),
    ("flat", "ordered"),
    ("flat", "nominal"),
    ("distinct", "nominal"),
]


def random_frame(rng, kinds):
    """A SwapFrame over a small random table with tie-heavy columns."""
    n = int(rng.integers(20, 80))
    frames = []
    for kind in kinds:
        if kind == "flat":
            frames.append(OrderedEMDFrame(np.zeros(n, dtype=np.int64), 1))
            continue
        if kind == "distinct":  # tie-free: one record per bin
            frames.append(OrderedEMDFrame(rng.permutation(n), n))
            continue
        m = int(rng.integers(2, 12))
        cls = OrderedEMDFrame if kind == "ordered" else NominalEMDFrame
        frames.append(cls(rng.integers(0, m, n), m))
    k = int(rng.integers(2, 13))
    return SwapFrame(frames, k, float(rng.choice([0.0, 0.01, 0.03, 0.1])))


def drive(refine, frame, members, pool, budget, chunks):
    """Call ``refine`` the way Algorithm 2 does; yield every call's result.

    The pool is offered in prefixes ending at ``chunks``' cumulative
    sums, and a call resumes where the previous one stopped.
    """
    used, ends = 0, np.cumsum(chunks)
    end = 0
    while True:
        result = refine(frame, members, pool[used : ends[end]], budget)
        yield result, members.copy()
        used += result[1]
        if result[2] == CONVERGED:
            return
        if result[2] == CHUNK_EXHAUSTED:
            if ends[end] >= len(pool):
                return
            end += 1


def assert_kernel_equals_spec(refine, rng, kinds, budget, skew=None):
    frame = random_frame(rng, kinds)
    order = rng.permutation(frame.n)
    if rng.random() < 0.5 if skew is None else skew:
        # Seed with the records of the highest first-attribute bins: a
        # skewed cluster that takes a long run of swaps to reach t.
        order = order[np.argsort(-frame.frames[0].bins[order], kind="stable")]
        order[frame.k :] = rng.permutation(order[frame.k :])
    pool = order[frame.k :]
    chunks = rng.integers(1, 9, size=len(pool) + 1)
    chunks[-1] = len(pool)
    runs = [
        list(drive(fn, frame, order[: frame.k].copy(), pool, budget, chunks))
        for fn in (refine, SwapFrame.refine)
    ]
    assert len(runs[0]) == len(runs[1])
    for (got, members), (want, spec_members) in zip(*runs):
        assert got == want
        np.testing.assert_array_equal(members, spec_members)
    return runs[1]


@native_only
@pytest.mark.parametrize("budget", [1, 2, 7, UNLIMITED])
@pytest.mark.parametrize("kinds", KINDS, ids="+".join)
def test_kernel_equals_spec(kinds, budget):
    rng = np.random.default_rng([len(kinds), budget % 1000, *map(len, kinds)])
    statuses, swaps = set(), 0
    for _ in range(25):
        runs = assert_kernel_equals_spec(
            _native.load().alg2_refine, rng, kinds, budget
        )
        statuses |= {status for (_, _, status), _ in runs}
        swaps += sum(n_swaps for (n_swaps, _, _), _ in runs)
    assert swaps > 0 and CHUNK_EXHAUSTED in statuses


@native_only
@pytest.mark.parametrize("budget", [1, 2, 7])
def test_every_budget_binds(budget):
    """The tables above do stop calls on each budget, kernel == spec."""
    rng = np.random.default_rng(budget)
    statuses = set()
    for _ in range(10):
        runs = assert_kernel_equals_spec(
            _native.load().alg2_refine, rng, ("distinct", "nominal"), budget, True
        )
        statuses |= {status for (_, _, status), _ in runs}
    assert BUDGET_SPENT in statuses


@native_only
@pytest.mark.parametrize("run", CONTEXTS)
def test_kernel_equals_spec_concurrently(run):
    """Two threads or two forked processes at once: no shared state."""

    def work():
        rng = np.random.default_rng(7)
        for kinds in KINDS:
            assert_kernel_equals_spec(_native.load().alg2_refine, rng, kinds, 2)
        return True

    assert all(run(work))


@native_only
def test_threads_share_one_frame():
    """More threads than cores refine their own clusters over one shared
    frame, with a short switch interval; each matches the spec."""
    rng = np.random.default_rng(9)
    frame = random_frame(rng, ("ordered", "nominal"))
    orders = [rng.permutation(frame.n) for _ in range(8)]
    expected = []
    for order in orders:
        members = order[: frame.k].copy()
        expected.append((frame.refine(members, order[frame.k :], 3), members))
    refine = _native.load().alg2_refine
    results = [None] * len(orders)
    start = threading.Barrier(len(orders))

    def work(i):
        start.wait(timeout=60)
        runs = []
        for _ in range(50):
            members = orders[i][: frame.k].copy()
            runs.append((refine(frame, members, orders[i][frame.k :], 3), members))
        results[i] = runs

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for (want, want_members), runs in zip(expected, results):
        assert runs is not None  # the thread finished without raising
        for got, members in runs:
            assert got == want
            np.testing.assert_array_equal(members, want_members)


def test_backend_runs_the_spec_without_the_library(monkeypatch):
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    monkeypatch.setattr(_native, "_cached", _native._UNSET)
    rng = np.random.default_rng(8)
    frame = random_frame(rng, ("ordered", "nominal"))
    members = np.arange(frame.k, dtype=np.int64)
    spec_members = members.copy()
    pool = np.arange(frame.k, frame.n, dtype=np.int64)
    got = SerialBackend().refine_swaps(frame, members, pool, UNLIMITED)
    assert got == frame.refine(spec_members, pool, UNLIMITED)
    np.testing.assert_array_equal(members, spec_members)


def corrupt(refine):
    """``refine`` that answers a wrong member order after any swap."""

    def broken(frame, members, pool, budget):
        result = refine(frame, members, pool, budget)
        if result[0]:
            members[[0, 1]] = members[[1, 0]]
        return result

    return broken


@native_only
def test_a_kernel_returning_a_wrong_member_is_rejected(monkeypatch):
    native = _native.load()
    assert _native._self_check(native)
    broken = native._replace(alg2_refine=corrupt(native.alg2_refine))
    assert not _native._self_check(broken)
    # Loaded with the broken binding, the library is rejected as a whole
    # and the fit runs the spec.
    bind = _native._bind_refine
    monkeypatch.setattr(_native, "_bind_refine", lambda fn: corrupt(bind(fn)))
    monkeypatch.setattr(_native, "_cached", _native._UNSET)
    assert _native.load() is None
    data = load_mcd(n=120)
    rejected = kanonymity_first(data, 3, 0.08, merge_fallback=False)
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    monkeypatch.setattr(_native, "_cached", _native._UNSET)
    spec = kanonymity_first(data, 3, 0.08, merge_fallback=False)
    assert rejected.info["n_swaps"] > 0
    np.testing.assert_array_equal(rejected.partition.labels, spec.partition.labels)
    assert rejected.info == spec.info


def use_path(monkeypatch, path):
    """Route refinement through the kernel or the spec from now on."""
    if path == "spec":
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    else:
        monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.setattr(_native, "_cached", _native._UNSET)
    assert (_native.load() is None) == (path == "spec")


@native_only
@pytest.mark.parametrize("killed,resumed", [("kernel", "spec"), ("spec", "kernel")])
def test_mid_cluster_kill_resumes_on_the_other_path(
    killed, resumed, monkeypatch, tmp_path
):
    data = load_mcd(n=200)
    policy = KAnonymity(4) & TCloseness(0.08)
    golden = Anonymizer(policy, method="kanon-first").fit(data)
    ck = tmp_path / "ck"
    use_path(monkeypatch, killed)
    faults.arm_from_spec("alg2.swap@40")
    try:
        with pytest.raises(InjectedFault):
            Anonymizer(policy, method="kanon-first").fit(
                data, checkpoint=ck, checkpoint_every_swaps=1
            )
    finally:
        faults.clear()
    saved = CheckpointStore.load(ck).load_progress("alg2")
    assert saved["cluster"]["meta"]["n_swaps"] > 0  # killed mid-cluster
    use_path(monkeypatch, resumed)
    again = Anonymizer.resume(ck)
    np.testing.assert_array_equal(
        again.result_.partition.labels, golden.result_.partition.labels
    )
    assert (
        again.result_.cluster_emds.tobytes() == golden.result_.cluster_emds.tobytes()
    )
    assert again.result_.info == golden.result_.info
    assert again.release_.equals(golden.release_)
