"""Coalescing batcher + transform cache: bit-for-bit equal to direct.

The serving acceptance criterion, pinned directly: responses assembled
through request coalescing (arbitrary batching boundaries, size- and
deadline-triggered flushes) and through cache hits/misses are bitwise
identical to a direct ``assign_encoded`` on the same rows — from the
calling thread, from two threads at once and in two forked processes
(``tests.contexts``).  Plus the LRU cache's own unit contract: bounded
size, recency eviction, transparent when disabled.
"""

import asyncio

import numpy as np
import pytest

from repro.serving import CoalescingBatcher, ServingMetrics, TransformCache

from ..contexts import CONTEXTS


def gather(*coros):
    """Run coroutines concurrently on a fresh event loop."""

    async def go():
        return await asyncio.gather(*coros)

    return asyncio.run(go())


def uneven_chunks(encoded):
    """Split rows into deliberately ragged request-sized chunks."""
    sizes = [1, 7, 30, 64, 100]
    chunks, start = [], 0
    for size in sizes:
        chunks.append(encoded[start : start + size])
        start += size
    chunks.append(encoded[start:])
    return [c for c in chunks if len(c)]


@pytest.mark.parametrize("run", CONTEXTS)
class TestDifferentialAcrossBackends:
    """Each worker of an execution context (``tests.contexts``) serves the
    rows through its own batcher over the one shared model; every worker's
    responses must equal the direct assignment bitwise."""

    def test_coalesced_equals_direct(self, fitted, batch, run):
        model = fitted.transform_model_
        encoded = model.encode_batch(batch)
        direct = model.assign_encoded(encoded)
        chunks = uneven_chunks(encoded)
        offsets = np.cumsum([0] + [len(c) for c in chunks])

        def serve():
            metrics = ServingMetrics()
            batcher = CoalescingBatcher(
                model,
                max_batch_rows=64,  # several size-triggered flushes mid-run
                max_wait_ms=5.0,
                cache=TransformCache(max_size=4096),
                metrics=metrics,
            )
            # Cold pass: all misses, mixed flush triggers.
            cold = gather(*[batcher.assign(c) for c in chunks])
            # Hot pass: repeats now resolve from the cache — same bits.
            hot = gather(*[batcher.assign(c) for c in chunks])
            return cold, hot, metrics.snapshot()

        for cold, hot, snap in run(serve):
            for responses in (cold, hot):
                for lo, hi, result in zip(offsets, offsets[1:], responses):
                    np.testing.assert_array_equal(result, direct[lo:hi])
            assert snap["batches"]["max_requests_coalesced"] > 1
            assert snap["cache"]["hits"] > 0

    def test_cache_only_pass_equals_direct(self, fitted, batch, run):
        model = fitted.transform_model_
        encoded = model.encode_batch(batch)
        direct = model.assign_encoded(encoded)

        def serve():
            cache = TransformCache(max_size=len(encoded) + 1)
            batcher = CoalescingBatcher(model, max_wait_ms=1.0, cache=cache)
            first = gather(batcher.assign(encoded))[0]
            hits_before = cache.hits
            second = gather(batcher.assign(encoded))[0]
            return first, second, cache.hits - hits_before

        for first, second, new_hits in run(serve):
            np.testing.assert_array_equal(first, direct)
            np.testing.assert_array_equal(second, direct)
            assert new_hits == len(encoded)


class TestBatcherMechanics:
    def test_single_request_deadline_flush(self, fitted, batch):
        model = fitted.transform_model_
        encoded = model.encode_batch(batch)[:5]
        batcher = CoalescingBatcher(model, max_batch_rows=10_000, max_wait_ms=1.0)
        np.testing.assert_array_equal(
            gather(batcher.assign(encoded))[0], model.assign_encoded(encoded)
        )

    def test_size_threshold_flushes_without_deadline(self, fitted, batch):
        model = fitted.transform_model_
        encoded = model.encode_batch(batch)
        metrics = ServingMetrics()
        # A deadline far beyond the test's patience: only the size
        # trigger can flush, so completion proves it fired.
        batcher = CoalescingBatcher(
            model, max_batch_rows=8, max_wait_ms=60_000.0, metrics=metrics
        )
        chunks = [encoded[i : i + 4] for i in range(0, 16, 4)]

        results = gather(*[batcher.assign(c) for c in chunks])
        direct = model.assign_encoded(encoded[:16])
        np.testing.assert_array_equal(np.concatenate(results), direct)
        assert metrics.snapshot()["batches"]["count"] >= 1

    def test_mixed_hit_miss_request(self, fitted, batch):
        model = fitted.transform_model_
        encoded = model.encode_batch(batch)
        cache = TransformCache(max_size=4096)
        batcher = CoalescingBatcher(model, max_wait_ms=1.0, cache=cache)
        gather(batcher.assign(encoded[:40]))  # warm the first 40 rows
        # Overlapping request: rows 20..60 are half hits, half misses.
        result = gather(batcher.assign(encoded[20:60]))[0]
        np.testing.assert_array_equal(
            result, model.assign_encoded(encoded[20:60])
        )
        assert cache.hits >= 1

    def test_backend_error_propagates(self, fitted, batch):
        model = fitted.transform_model_
        encoded = model.encode_batch(batch)[:4]
        batcher = CoalescingBatcher(model, max_wait_ms=1.0)
        boom = RuntimeError("injected")

        def failing(encoded_rows, *, backend=None):
            raise boom

        batcher.model = type(
            "FailingModel", (), {"assign_encoded": staticmethod(failing)}
        )()
        with pytest.raises(RuntimeError, match="injected"):
            gather(batcher.assign(encoded))

    def test_invalid_policy_rejected(self, fitted):
        model = fitted.transform_model_
        with pytest.raises(ValueError, match="max_batch_rows"):
            CoalescingBatcher(model, max_batch_rows=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            CoalescingBatcher(model, max_wait_ms=-1.0)


class TestTransformCacheUnit:
    def rows(self, n, start=0):
        return np.arange(start, start + 2 * n, dtype=np.float64).reshape(n, 2)

    def test_store_then_lookup(self):
        cache = TransformCache(max_size=8)
        rows = self.rows(3)
        cache.store_rows(rows, np.array([5, 6, 7]))
        assignment, missing = cache.lookup_rows(rows)
        np.testing.assert_array_equal(assignment, [5, 6, 7])
        assert missing.size == 0
        assert cache.hits == 3 and cache.misses == 0

    def test_lru_eviction_order(self):
        cache = TransformCache(max_size=2)
        rows = self.rows(3)
        cache.store_rows(rows[:2], np.array([0, 1]))
        cache.lookup_rows(rows[:1])  # refresh row 0: row 1 is now LRU
        cache.store_rows(rows[2:], np.array([2]))
        assignment, missing = cache.lookup_rows(rows)
        np.testing.assert_array_equal(assignment, [0, -1, 2])
        np.testing.assert_array_equal(missing, [1])

    def test_partial_store_via_indices(self):
        cache = TransformCache(max_size=8)
        rows = self.rows(4)
        cache.store_rows(rows, np.array([9, 9, 3, 9]), indices=np.array([2]))
        assignment, missing = cache.lookup_rows(rows)
        np.testing.assert_array_equal(assignment, [-1, -1, 3, -1])
        assert len(cache) == 1

    def test_disabled_cache_is_transparent(self):
        cache = TransformCache(max_size=0)
        rows = self.rows(3)
        cache.store_rows(rows, np.array([1, 2, 3]))
        assignment, missing = cache.lookup_rows(rows)
        assert not cache.enabled
        np.testing.assert_array_equal(assignment, [-1, -1, -1])
        np.testing.assert_array_equal(missing, [0, 1, 2])
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_clear_keeps_counters(self):
        cache = TransformCache(max_size=8)
        rows = self.rows(2)
        cache.store_rows(rows, np.array([1, 2]))
        cache.lookup_rows(rows)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 2


class TestOverloadAdmission:
    def test_empty_queue_always_admits(self, fitted, batch):
        """A lone request bigger than the bound still runs (no deadlock)."""
        model = fitted.transform_model_
        encoded = model.encode_batch(batch)
        batcher = CoalescingBatcher(
            model, max_wait_ms=1.0, max_queue_rows=10
        )
        direct = model.assign_encoded(encoded)
        (result,) = gather(batcher.assign(encoded))
        np.testing.assert_array_equal(result, direct)

    def test_overflow_raises_typed_error(self, fitted, batch):
        from repro.serving import OverloadedError

        model = fitted.transform_model_
        encoded = model.encode_batch(batch)
        metrics = ServingMetrics()
        # A huge deadline so the first request is still pending when the
        # second arrives; the bound leaves no room for the second.
        batcher = CoalescingBatcher(
            model,
            max_batch_rows=100_000,
            max_wait_ms=50.0,
            max_queue_rows=len(encoded) + 1,
            metrics=metrics,
        )

        async def go():
            first = asyncio.ensure_future(batcher.assign(encoded))
            await asyncio.sleep(0)  # first request queues
            with pytest.raises(OverloadedError) as err:
                await batcher.assign(encoded)
            await batcher.flush()
            await first
            return err.value

        err = asyncio.run(go())
        assert err.pending_rows == len(encoded)
        assert err.rejected_rows == len(encoded)
        assert err.retry_after_s >= 0.05
        snap = metrics.snapshot()
        assert snap["queue"]["rejected_requests"] == 1
        assert snap["queue"]["rejected_rows"] == len(encoded)
        # The admitted backlog never exceeded the configured bound.
        assert snap["queue"]["depth_max"] <= len(encoded) + 1

    def test_rejected_request_succeeds_on_retry(self, fitted, batch):
        from repro.serving import OverloadedError

        model = fitted.transform_model_
        encoded = model.encode_batch(batch)
        direct = model.assign_encoded(encoded)
        batcher = CoalescingBatcher(
            model,
            max_batch_rows=100_000,
            max_wait_ms=20.0,
            max_queue_rows=len(encoded) + 1,
        )

        async def go():
            first = asyncio.ensure_future(batcher.assign(encoded))
            await asyncio.sleep(0)
            try:
                await batcher.assign(encoded)
                raise AssertionError("expected OverloadedError")
            except OverloadedError as exc:
                await asyncio.sleep(min(exc.retry_after_s, 0.1))
            # Backlog flushed by the deadline; the retry is admitted and
            # returns exactly the direct answer.
            retried = await batcher.assign(encoded)
            return await first, retried

        first, retried = asyncio.run(go())
        np.testing.assert_array_equal(first, direct)
        np.testing.assert_array_equal(retried, direct)

    def test_unbounded_by_default(self, fitted, batch):
        model = fitted.transform_model_
        encoded = model.encode_batch(batch)
        batcher = CoalescingBatcher(
            model, max_batch_rows=100_000, max_wait_ms=5.0
        )
        results = gather(
            *[batcher.assign(chunk) for chunk in uneven_chunks(encoded)]
        )
        direct = model.assign_encoded(encoded)
        stitched = np.concatenate(results)
        np.testing.assert_array_equal(stitched, direct)

    def test_negative_bound_rejected(self, fitted):
        model = fitted.transform_model_
        with pytest.raises(ValueError, match="max_queue_rows"):
            CoalescingBatcher(model, max_queue_rows=-1)


class TestCacheHottest:
    def rows(self, n, start=0):
        return np.arange(start, start + 2 * n, dtype=np.float64).reshape(n, 2)

    def test_hottest_returns_mru_first(self):
        cache = TransformCache(max_size=8)
        rows = self.rows(4)
        cache.store_rows(rows, np.arange(4))
        cache.lookup_rows(rows[:1])  # refresh row 0 to most-recent
        hottest = cache.hottest(2)
        assert hottest == [rows[0].tobytes(), rows[3].tobytes()]

    def test_hottest_caps_at_cache_size(self):
        cache = TransformCache(max_size=8)
        rows = self.rows(3)
        cache.store_rows(rows, np.arange(3))
        assert len(cache.hottest(100)) == 3
        assert cache.hottest(0) == []
