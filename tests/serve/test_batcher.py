"""Dynamic batcher coalescing, ordering, and failure semantics."""

import threading
import time

import pytest

from repro.serve.batcher import DynamicBatcher


def _echo_batcher(calls, **kwargs):
    lock = threading.Lock()

    def run_batch(key, items):
        with lock:
            calls.append((key, list(items)))
        return [(key, item) for item in items]

    return DynamicBatcher(run_batch, **kwargs)


class TestCoalescing:
    def test_single_item_round_trip(self):
        calls = []
        batcher = _echo_batcher(calls, max_batch=4, linger_seconds=0.0)
        try:
            assert batcher.submit("k", 1).result(timeout=5.0) == ("k", 1)
        finally:
            batcher.close()
        assert calls == [("k", [1])]

    def test_queued_burst_coalesces(self):
        """Items submitted while the worker is busy merge into one batch."""
        release = threading.Event()
        calls = []

        def run_batch(key, items):
            if items == ["plug"]:
                release.wait(timeout=10.0)
            calls.append((key, list(items)))
            return list(items)

        batcher = DynamicBatcher(
            run_batch, max_batch=8, linger_seconds=0.0, workers=1
        )
        try:
            plug = batcher.submit("k", "plug")  # occupies the lone worker
            time.sleep(0.05)
            futures = [batcher.submit("k", i) for i in range(5)]
            release.set()
            assert [f.result(timeout=5.0) for f in futures] == list(range(5))
            plug.result(timeout=5.0)
        finally:
            batcher.close()
        sizes = [len(items) for _, items in calls if items != ["plug"]]
        assert sizes == [5]  # one coalesced batch, not five singletons

    def test_max_batch_caps_drain(self):
        release = threading.Event()
        calls = []

        def run_batch(key, items):
            if items == ["plug"]:
                release.wait(timeout=10.0)
            calls.append(list(items))
            return list(items)

        batcher = DynamicBatcher(
            run_batch, max_batch=3, linger_seconds=0.0, workers=1
        )
        try:
            batcher.submit("k", "plug")
            time.sleep(0.05)
            futures = [batcher.submit("k", i) for i in range(7)]
            release.set()
            for future in futures:
                future.result(timeout=5.0)
        finally:
            batcher.close()
        sizes = [len(items) for items in calls if items != ["plug"]]
        assert all(size <= 3 for size in sizes)
        assert sum(sizes) == 7

    def test_lanes_do_not_mix(self):
        calls = []
        batcher = _echo_batcher(calls, max_batch=8, linger_seconds=0.05)
        try:
            fa = [batcher.submit("a", i) for i in range(3)]
            fb = [batcher.submit("b", i) for i in range(3)]
            for f in fa:
                assert f.result(timeout=5.0)[0] == "a"
            for f in fb:
                assert f.result(timeout=5.0)[0] == "b"
        finally:
            batcher.close()
        for key, items in calls:
            assert len(items) <= 3

    def test_results_keep_submission_order(self):
        calls = []
        batcher = _echo_batcher(calls, max_batch=16, linger_seconds=0.02)
        try:
            futures = [batcher.submit("k", i) for i in range(10)]
            assert [f.result(timeout=5.0)[1] for f in futures] == list(range(10))
        finally:
            batcher.close()

    def test_stats_accumulate(self):
        calls = []
        batcher = _echo_batcher(calls, max_batch=4, linger_seconds=0.0)
        try:
            for i in range(3):
                batcher.submit("k", i).result(timeout=5.0)
        finally:
            batcher.close()
        assert batcher.stats.items == 3
        assert batcher.stats.batches >= 1
        assert batcher.stats.mean_batch_size() > 0


class TestSingleFlightDedup:
    def test_parked_duplicates_share_one_slot(self):
        """Identical parked scenarios ride one batch and each get a result.

        The batcher itself keeps one future per item; duplicate
        suppression belongs to ``run_batch`` (the server's
        ``query_many`` propagates one row per distinct digest).  The
        batcher's part is to hand every parked duplicate to that one
        ``run_batch`` call, so the scenario is computed once.
        """
        started = threading.Event()
        release = threading.Event()
        calls = []
        computed = []

        def run_batch(key, items):
            if items == ["plug"]:
                started.set()
                release.wait(timeout=10.0)
                return list(items)
            calls.append(list(items))
            results = {}
            for item in items:
                if item not in results:
                    computed.append(item)
                    results[item] = item.upper()
            return [results[item] for item in items]

        batcher = DynamicBatcher(
            run_batch, max_batch=8, linger_seconds=0.0, workers=1
        )
        try:
            plug = batcher.submit("k", "plug")  # occupies the lone worker
            assert started.wait(timeout=5.0)
            futures = [batcher.submit("k", "same") for _ in range(4)]
            other = batcher.submit("k", "other")
            release.set()
            assert [f.result(timeout=5.0) for f in futures] == ["SAME"] * 4
            assert other.result(timeout=5.0) == "OTHER"
            plug.result(timeout=5.0)
        finally:
            batcher.close()
        # All five parked items reached a single run_batch call, which
        # computed each distinct scenario once.
        assert calls == [["same"] * 4 + ["other"]]
        assert computed == ["same", "other"]
        assert batcher.stats.items == 6  # plug + 5 parked items
        assert batcher.stats.batches == 2


class TestFailureSemantics:
    def test_exception_fails_every_future_in_batch(self):
        class Boom(RuntimeError):
            pass

        def run_batch(key, items):
            raise Boom("bad batch")

        batcher = DynamicBatcher(run_batch, max_batch=4, linger_seconds=0.05)
        try:
            futures = [batcher.submit("k", i) for i in range(3)]
            for future in futures:
                with pytest.raises(Boom):
                    future.result(timeout=5.0)
        finally:
            batcher.close()

    def test_result_count_mismatch_is_an_error(self):
        def run_batch(key, items):
            return items[:-1]  # one short

        batcher = DynamicBatcher(run_batch, max_batch=4, linger_seconds=0.0)
        try:
            with pytest.raises(RuntimeError, match="results"):
                batcher.submit("k", 1).result(timeout=5.0)
        finally:
            batcher.close()

    def test_submit_after_close_raises(self):
        batcher = _echo_batcher([], max_batch=2, linger_seconds=0.0)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit("k", 1)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            DynamicBatcher(lambda k, i: i, max_batch=0)
        with pytest.raises(ValueError):
            DynamicBatcher(lambda k, i: i, workers=0)
