"""Live-server integration tests: one in-process server per class.

Responses travel the full path (HTTP parse -> pool -> batcher ->
engine replica -> JSON), so the bitwise comparisons below also pin
that JSON float round-tripping is exact (``json`` emits ``repr``
floats, which round-trip float64 exactly).
"""

import socket
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import urlsplit

import numpy as np
import pytest

from repro import estimate
from repro.circuits import suite
from repro.core.inputs import input_model_from_spec
from repro.obs import validate_report
from repro.serve import EstimationServer, ServeClient, ServerConfig, run_load
from repro.serve.client import ServeRequestError, scenario_spec


@pytest.fixture(scope="module")
def server():
    config = ServerConfig(
        port=0, cache=None, max_batch=8, linger_ms=1.0, workers=2
    )
    with EstimationServer(config) as live:
        yield live


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.address, timeout=30.0)


class TestEstimate:
    def test_matches_local_estimate_bitwise(self, client):
        spec = {"kind": "independent", "p_one": 0.37}
        response = client.estimate("c17", spec, detail="distributions")
        expect = estimate(
            suite.load_circuit("c17"), input_model_from_spec(spec),
            backend="auto", cache=None,
        )
        assert response["circuit"] == "c17"
        assert response["method"] == expect.method
        assert response["mean_activity"] == float(expect.mean_activity())
        for line, activity in expect.activities.items():
            assert response["activities"][line] == float(activity)
        for line, dist in expect.distributions.items():
            assert np.array_equal(
                np.asarray(response["distributions"][line]), dist
            )

    def test_default_scenario_and_detail(self, client):
        response = client.estimate("c17")
        assert "activities" in response
        assert "distributions" not in response
        expect = estimate(
            suite.load_circuit("c17"), input_model_from_spec(
                {"kind": "independent", "p_one": 0.5}
            ),
            backend="auto", cache=None,
        )
        assert response["mean_activity"] == float(expect.mean_activity())

    def test_detail_mean_omits_activities(self, client):
        response = client.estimate("c17", detail="mean")
        assert "activities" not in response
        assert "mean_activity" in response

    def test_estimate_many_round_trip(self, client):
        specs = [scenario_spec(i) for i in range(5)]
        response = client.estimate_many("c17", specs)
        assert response["circuit"] == "c17"
        assert len(response["results"]) == 5
        for spec, result in zip(specs, response["results"]):
            expect = estimate(
                suite.load_circuit("c17"), input_model_from_spec(spec),
                backend="auto", cache=None,
            )
            assert result["mean_activity"] == float(expect.mean_activity())

    def test_explicit_backend_is_honored(self, client):
        response = client.estimate("c17", backend="enumeration")
        assert response["backend"] == "enumeration"
        assert response["method"] == "enumeration"


class TestErrors:
    def test_unknown_circuit_is_400(self, client):
        with pytest.raises(ServeRequestError) as excinfo:
            client.estimate("no-such-circuit")
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "UnknownCircuitError"

    def test_malformed_scenario_is_400(self, client):
        with pytest.raises(ServeRequestError) as excinfo:
            client.estimate("c17", {"kind": "independent", "p_one": "high"})
        assert excinfo.value.status == 400

    def test_out_of_range_probability_is_400(self, client):
        with pytest.raises(ServeRequestError) as excinfo:
            client.estimate("c17", {"kind": "independent", "p_one": 1.5})
        assert excinfo.value.status == 400

    def test_unknown_detail_is_400(self, client):
        with pytest.raises(ServeRequestError) as excinfo:
            client.estimate("c17", detail="everything")
        assert excinfo.value.status == 400

    def test_empty_scenarios_is_400(self, client):
        with pytest.raises(ServeRequestError) as excinfo:
            client.estimate_many("c17", [])
        assert excinfo.value.status == 400

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeRequestError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_invalid_json_body_is_400(self, client):
        connection = client._connection()
        connection.request(
            "POST", "/estimate", body="{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        response.read()
        assert response.status == 400


class TestContentLength:
    """A bad ``Content-Length`` is a typed 400, never a 500 or a hang."""

    @staticmethod
    def _post_raw(server, length: str, body: bytes = b"") -> bytes:
        url = urlsplit(server.address)
        with socket.create_connection((url.hostname, url.port), timeout=10) as sock:
            sock.sendall(
                b"POST /estimate HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {length}\r\n\r\n".encode()
                + body
            )
            # The server closes the connection after the error, so
            # reading to EOF returns the whole response; a server that
            # waited for a body would trip the socket timeout instead.
            # Closing with the short body unread may reset the
            # connection once the response is through.
            chunks = []
            while True:
                try:
                    chunk = sock.recv(65536)
                except ConnectionResetError:
                    chunk = b""
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400(self, server, length):
        response = self._post_raw(server, length)
        status_line, _, rest = response.partition(b"\r\n")
        assert status_line.split()[1] == b"400"
        assert b"ReproError" in rest and b"Content-Length" in rest

    def test_oversized_content_length_is_413(self, server):
        response = self._post_raw(server, "2147483648", body=b"{}")
        status_line, _, rest = response.partition(b"\r\n")
        assert status_line.split()[1] == b"413"
        assert b"BodyTooLarge" in rest


class TestScenarioReuse:
    """The result cache across requests, ``query_many`` dedup within a
    batch: both return exactly the bytes a fresh propagation would."""

    @staticmethod
    def _assert_bitwise(response, spec, **options):
        expect = estimate(
            suite.load_circuit("c17"), input_model_from_spec(spec),
            backend="auto", cache=None, **options,
        )
        assert response["mean_activity"] == float(expect.mean_activity())
        for line, activity in expect.activities.items():
            assert response["activities"][line] == float(activity)
        for line, dist in expect.distributions.items():
            assert np.array_equal(np.asarray(response["distributions"][line]), dist)

    def test_estimate_many_partial_hits(self, client):
        stored = {"kind": "independent", "p_one": 0.21}
        fresh = {"kind": "temporal", "p_one": 0.4, "activity": 0.33}
        assert client.estimate("c17", stored)["result_cache_hit"] is False
        response = client._request("POST", "/estimate_many", {
            "circuit": "c17", "scenarios": [stored, fresh],
            "detail": "distributions",
        })
        results = response["results"]
        assert [r["result_cache_hit"] for r in results] == [True, False]
        for result, spec in zip(results, [stored, fresh]):
            self._assert_bitwise(result, spec)

    def test_options_change_the_key(self, server, client):
        spec = {"kind": "independent", "p_one": 0.23}
        before = server.rcache.stats()["entries"]
        dense = client.estimate("c17", spec, options={"kernel": "dense"},
                                detail="distributions")
        sparse = client.estimate("c17", spec, options={"kernel": "sparse"},
                                 detail="distributions")
        assert dense["result_cache_hit"] is False
        assert sparse["result_cache_hit"] is False
        assert server.rcache.stats()["entries"] == before + 2
        self._assert_bitwise(dense, spec, kernel="dense")
        self._assert_bitwise(sparse, spec, kernel="sparse")

    def test_concurrent_identical_misses_share_one_propagation(self):
        n = 4
        spec = {"kind": "independent", "p_one": 0.29}
        config = ServerConfig(port=0, cache=None, max_batch=n,
                              linger_ms=10_000.0, workers=1)
        with EstimationServer(config) as live:
            live_client = ServeClient(live.address, timeout=30.0)
            # Compile outside the measured batch; n distinct scenarios
            # fill a batch, so the warm-up never waits out the linger.
            live_client.estimate_many("c17", [scenario_spec(i) for i in range(n)])
            before = live_client.metrics()["meta"]["batcher"]
            with ThreadPoolExecutor(max_workers=n) as executor:
                responses = list(executor.map(
                    lambda _: live_client.estimate("c17", spec, detail="distributions"),
                    range(n),
                ))
            after = live_client.metrics()["meta"]["batcher"]
        assert after["batches"] - before["batches"] == 1
        assert after["full_batches"] - before["full_batches"] == 1
        assert after["items"] - before["items"] == n
        assert after["deduped"] - before["deduped"] == n - 1
        assert all(r == responses[0] for r in responses)
        self._assert_bitwise(responses[0], spec)

    @pytest.mark.parametrize("spec", [
        {"kind": "independent", "p_one": 1.5},
        {"kind": "temporal", "p_one": 0.5, "activity": 2.0},
        {"kind": "trace", "trace": [[0, 1], [1, 1]], "input_names": ["a", "b"]},
        {"kind": "correlated", "groups": [["1", "2"]], "rho": 0.5,
         "base_p_one": -0.2},
        {"kind": "no-such-kind"},
    ], ids=["independent", "temporal", "trace", "correlated", "unknown"])
    def test_malformed_spec_is_400_before_compile(self, server, client, spec):
        resident = server.pool.stats()["resident"]
        with pytest.raises(ServeRequestError) as excinfo:
            client.estimate("pcler8", spec)
        assert excinfo.value.status == 400
        assert server.pool.stats()["resident"] == resident


class TestMetrics:
    def test_metrics_report_is_valid_obs_document(self, client):
        client.estimate("c17")
        report = client.metrics()
        validate_report(report)  # raises on schema violations
        meta = report["meta"]
        assert meta["kind"] == "repro-serve"
        assert meta["pool"]["resident"] >= 1
        assert meta["batcher"]["items"] >= 1
        metrics = report["metrics"]
        assert "serve.requests.estimate" in metrics["counters"]
        assert "serve.latency.estimate" in metrics["histograms"]

    def test_health_endpoint(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0


class TestLoadGenerator:
    def test_closed_loop_report(self, server):
        report = run_load(
            server.address, "c17", mode="closed", concurrency=4, requests=16
        )
        assert report.errors == 0
        assert report.requests == 16
        assert report.scenarios_per_sec > 0
        assert report.p50_latency_seconds <= report.p99_latency_seconds
        row = report.to_row()
        assert row["mode"] == "closed" and "rate" not in row

    def test_open_loop_counts_queueing_delay(self, server):
        report = run_load(
            server.address, "c17", mode="open", concurrency=2,
            requests=10, rate=200.0,
        )
        assert report.errors == 0
        assert report.to_row()["rate"] == 200.0

    def test_scenario_stream_is_deterministic(self):
        assert scenario_spec(3) == scenario_spec(3)
        assert scenario_spec(3) != scenario_spec(4)
        p = scenario_spec(12345)["p_one"]
        assert 0.05 <= p <= 0.95
