"""Stdlib HTTP/JSON front end over the model pool and dynamic batcher.

Endpoints (all JSON):

- ``POST /estimate`` -- ``{"circuit": name-or-path, "scenario": spec,
  "backend"?: name, "options"?: {...}}``.  The scenario spec uses the
  :func:`repro.core.inputs.input_model_from_spec` vocabulary.  The
  request joins its model's batching lane and returns that scenario's
  switching estimate.
- ``POST /estimate_many`` -- same, with ``"scenarios": [spec, ...]``;
  the scenarios are fanned into the batcher together and the response
  carries one result per scenario, in order.
- ``GET /metrics`` -- a schema-valid ``repro.obs`` report: the global
  registry snapshot (including the ``serve.latency.*`` per-endpoint
  histograms with p50/p90/p99) with pool/batcher stats in ``meta``.
- ``GET /healthz`` -- liveness plus uptime and resident-model count.

Determinism contract: every checked-out replica is
``reset_propagation()``-ed before it propagates, so each batch is a
*full* pass -- a pure function of the scenario potentials.  Responses
are therefore bitwise-identical to a cold ``facade.estimate`` no
matter how requests interleave, which batches they share, or what the
replica served before (the concurrency stress test pins this).  A
``ZeroBeliefError`` inside a shared batch triggers a per-scenario
retry so one degenerate scenario fails alone, not its batch-mates.

Scenario reuse rides on that purity without weakening it, in two
places keyed by the canonical digest of the *induced input CPDs* (the
only scenario-dependent propagation inputs): across requests, the
fingerprint-keyed result cache (``repro.core.rcache``) replays the
stored result of a previous full pass for an exact repeat (same pool
key, same digest); within a batch, ``query_many`` propagates each
distinct scenario once.  Either way a response carries exactly the
bytes a fresh propagation would have produced.  Admission computes
each scenario's digest once; building the induced CPDs it hashes is
also what rejects a malformed spec with a 400.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.circuits import suite
from repro.circuits.netlist import Circuit
from repro.core.backend.backends import EstimatorCompiledModel
from repro.core.backend.base import CompiledModel
from repro.core.backend.facade import resolve_cache
from repro.core.estimator import SwitchingEstimate
from repro.core.rcache import ResultCache, result_payload, scenario_digest
from repro.core.inputs import InputModel, input_model_from_spec
from repro.errors import ReproError, UnknownCircuitError
from repro.obs.metrics import enable_metrics, get_metrics
from repro.obs.report import build_report
from repro.serve.batcher import DynamicBatcher
from repro.serve.pool import ModelPool, PoolTimeout, PooledModel

__all__ = [
    "MAX_BODY_BYTES",
    "BodyTooLarge",
    "EstimationServer",
    "ServerConfig",
    "install_signal_handlers",
]

#: Largest request body the server reads; a longer ``Content-Length``
#: is answered with a 413 without reading the body.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: A result-cache key: ``(pool entry key, scenario digest)``.
Key = Tuple[str, str]


class BodyTooLarge(ReproError):
    """A request declared a body longer than :data:`MAX_BODY_BYTES`."""


@dataclass
class ServerConfig:
    """Everything ``repro serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 8337
    backend: str = "auto"
    options: Dict[str, Any] = field(default_factory=dict)
    cache: Any = True
    max_models: int = 8
    engines_per_model: int = 2
    max_batch: int = 16
    linger_ms: float = 2.0
    workers: int = 2
    request_timeout: float = 60.0
    #: LRU capacity of the fingerprint-keyed result cache (exact repeat
    #: scenarios replay stored marginals without propagating); 0 turns
    #: result caching off.
    result_cache_entries: int = 4096


class EstimationServer:
    """Owns the pool, the batcher, and the HTTP listener.

    ``start()`` binds the socket (``port=0`` picks a free one; the
    bound port is ``self.port``) and serves on a background thread;
    ``serve_forever()`` serves on the calling thread (the CLI path).
    ``close()`` drains and joins everything.
    """

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        enable_metrics(reset=False)
        self.pool = ModelPool(
            cache=resolve_cache(self.config.cache),
            max_models=self.config.max_models,
            engines_per_model=self.config.engines_per_model,
        )
        self.batcher = DynamicBatcher(
            self._run_batch,
            max_batch=self.config.max_batch,
            linger_seconds=self.config.linger_ms / 1000.0,
            workers=self.config.workers,
        )
        self.rcache: Optional[ResultCache] = (
            ResultCache(max_entries=self.config.result_cache_entries)
            if self.config.result_cache_entries > 0
            else None
        )
        self.started = time.time()
        self._circuits: Dict[str, Circuit] = {}
        self._circuits_lock = threading.Lock()
        #: batch rows answered by another row's propagation
        #: (``query_many``'s digest dedup)
        self.deduped = 0
        self._deduped_lock = threading.Lock()
        handler = _make_handler(self)
        server_cls = type(
            "ReproHTTPServer",
            (ThreadingHTTPServer,),
            # Default accept backlog is 5; a 16-client closed-loop burst
            # of fresh connections overflows it and the retransmit shows
            # up as a spurious ~1s p99.
            {"request_queue_size": 128, "daemon_threads": True},
        )
        self.httpd = server_cls((self.config.host, self.config.port), handler)
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "EstimationServer":
        self._serving = True
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._serving = True
        try:
            self.httpd.serve_forever(poll_interval=0.1)
        finally:
            self._serving = False

    def shutdown(self) -> None:
        self.httpd.shutdown()

    def close(self) -> None:
        # shutdown() blocks on the serve loop's exit handshake and
        # would hang forever if serve_forever never ran.
        if self._serving:
            self.httpd.shutdown()
            self._serving = False
        self.httpd.server_close()
        self.batcher.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "EstimationServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request handling (called from HTTP handler threads)
    # ------------------------------------------------------------------

    def _resolve_circuit(self, spec: str) -> Circuit:
        with self._circuits_lock:
            circuit = self._circuits.get(spec)
        if circuit is not None:
            return circuit
        if spec in suite.available_circuits():
            circuit = suite.load_circuit(spec)
        else:
            path = Path(spec)
            if path.suffix == ".bench" and path.is_file():
                from repro.circuits.bench import parse_bench_file

                circuit = parse_bench_file(path)
            else:
                raise UnknownCircuitError(
                    f"unknown circuit {spec!r}: not a suite name "
                    f"({', '.join(suite.available_circuits())}) and not a "
                    ".bench file on the server"
                )
        with self._circuits_lock:
            self._circuits[spec] = circuit
        return circuit

    def _scenario_key(self, circuit: Circuit, spec: Any) -> Tuple[InputModel, str]:
        """Admit one scenario spec: its input model and canonical digest
        (the scenario half of the result-cache key).

        The digest builds every induced input CPD, so bad values -- an
        out-of-range probability, a trace that misses an input -- fail
        admission with a 400 here instead of surfacing mid-propagation.
        """
        if not isinstance(spec, dict):
            raise ReproError(f"scenario must be a spec object, got {type(spec).__name__}")
        try:
            model = input_model_from_spec(spec)
            return model, scenario_digest(circuit, model)
        except ReproError:
            raise
        except (TypeError, ValueError, KeyError) as exc:
            raise ReproError(f"malformed scenario spec: {exc}") from None

    def _store(self, key: Key, result: SwitchingEstimate) -> Dict[str, Any]:
        """The stored form of a fresh result, kept in the result cache
        when it is on."""
        if self.rcache is None:
            return result_payload(result)
        return self.rcache.put(key, result)

    def _answer(
        self, entry: PooledModel, scenarios: List[InputModel], keys: List[Key], detail: str
    ) -> List[Any]:
        """One response -- or the scenario's own error -- per scenario.

        Hits render from the result cache; the misses are all submitted
        to the batcher before the first wait, so they can share a batch.
        """
        pending: List[Any] = []
        for scenario, key in zip(scenarios, keys):
            stored = None
            if self.rcache is not None:
                stored = self.rcache.get(key, need_arrays=(detail == "distributions"))
            if stored is not None:
                pending.append(self._response(entry, stored, detail, True))
            else:
                pending.append(self.batcher.submit(entry.key, (entry, scenario, key[1])))
        deadline = time.monotonic() + self.config.request_timeout
        hit = False if self.rcache is not None else None
        answers = []
        for key, item in zip(keys, pending):
            if isinstance(item, Future):
                item = item.result(timeout=max(0.0, deadline - time.monotonic()))
                if not isinstance(item, BaseException):
                    item = self._response(entry, self._store(key, item), detail, hit)
            answers.append(item)
        return answers

    def handle_estimate(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        answer = self._answer(*self._admit(payload, one=True))[0]
        if isinstance(answer, BaseException):
            raise answer
        return answer

    def handle_estimate_many(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        entry, scenarios, keys, detail = self._admit(payload, one=False)
        results = [
            {"error": {"type": type(answer).__name__, "message": str(answer)}}
            if isinstance(answer, BaseException)
            else answer
            for answer in self._answer(entry, scenarios, keys, detail)
        ]
        return {"circuit": entry.model.circuit.name, "results": results}

    _DETAILS = ("mean", "activities", "distributions")

    def _admit(
        self, payload: Dict[str, Any], one: bool
    ) -> Tuple[PooledModel, List[InputModel], List[Key], str]:
        if not isinstance(payload, dict):
            raise ReproError("request body must be a JSON object")
        spec = payload.get("circuit")
        if not isinstance(spec, str) or not spec:
            raise ReproError('request is missing a "circuit" name')
        circuit = self._resolve_circuit(spec)
        if one:
            raw = [payload.get("scenario", {"kind": "independent", "p_one": 0.5})]
        else:
            raw = payload.get("scenarios")
            if not isinstance(raw, list) or not raw:
                raise ReproError('request needs a non-empty "scenarios" list')
        admitted = [self._scenario_key(circuit, s) for s in raw]
        detail = payload.get("detail", "activities")
        if detail not in self._DETAILS:
            raise ReproError(
                f"unknown detail {detail!r} ({'|'.join(self._DETAILS)})"
            )
        backend = payload.get("backend", self.config.backend)
        options = dict(self.config.options)
        options.update(payload.get("options") or {})
        entry = self.pool.get(
            circuit,
            backend=backend,
            timeout=self.config.request_timeout,
            **options,
        )
        scenarios = [model for model, _ in admitted]
        keys = [(entry.key, digest) for _, digest in admitted]
        return entry, scenarios, keys, detail

    @staticmethod
    def _response(
        entry: PooledModel, stored: Dict[str, Any], detail: str, hit: Optional[bool]
    ) -> Dict[str, Any]:
        """Render one result from its stored form
        (:func:`~repro.core.rcache.result_payload`); ``hit`` is
        ``None`` when the result cache is off."""
        response = {
            "circuit": entry.model.circuit.name,
            "backend": entry.model.backend_name,
            "method": stored["method"],
            "mean_activity": stored["mean_activity"],
        }
        if hit is not None:
            response["result_cache_hit"] = hit
        if detail in ("activities", "distributions"):
            response["activities"] = dict(stored["activities"])
        if detail == "distributions":
            response["distributions"] = {
                line: [float(v) for v in dist]
                for line, dist in stored["distributions"].items()
            }
        return response

    # ------------------------------------------------------------------
    # Batch execution (called from batcher worker threads)
    # ------------------------------------------------------------------

    def _run_batch(
        self, key: str, items: List[Tuple[PooledModel, InputModel, str]]
    ) -> List[Any]:
        entry = items[0][0]
        models = [model for _, model, _ in items]
        replica = entry.engines.checkout(timeout=self.config.request_timeout)
        try:
            try:
                self._reset(replica)
                results = list(replica.query_many(models))
                if isinstance(replica, EstimatorCompiledModel):
                    # query_many propagated one row per distinct digest
                    shared = len(items) - len({digest for *_, digest in items})
                    with self._deduped_lock:
                        self.deduped += shared
                return results
            except Exception:
                if len(models) == 1:
                    raise
                # One bad scenario (zero-mass belief, out-of-range
                # probability -- the propagation path validates lazily)
                # must not fail the batch it happened to share; re-run
                # each scenario alone and hand the error only to its
                # own requester.  Full passes are scenario-independent,
                # so the survivors' results are unchanged.
                results: List[Any] = []
                for model in models:
                    self._reset(replica)
                    try:
                        results.extend(replica.query_many([model]))
                    except ReproError as exc:
                        results.append(exc)
                return results
        finally:
            entry.engines.checkin(replica)

    @staticmethod
    def _reset(replica: CompiledModel) -> None:
        reset = getattr(getattr(replica, "estimator", None), "reset_propagation", None)
        if reset is not None:
            reset()

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------

    def metrics_report(self) -> Dict[str, Any]:
        return build_report(
            meta={
                "kind": "repro-serve",
                "uptime_seconds": time.time() - self.started,
                "config": {
                    "backend": self.config.backend,
                    "max_batch": self.config.max_batch,
                    "linger_ms": self.config.linger_ms,
                    "workers": self.config.workers,
                    "max_models": self.config.max_models,
                    "engines_per_model": self.config.engines_per_model,
                    "result_cache_entries": self.config.result_cache_entries,
                },
                "pool": self.pool.stats(),
                "batcher": {
                    "items": self.batcher.stats.items,
                    "batches": self.batcher.stats.batches,
                    "full_batches": self.batcher.stats.full_batches,
                    "deduped": self.deduped,
                    "mean_batch_size": self.batcher.stats.mean_batch_size(),
                },
                "result_cache": (
                    self.rcache.stats() if self.rcache is not None else None
                ),
            }
        )

    def health(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started,
            "resident_models": self.pool.stats()["resident"],
        }


def _make_handler(server: EstimationServer):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"
        # One send() per response: a buffered writer plus TCP_NODELAY.
        # Unbuffered wfile emits headers and body as separate small
        # segments, and Nagle holds the second one for the peer's
        # delayed ACK -- a flat ~40ms stall per request on loopback.
        wbufsize = 64 * 1024
        disable_nagle_algorithm = True

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            pass  # request logging is the metrics registry's job

        # ---------------- helpers ----------------

        def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _body(self) -> Dict[str, Any]:
            header = self.headers.get("Content-Length") or "0"
            try:
                length = int(header)
            except ValueError:
                length = -1
            if length < 0:
                # The body's extent is unknown, so the connection cannot
                # be reused; reading with a negative length would block
                # until the client hangs up.
                self.close_connection = True
                raise ReproError(f"invalid Content-Length {header!r}")
            if length > MAX_BODY_BYTES:
                # Unread, the body would desynchronize the connection.
                self.close_connection = True
                raise BodyTooLarge(
                    f"Content-Length {length} exceeds {MAX_BODY_BYTES} bytes"
                )
            raw = self.rfile.read(length) if length else b"{}"
            try:
                return json.loads(raw.decode() or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ReproError(f"request body is not valid JSON: {exc}")

        def _dispatch(self, endpoint: str, fn) -> None:
            registry = get_metrics()
            start = time.perf_counter()
            try:
                payload = fn()
            except PoolTimeout as exc:
                self._error(endpoint, 503, exc)
            except BodyTooLarge as exc:
                self._error(endpoint, 413, exc)
            except ReproError as exc:
                self._error(endpoint, 400, exc)
            except TimeoutError as exc:
                self._error(endpoint, 503, exc)
            except Exception as exc:  # pragma: no cover - defensive
                self._error(endpoint, 500, exc)
            else:
                registry.counter(f"serve.requests.{endpoint}").inc(1)
                registry.histogram(f"serve.latency.{endpoint}").observe(
                    time.perf_counter() - start
                )
                self._send_json(200, payload)

        def _error(self, endpoint: str, status: int, exc: BaseException) -> None:
            get_metrics().counter(f"serve.errors.{endpoint}").inc(1)
            self._send_json(
                status,
                {"error": {"type": type(exc).__name__, "message": str(exc)}},
            )

        # ---------------- routes ----------------

        def do_GET(self) -> None:
            if self.path == "/metrics":
                self._dispatch("metrics", server.metrics_report)
            elif self.path == "/healthz":
                self._dispatch("healthz", server.health)
            else:
                self._send_json(
                    404, {"error": {"type": "NotFound", "message": self.path}}
                )

        def do_POST(self) -> None:
            if self.path == "/estimate":
                self._dispatch(
                    "estimate", lambda: server.handle_estimate(self._body())
                )
            elif self.path == "/estimate_many":
                self._dispatch(
                    "estimate_many",
                    lambda: server.handle_estimate_many(self._body()),
                )
            else:
                self._send_json(
                    404, {"error": {"type": "NotFound", "message": self.path}}
                )

    return Handler


def install_signal_handlers(server: EstimationServer) -> None:
    """SIGTERM/SIGINT -> stop accepting, drain, and return from
    ``serve_forever`` so the CLI can exit 0 (the CI smoke step sends
    SIGTERM and requires a clean shutdown)."""

    def _stop(signum, frame):
        # shutdown() blocks until serve_forever returns, which would
        # deadlock inside a handler running on the serving thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
