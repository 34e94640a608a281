"""The ``repro serve`` daemon: asyncio HTTP front of the scheduler.

Stdlib only — a hand-rolled HTTP/1.1 loop over ``asyncio`` streams is
all the protocol needs (JSON bodies, ``Connection: close``).  The
daemon itself never executes campaigns: it parses requests, hands them
to the :class:`~repro.sched.scheduler.Scheduler` (whose dispatcher
thread drives :func:`~repro.sched.executor.run_store_campaign`, the
exact path ``repro inject`` uses), and serializes job state back.
Blocking calls — module materialization in ``submit``, ``job.wait``,
model analysis — run in the default thread-pool executor so the event
loop keeps answering health checks while a campaign shards out.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time

from ..core.env import env_float, env_int, env_str
from ..sched.queue import QueueFull
from ..sched.scheduler import CampaignRequest, Scheduler
from . import protocol
from .protocol import (
    API_PREFIX,
    MAX_BODY_BYTES,
    PROTOCOL_VERSION,
    content_length,
    encode_response,
    error_body,
    is_true,
    parse_request_head,
    split_target,
)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8321

HOST_ENV = "REPRO_SERVE_HOST"
PORT_ENV = "REPRO_SERVE_PORT"
WORKERS_ENV = "REPRO_SERVE_WORKERS"
MAX_PENDING_ENV = "REPRO_SERVE_MAX_PENDING"
WAIT_TIMEOUT_ENV = "REPRO_SERVE_WAIT_TIMEOUT"


class _Refused(Exception):
    """A request refused while it was being read."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def default_host() -> str:
    return env_str(HOST_ENV, DEFAULT_HOST)


def default_port() -> int:
    return env_int(PORT_ENV, DEFAULT_PORT, minimum=0)


class ServiceDaemon:
    """One scheduler, one listening socket, one request at a time each."""

    def __init__(self, *, host: str | None = None, port: int | None = None,
                 workers: int | None = None, max_pending: int | None = None,
                 log=None):
        self.host = host if host is not None else default_host()
        self.port = port if port is not None else default_port()
        if workers is None:
            workers = env_int(WORKERS_ENV, 1, minimum=1)
        if max_pending is None:
            max_pending = env_int(MAX_PENDING_ENV, 64, minimum=1)
        self.scheduler = Scheduler(
            max_pending=max_pending, default_workers=workers
        )
        self._wait_timeout = env_float(WAIT_TIMEOUT_ENV, 600.0, minimum=0.0)
        self._log = log if log is not None else sys.stderr
        self._server: asyncio.Server | None = None
        #: Connection handlers in flight, cancelled by :meth:`stop`.
        self._handlers: set[asyncio.Task] = set()
        self._started = time.time()

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        # Port 0 binds an ephemeral port; publish the real one.
        self.port = self._server.sockets[0].getsockname()[1]
        self.log(f"listening on http://{self.host}:{self.port}{API_PREFIX}")

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the socket and cancel in-flight handlers, so a client
        that stalls mid-request cannot hold shutdown until its read
        deadline."""
        if self._server is not None:
            self._server.close()
            for task in self._handlers:
                task.cancel()
            await asyncio.gather(*self._handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        self.scheduler.stop()

    def log(self, message: str) -> None:
        print(f"[repro.serve] {message}", file=self._log, flush=True)

    # -- request handling --------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            try:
                status, payload = await self._respond(reader)
            except Exception as exc:  # noqa: BLE001 - protocol error boundary
                status, payload = 500, error_body(
                    f"{type(exc).__name__}: {exc}"
                )
                self.log(f"500 {exc!r}")
            writer.write(encode_response(status, payload))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass  # client went away; nothing to salvage
        except asyncio.CancelledError:
            # stop() cancelled this connection.  Before Python 3.12 a
            # connection task that ends cancelled makes asyncio's
            # stream callback log an error, so end normally instead.
            pass
        finally:
            self._handlers.discard(task)
            writer.close()

    async def _respond(self, reader) -> tuple[int, dict]:
        deadline = protocol.READ_DEADLINE_SECONDS
        try:
            method, path, query, body = await asyncio.wait_for(
                self._read_request(reader), deadline
            )
        except _Refused as refused:
            return refused.status, error_body(str(refused))
        except asyncio.TimeoutError:
            return 408, error_body(
                f"request not received within {deadline:g} s"
            )
        return await self._route(method, path, query, body)

    async def _read_request(self, reader) -> tuple[str, str, dict, dict]:
        """(method, path, query, JSON body) of one request."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise _Refused(400, "truncated request head") from None
        try:
            method, target, headers = parse_request_head(head[:-4])
            length = content_length(headers)
        except ValueError as exc:
            raise _Refused(400, str(exc)) from None
        path, query = split_target(target)
        if length > MAX_BODY_BYTES:
            raise _Refused(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body: dict = {}
        if length:
            try:
                raw = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise _Refused(
                    400, f"request body shorter than Content-Length {length}"
                ) from None
            try:
                body = json.loads(raw)
            except ValueError:
                raise _Refused(400, "request body is not valid JSON") from None
            if not isinstance(body, dict):
                raise _Refused(400, "request body must be a JSON object")
        return method, path, query, body

    async def _route(self, method: str, path: str, query: dict,
                     body: dict) -> tuple[int, dict]:
        if not path.startswith(API_PREFIX):
            return 404, error_body(f"unknown path {path!r}")
        route = path[len(API_PREFIX):] or "/"
        if route == "/health" and method == "GET":
            return 200, self._health()
        if route == "/campaigns" and method == "POST":
            return await self._submit(query, body)
        if route == "/jobs" and method == "GET":
            jobs = [job.to_dict(include_result=False)
                    for job in self.scheduler.jobs()]
            return 200, {"jobs": sorted(jobs, key=lambda j: j["job_id"])}
        if route.startswith("/jobs/") and method == "GET":
            return await self._job(route[len("/jobs/"):], query)
        if route == "/stats" and method == "GET":
            return 200, self._stats()
        if route == "/analyze" and method == "POST":
            return await self._analyze(body)
        known = {"/health", "/campaigns", "/jobs", "/stats", "/analyze"}
        if route in known or route.startswith("/jobs/"):
            return 405, error_body(f"{method} not allowed on {path}")
        return 404, error_body(f"unknown path {path!r}")

    def _health(self) -> dict:
        return {
            "status": "ok",
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.time() - self._started,
        }

    async def _submit(self, query: dict, body: dict) -> tuple[int, dict]:
        try:
            request = CampaignRequest.from_payload(
                body, default_workers=self.scheduler.default_workers
            )
        except (KeyError, TypeError, ValueError) as exc:
            return 400, error_body(f"bad campaign request: {exc}")
        loop = asyncio.get_running_loop()
        try:
            job = await loop.run_in_executor(
                None, self.scheduler.submit, request
            )
        except QueueFull as exc:
            return 429, error_body(str(exc))
        except (KeyError, TypeError, ValueError) as exc:
            return 400, error_body(f"bad campaign request: {exc}")
        wait = is_true(query.get("wait")) or bool(body.get("wait"))
        if wait and job.status in ("queued", "running"):
            await loop.run_in_executor(None, job.wait, self._wait_timeout)
        self.log(f"{job.id} {job.status} fp={job.fingerprint[:12]} "
                 f"runs={request.runs} cached={job.cached}")
        status = 200 if job.status in ("done", "failed") else 202
        return status, job.to_dict()

    async def _job(self, job_id: str, query: dict) -> tuple[int, dict]:
        job = self.scheduler.job(job_id)
        if job is None:
            return 404, error_body(f"unknown job {job_id!r}")
        if is_true(query.get("wait")) and job.status in ("queued", "running"):
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, job.wait, self._wait_timeout)
        return 200, job.to_dict()

    def _stats(self) -> dict:
        from ..cache import get_cache
        cache = get_cache()
        payload = self.scheduler.stats()
        payload["uptime_seconds"] = time.time() - self._started
        payload["store"] = {"enabled": cache.enabled, "root": str(cache.root)}
        return payload

    async def _analyze(self, body: dict) -> tuple[int, dict]:
        loop = asyncio.get_running_loop()
        try:
            return 200, await loop.run_in_executor(
                None, analyze_request, body
            )
        except (KeyError, TypeError, ValueError) as exc:
            return 400, error_body(f"bad analyze request: {exc}")


def analyze_request(body: dict) -> dict:
    """Model prediction (no fault injection) for a wire-form module."""
    from ..cache import cached_profile, module_fingerprint
    from ..core.simple_models import MODEL_NAMES, create_model
    from ..sched.spec import ModuleSpec, json_field
    spec = ModuleSpec.from_request(body)
    model_name = str(body.get("model", "trident"))
    if model_name not in MODEL_NAMES:
        raise ValueError(f"unknown model {model_name!r}")
    samples = json_field(body, "samples", int, 3000)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    module = spec.materialize()
    profile, _ = cached_profile(module)
    model = create_model(model_name, module, profile)
    payload = {
        "fingerprint": module_fingerprint(module),
        "model": model_name,
        "samples": samples,
        "overall_sdc": model.overall_sdc(samples=samples),
    }
    if model_name == "trident":
        payload["overall_crash"] = model.overall_crash(samples=samples)
    return payload


def run_daemon(daemon: ServiceDaemon, *, port_file: str | None = None) -> int:
    """Blocking entrypoint behind ``repro serve``."""

    async def _main() -> None:
        await daemon.start()
        if port_file:
            with open(port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{daemon.port}\n")
        try:
            await daemon.serve_forever()
        finally:
            await daemon.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        daemon.log("interrupted; shutting down")
    return 0
