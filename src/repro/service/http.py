"""Stdlib-only REST front end for the tuning service.

A thin JSON facade over the durable layers — every mutation goes through
the journaled :class:`~repro.service.queue.JobQueue` (submissions from
this process and leases from the daemon serialize on the same file lock),
so the front end holds **no** state of its own and can die or restart at
any moment without losing anything.

Routes (JSON in, JSON out):

- ``GET  /health``                 — liveness + job counts by state.
- ``GET  /jobs``                   — all jobs, submission order.
- ``GET  /jobs/<id>``              — one job's state snapshot.
- ``GET  /jobs/<id>/curve?start=N``— incumbent-curve points with
  ``index >= N`` (poll with the last index + 1 to stream increments).
- ``GET  /jobs/<id>/result``       — the finished run's canonical result.
- ``POST /jobs``                   — submit; body
  ``{"spec": {...}, "tenant": "...", "job_id": "..."}`` (tenant and
  job_id optional); returns ``{"job_id": ...}``. Re-posting an explicit
  job_id is idempotent.

Built on ``http.server.ThreadingHTTPServer`` — no third-party framework,
per the repo's no-new-dependencies rule.
"""

from __future__ import annotations

import json
import os
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.service.queue import JobQueue
from repro.service.store import ExperimentStore
from repro.service.worker import result_path


class ServiceAPI:
    """The request-independent service surface the handler calls into.

    Split out from the HTTP plumbing so tests (and embedders) can drive
    the exact REST semantics without sockets.
    """

    def __init__(self, root: str, queue: Optional[JobQueue] = None,
                 store: Optional[ExperimentStore] = None):
        self.root = str(root)
        self.queue = queue or JobQueue(os.path.join(self.root, "queue"))
        self.store = store or ExperimentStore(os.path.join(self.root, "store"))

    def health(self) -> Tuple[int, dict]:
        return 200, {"ok": True, "counts": self.queue.counts()}

    def list_jobs(self) -> Tuple[int, dict]:
        return 200, {"jobs": self.queue.jobs()}

    def get_job(self, job_id: str) -> Tuple[int, dict]:
        job = self.queue.job(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, job

    def get_curve(self, job_id: str, start: int = 0) -> Tuple[int, dict]:
        if self.queue.job(job_id) is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        points = self.store.curve_points(job_id, start=int(start))
        return 200, {"job_id": job_id, "start": int(start), "points": points}

    def get_result(self, job_id: str) -> Tuple[int, dict]:
        job = self.queue.job(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        path = result_path(self.root, job_id)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return 200, json.load(fh)
        except FileNotFoundError:
            return 404, {
                "error": f"job {job_id!r} has no result yet",
                "state": job["state"],
            }

    def submit(self, body: dict) -> Tuple[int, dict]:
        if not isinstance(body, dict) or not isinstance(body.get("spec"), dict):
            return 400, {"error": "body must be {'spec': {...}, ...}"}
        try:
            job_id = self.queue.submit(
                body["spec"],
                tenant=str(body.get("tenant", "default")),
                job_id=body.get("job_id"),
            )
        except ValueError as exc:
            return 400, {"error": str(exc)}
        return 201, {"job_id": job_id}


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the :class:`ServiceAPI` bound on the server."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Buffered replies: http.server's default unbuffered wfile sends the
    # header block and the body as two small segments, and on a keep-alive
    # connection the second waits out Nagle + the client's delayed ACK
    # (~40 ms per reply). handle_one_request flushes once per request.
    wbufsize = 1 << 16

    def log_message(self, fmt, *args):  # quiet by default; tests read stdout
        pass

    @property
    def api(self) -> ServiceAPI:
        return self.server.api  # type: ignore[attr-defined]

    def _reply(self, status: int, payload: dict) -> None:
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts == ["health"]:
            return self._reply(*self.api.health())
        if parts == ["jobs"]:
            return self._reply(*self.api.list_jobs())
        if len(parts) == 2 and parts[0] == "jobs":
            return self._reply(*self.api.get_job(parts[1]))
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "curve":
            query = parse_qs(url.query)
            try:
                start = int(query.get("start", ["0"])[0])
            except ValueError:
                return self._reply(400, {"error": "start must be an integer"})
            return self._reply(*self.api.get_curve(parts[1], start=start))
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            return self._reply(*self.api.get_result(parts[1]))
        return self._reply(404, {"error": f"no route {url.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts != ["jobs"]:
            return self._reply(404, {"error": f"no route {url.path!r}"})
        try:
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, TypeError):
            return self._reply(400, {"error": "body must be valid JSON"})
        return self._reply(*self.api.submit(body))


def make_server(root: str, host: str = "127.0.0.1", port: int = 0,
                api: Optional[ServiceAPI] = None) -> ThreadingHTTPServer:
    """Build (but don't start) the REST server; ``port=0`` picks a free
    port — read it back from ``server.server_address``."""
    server = ThreadingHTTPServer((host, port), _Handler)
    server.api = api or ServiceAPI(root)  # type: ignore[attr-defined]
    return server


def serve(root: str, host: str = "127.0.0.1", port: int = 8537) -> None:
    """Run the REST front end until interrupted."""
    server = make_server(root, host, port)
    try:
        server.serve_forever()
    finally:
        server.server_close()
