"""Tests for the stdlib REST front end: the ServiceAPI semantics and a
live ThreadingHTTPServer round trip against a real daemon run."""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import JobSpec, TuningService
from repro.service.http import MAX_BODY_BYTES, ServiceAPI, make_server

TINY = dict(dataset="cifar10", method="rs", setting="noisy", preset="test",
            k=2, n_bank_configs=2, total_budget=18)


def tiny_spec(**overrides):
    return JobSpec(**{**TINY, **overrides}).to_dict()


@pytest.fixture()
def api(tmp_path):
    return ServiceAPI(str(tmp_path / "svc"))


class TestServiceAPI:
    def test_health_reports_counts(self, api):
        status, body = api.health()
        assert status == 200 and body["ok"]
        assert body["counts"]["PENDING"] == 0

    def test_submit_and_poll(self, api):
        status, body = api.submit({"spec": tiny_spec(), "tenant": "alice"})
        assert status == 201
        job_id = body["job_id"]
        status, job = api.get_job(job_id)
        assert status == 200
        assert job["state"] == "PENDING"
        assert job["tenant"] == "alice"
        status, listing = api.list_jobs()
        assert [j["job_id"] for j in listing["jobs"]] == [job_id]

    def test_submit_rejects_malformed_bodies(self, api):
        assert api.submit({})[0] == 400
        assert api.submit({"spec": "not a dict"})[0] == 400
        assert api.submit([])[0] == 400

    def test_explicit_job_id_resubmission_idempotent(self, api):
        assert api.submit({"spec": tiny_spec(), "job_id": "mine"})[0] == 201
        status, body = api.submit({"spec": tiny_spec(), "job_id": "mine"})
        assert status == 201 and body["job_id"] == "mine"
        assert len(api.list_jobs()[1]["jobs"]) == 1

    def test_unknown_job_is_404(self, api):
        assert api.get_job("nope")[0] == 404
        assert api.get_curve("nope")[0] == 404
        assert api.get_result("nope")[0] == 404

    def test_result_before_completion_is_404_with_state(self, api):
        job_id = api.submit({"spec": tiny_spec()})[1]["job_id"]
        status, body = api.get_result(job_id)
        assert status == 404
        assert body["state"] == "PENDING"

    def test_curve_streams_with_start_cursor(self, api):
        job_id = api.submit({"spec": tiny_spec()})[1]["job_id"]
        api.store.append_curve_points(
            job_id, [{"index": i, "full_error": 1.0} for i in range(4)]
        )
        status, body = api.get_curve(job_id, start=2)
        assert status == 200
        assert [p["index"] for p in body["points"]] == [2, 3]


class TestLiveServer:
    @pytest.fixture()
    def served(self, tmp_path):
        root = str(tmp_path / "svc")
        server = make_server(root, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield root, f"http://{host}:{port}"
        server.shutdown()
        server.server_close()

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, json.loads(resp.read())

    def _post(self, url, payload):
        req = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())

    def test_submit_run_stream_result_over_http(self, served):
        root, base = served
        status, body = self._post(
            f"{base}/jobs", {"spec": tiny_spec(), "tenant": "alice"}
        )
        assert status == 201
        job_id = body["job_id"]

        status, health = self._get(f"{base}/health")
        assert status == 200 and health["counts"]["PENDING"] == 1

        # The daemon shares the root with the front end through the
        # journaled queue — run the submitted job to completion.
        TuningService(root, poll_interval=0.01).run(once=True)

        status, job = self._get(f"{base}/jobs/{job_id}")
        assert status == 200 and job["state"] == "DONE"

        status, curve = self._get(f"{base}/jobs/{job_id}/curve?start=0")
        assert status == 200 and len(curve["points"]) >= 1
        last = curve["points"][-1]["index"]
        status, tail = self._get(f"{base}/jobs/{job_id}/curve?start={last + 1}")
        assert status == 200 and tail["points"] == []

        status, result = self._get(f"{base}/jobs/{job_id}/result")
        assert status == 200
        assert result["job_id"] == job_id
        assert result["method"] == "rs"

    def test_http_errors_are_json(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(f"{base}/jobs/nope")
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(f"{base}/no/such/route")
        assert excinfo.value.code == 404

    def test_bad_post_body_is_400(self, served):
        _, base = served
        req = urllib.request.Request(
            f"{base}/jobs", data=b"@@not json@@",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        assert excinfo.value.code == 400

    def _post_headers_only(self, base, length):
        """POST /jobs with a header block and no body: a server that tried
        to read the declared body would stall past the socket timeout."""
        host, port = base[len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(
                f"POST /jobs HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {length}\r\n\r\n".encode()
            )
            reply = b""
            while True:  # the server closes the connection after replying
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        return head.decode("latin-1"), json.loads(body)

    @pytest.mark.parametrize("length", ["-1", "-4096", "twelve"])
    def test_bad_content_length_is_400_unread(self, served, length):
        _, base = served
        head, body = self._post_headers_only(base, length)
        assert head.startswith("HTTP/1.1 400")
        assert "Connection: close" in head
        assert "Content-Length" in body["error"]
        assert self._get(f"{base}/health")[0] == 200

    def test_oversize_body_is_413_unread(self, served):
        _, base = served
        head, body = self._post_headers_only(base, MAX_BODY_BYTES + 1)
        assert head.startswith("HTTP/1.1 413")
        assert "Connection: close" in head
        assert str(MAX_BODY_BYTES) in body["error"]
        assert self._get(f"{base}/health")[1]["counts"]["PENDING"] == 0

    def test_body_at_the_cap_is_read(self, served):
        _, base = served
        payload = json.dumps({"spec": tiny_spec(), "pad": ""}).encode()
        payload = payload[:-2] + b" " * (MAX_BODY_BYTES - len(payload)) + b'"}'
        assert len(payload) == MAX_BODY_BYTES
        req = urllib.request.Request(
            f"{base}/jobs", data=payload,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.status == 201

    def test_one_socket_write_per_reply_on_reused_connection(self, tmp_path):
        """Headers and body must leave in one send: two small writes per
        reply stall every keep-alive request ~40 ms on Nagle + the
        client's delayed ACK (the benchmark's service.http.get_ms_p50)."""
        writes = []

        class CountingSocket(socket.socket):
            def send(self, data, *args):
                writes.append(len(data))
                return super().send(data, *args)

            def sendall(self, data, *args):
                writes.append(len(data))
                return super().sendall(data, *args)

        server = make_server(str(tmp_path / "svc"), port=0)
        accept = server.get_request

        def counting_accept():
            sock, addr = accept()
            return CountingSocket(sock.family, sock.type, sock.proto, fileno=sock.detach()), addr

        server.get_request = counting_accept
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            conn = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
            try:
                for path in ("/health", "/jobs", "/jobs/nope", "/health"):
                    before = len(writes)
                    conn.request("GET", path)
                    response = conn.getresponse()
                    body = response.read()
                    assert json.loads(body) is not None
                    assert len(writes) - before == 1, (path, writes[before:])
                    assert writes[-1] > len(body)  # headers rode along
            finally:
                conn.close()
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
        assert not thread.is_alive()
