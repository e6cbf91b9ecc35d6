"""End-to-end HTTP tests: a real server on an ephemeral port.

The acceptance path for the service PR: submit the same job twice and
observe exactly one execution plus one cache hit, and verify the
streamed NDJSON matches the on-disk telemetry artifacts byte-for-byte
(as parsed records).
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceApp, make_server

from .conftest import wait_until


@pytest.fixture
def service(tmp_path, fake_registry):
    app = ServiceApp(tmp_path / "store", workers=2, job_procs=1)
    server = make_server(app, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield {"base": f"http://{host}:{port}", "app": app}
    finally:
        server.shutdown()
        server.server_close()
        app.close()


def get(base: str, path: str):
    try:
        with urllib.request.urlopen(base + path, timeout=30) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as failure:
        return failure.code, json.loads(failure.read())


def post(base: str, path: str, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as failure:
        return failure.code, json.loads(failure.read())


def stream(base: str, path: str) -> list[dict]:
    with urllib.request.urlopen(base + path, timeout=120) as reply:
        assert reply.headers["Content-Type"] == "application/x-ndjson"
        return [json.loads(line) for line in reply.read().splitlines()]


SPEC = {"experiment": "fake", "seeds": 2, "params": {"xs": [1, 2]}}


def wait_done(service, job_id: str) -> dict:
    final = {}

    def settled() -> bool:
        _, body = get(service["base"], f"/v1/jobs/{job_id}")
        final.update(body["job"])
        return body["job"]["state"] in ("done", "failed")

    assert wait_until(settled), f"job {job_id} never settled"
    return final


class TestDiscovery:
    def test_health(self, service):
        status, body = get(service["base"], "/v1/health")
        assert status == 200
        assert body["schema"] == "repro.service/1"
        assert body["status"] == "ok"

    def test_experiments_listing_carries_capabilities(self, service):
        status, body = get(service["base"], "/v1/experiments")
        assert status == 200
        listed = {entry["id"]: entry for entry in body["experiments"]}
        assert listed["exp1"]["has_seeds"]
        assert all("accepts_resolver" not in entry for entry in listed.values())
        assert not listed["exp10"]["has_seeds"]
        assert listed["exp13"]["accepts_faults"]


class TestJobFlow:
    def test_submit_twice_one_execution_one_cache_hit(self, service):
        base = service["base"]
        status, body = post(base, "/v1/jobs", SPEC)
        assert status == 202
        assert body["created"] and not body["cached"]
        job_id = body["job"]["job_id"]

        final = wait_done(service, job_id)
        assert final["state"] == "done"
        assert final["executions"] == 1

        status, body = post(base, "/v1/jobs", SPEC)
        assert status == 200
        assert body["cached"] and not body["created"]
        assert body["job"]["executions"] == 1

        status, body = get(base, f"/v1/jobs/{job_id}/result")
        assert status == 200
        assert body["num_rows"] == 4
        assert body["check_passed"] is True
        values = {(row["x"], row["seed"]) for row in body["rows"]}
        assert values == {(1, 0), (1, 1), (2, 0), (2, 1)}

    def test_streamed_ndjson_matches_on_disk_artifacts(self, service):
        base = service["base"]
        _, body = post(base, "/v1/jobs", SPEC)
        job_id = body["job"]["job_id"]
        events = stream(base, f"/v1/jobs/{job_id}/events?timeout_s=120")

        assert events[0]["k"] == "job"
        assert events[-1]["k"] == "job" and events[-1]["job"]["state"] == "done"
        streamed = [
            (event["shard"], event["record"])
            for event in events
            if event["k"] == "telemetry"
        ]
        assert streamed

        manager = service["app"].manager
        record = manager.get(job_id)
        on_disk = []
        for index in range(record.num_shards):
            path = manager.cache.telemetry_path(
                record.experiment, record.config_hash, index
            )
            with path.open(encoding="utf-8") as handle:
                for line in handle:
                    on_disk.append((index, json.loads(line)))
        assert streamed == on_disk

    def test_jobs_listing_shows_submissions(self, service):
        base = service["base"]
        _, body = post(base, "/v1/jobs", SPEC)
        job_id = body["job"]["job_id"]
        status, body = get(base, "/v1/jobs")
        assert status == 200
        assert job_id in {job["job_id"] for job in body["jobs"]}


class TestErrorMapping:
    def test_unknown_endpoint_404(self, service):
        status, body = get(service["base"], "/v1/nope")
        assert status == 404 and "error" in body

    def test_unknown_job_404(self, service):
        status, _ = get(service["base"], "/v1/jobs/fake-0000000000000000")
        assert status == 404

    def test_wrong_method_405(self, service):
        status, _ = post(service["base"], "/v1/health", {})
        assert status == 405

    def test_invalid_body_400(self, service):
        request = urllib.request.Request(
            service["base"] + "/v1/jobs",
            data=b"{not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as failure:
            urllib.request.urlopen(request, timeout=30)
        assert failure.value.code == 400

    def test_validation_failure_400(self, service):
        status, body = post(
            service["base"], "/v1/jobs", {"experiment": "no-such"}
        )
        assert status == 400 and "experiment" in body["error"]

    def test_resolver_field_400(self, service):
        status, body = post(
            service["base"], "/v1/jobs", {"experiment": "exp1", "resolver": "dense"}
        )
        assert status == 400 and "['resolver']" in body["error"]

    def test_result_before_done_409(self, service):
        base = service["base"]
        slow = {
            "experiment": "fake",
            "seeds": 1,
            "params": {"xs": [21], "sleep_s": 1.0},
        }
        _, body = post(base, "/v1/jobs", slow)
        job_id = body["job"]["job_id"]
        status, _ = get(base, f"/v1/jobs/{job_id}/result")
        assert status == 409
        wait_done(service, job_id)

    def test_bad_query_parameter_400(self, service):
        _, body = post(service["base"], "/v1/jobs", SPEC)
        job_id = body["job"]["job_id"]
        status, _ = get(
            service["base"], f"/v1/jobs/{job_id}/events?timeout_s=soon"
        )
        assert status == 400
        wait_done(service, job_id)


class TestServeCli:
    def test_parser_accepts_serve_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--store", "runs",
                "--host", "0.0.0.0",
                "--port", "0",
                "--workers", "3",
                "--jobs", "2",
                "--queue-size", "8",
                "--no-check",
                "--verbose",
            ]
        )
        assert args.func.__name__ == "_cmd_serve"
        assert args.port == 0 and args.workers == 3 and args.queue_size == 8
