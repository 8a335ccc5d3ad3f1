"""Tests for the experiment-farm server (repro.serve).

Three layers under test:

- **specs**: strict JSON validation — unknown fields, bad values, and
  constructor-signature mismatches all fail the request before anything
  is scheduled;
- **HTTP endpoints**: submit/status/artifact/metrics/events round
  trips against a real server on a real socket (thread worker pool, so
  the suite stays cheap and monkeypatchable);
- **the two hard invariants**: concurrent submissions of one spec
  execute exactly once, and everything served over HTTP is
  byte-identical to the CLI artifact for the same spec.
"""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.exec import FarmExecutor, ResultCache
from repro.exec.jobs import job_key, make_job
from repro.obs import FleetMonitor, dumps_json
from repro.serve import (
    SpecError,
    FarmServer,
    ServerThread,
    analyze_request,
    job_from_spec,
    workload_registry,
)
from repro.workloads.worker import WorkerBenchmark

TINY_SPEC = {
    "workload": "worker",
    "workload_kwargs": {"worker_set_size": 2, "iterations": 1},
    "nodes": 4,
}


def tiny_job(**overrides):
    return make_job(WorkerBenchmark,
                    {"worker_set_size": 2, "iterations": 1},
                    protocol="DirnH5SNB", n_nodes=4, **overrides)


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------

class TestJobSpecs:
    def test_minimal_spec_round_trips(self):
        job = job_from_spec(dict(TINY_SPEC))
        assert job == tiny_job()

    def test_registry_covers_paper_apps_plus_worker(self):
        names = list(workload_registry())
        assert "water" in names and "worker" in names

    def test_spec_key_matches_cli_job_key(self):
        assert job_key(job_from_spec(dict(TINY_SPEC))) \
            == job_key(tiny_job())

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown spec field"):
            job_from_spec(dict(TINY_SPEC, node=4))

    def test_unknown_workload_rejected(self):
        with pytest.raises(SpecError, match="unknown workload"):
            job_from_spec({"workload": "fft"})

    def test_bad_protocol_rejected(self):
        with pytest.raises(SpecError, match="cannot parse protocol"):
            job_from_spec(dict(TINY_SPEC, protocol="DirQQ"))

    def test_bad_kwargs_rejected_before_scheduling(self):
        with pytest.raises(SpecError, match="workload_kwargs"):
            job_from_spec(dict(TINY_SPEC,
                               workload_kwargs={"sizes": 2}))

    def test_bad_types_rejected(self):
        with pytest.raises(SpecError, match="nodes"):
            job_from_spec(dict(TINY_SPEC, nodes="four"))
        with pytest.raises(SpecError, match="nodes"):
            job_from_spec(dict(TINY_SPEC, nodes=3))
        with pytest.raises(SpecError, match="nodes"):
            analyze_request({"nodes": 3})
        with pytest.raises(SpecError, match="victim_cache"):
            job_from_spec(dict(TINY_SPEC, victim_cache="yes"))
        with pytest.raises(SpecError, match="invalidation_mode"):
            job_from_spec(dict(TINY_SPEC, invalidation_mode="eager"))
        with pytest.raises(SpecError, match="object"):
            job_from_spec(["worker"])


class TestAnalyzeSpecs:
    def test_defaults_mirror_the_cli(self):
        from repro.analysis.reportgen import ANALYZE_DEFAULTS

        job, config = analyze_request({})
        assert job.attribution
        assert config["app"] == ANALYZE_DEFAULTS["app"]
        assert config["nodes"] == ANALYZE_DEFAULTS["nodes"]
        assert config["worker_set_size"] == ANALYZE_DEFAULTS["size"]

    def test_non_worker_app_drops_worker_fields(self):
        _job, config = analyze_request({"app": "water", "nodes": 4})
        assert "worker_set_size" not in config
        assert config["app"] == "water"

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown analyze spec"):
            analyze_request({"worker_set_size": 4})


# ----------------------------------------------------------------------
# A live server on a real socket
# ----------------------------------------------------------------------

@pytest.fixture
def farm_server(tmp_path):
    monitor = FleetMonitor()
    farm = FarmExecutor(jobs=2,
                        cache=ResultCache(str(tmp_path / "cache")),
                        telemetry=monitor, worker_pool="thread")
    monitor.start(jobs=farm.n_workers)
    thread = ServerThread(FarmServer(farm, monitor)).start()
    try:
        yield thread
    finally:
        thread.stop()
        farm.close()
        monitor.close()


def http_get(port, path, timeout=60):
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=timeout) as r:
            return r.status, r.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def http_post(port, path, doc, timeout=180):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(doc).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as r:
            return r.status, r.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


class TestEndpoints:
    def test_index_and_healthz(self, farm_server):
        status, body = http_get(farm_server.port, "/")
        assert status == 200
        assert "/events" in json.loads(body)["endpoints"].__str__()
        status, body = http_get(farm_server.port, "/healthz")
        assert status == 200 and json.loads(body) == {"ok": True}

    def test_submit_wait_and_fetch(self, farm_server):
        port = farm_server.port
        status, body = http_post(port, "/jobs?wait=1", TINY_SPEC)
        assert status == 200
        doc = json.loads(body)
        assert doc["state"] == "done"
        assert doc["key"] == job_key(tiny_job())
        assert doc["result"]["run_cycles"] > 0
        assert doc["spec"]["protocol"] == "DirnH5SNB"
        status, body = http_get(port, f"/jobs/{doc['key']}")
        assert status == 200
        assert json.loads(body)["state"] == "done"
        status, body = http_get(port, "/jobs")
        assert [j["key"] for j in json.loads(body)["jobs"]] == [doc["key"]]

    def test_submit_without_wait_returns_202(self, farm_server):
        status, body = http_post(farm_server.port, "/jobs", TINY_SPEC)
        assert status == 202
        doc = json.loads(body)
        assert doc["state"] in ("queued", "running", "done")
        assert doc["location"] == f"/jobs/{doc['key']}"

    def test_resubmission_coalesces(self, farm_server):
        port = farm_server.port
        http_post(port, "/jobs?wait=1", TINY_SPEC)
        status, body = http_post(port, "/jobs?wait=1", TINY_SPEC)
        doc = json.loads(body)
        assert doc["submissions"] == 2
        assert doc["sources"][-1] in ("memo", "inflight")
        counters = json.loads(
            http_get(port, "/status")[1])["server"]
        assert counters["jobs_executed"] == 1

    def test_error_paths(self, farm_server):
        port = farm_server.port
        status, body = http_post(port, "/jobs", {"workload": "fft"})
        assert status == 400
        assert "unknown workload" in json.loads(body)["error"]
        status, _ = http_get(port, "/jobs/nope:DirnH5SNB:0000")
        assert status == 404
        status, _ = http_get(port, "/nope")
        assert status == 404
        status, body = http_get(port, "/jobs/x/artifact/extra")
        assert status == 404
        status, body = http_post(port, "/metrics", {})
        assert status == 405

    def test_metrics_exposition(self, farm_server):
        port = farm_server.port
        http_post(port, "/jobs?wait=1", TINY_SPEC)
        status, body = http_get(port, "/metrics")
        assert status == 200
        text = body.decode("utf-8")
        assert "# TYPE repro_fleet_jobs_completed_total counter" in text
        assert "repro_fleet_jobs_completed_total 1" in text

    def test_status_document(self, farm_server):
        port = farm_server.port
        http_post(port, "/jobs?wait=1", TINY_SPEC)
        doc = json.loads(http_get(port, "/status")[1])
        assert doc["schema"] == "repro-serve/1"
        assert doc["summary"]["completed"] == 1
        assert doc["server"]["worker_pool"] == "thread"
        assert len(doc["jobs"]) == 1


class TestAttributionArtifacts:
    def test_completed_job_payload_carries_the_artifact(self,
                                                        farm_server):
        port = farm_server.port
        spec = dict(TINY_SPEC, attribution=True)
        status, body = http_post(port, "/jobs?wait=1", spec)
        assert status == 200
        doc = json.loads(body)
        artifact = doc["attribution"]
        assert artifact["schema"] == "repro-attribution/1"
        assert sum(artifact["buckets"].values()) \
            == artifact["stall_cycles"]
        status, raw = http_get(port, doc["artifact"])
        assert status == 200
        # the artifact endpoint serves the canonical encoding
        assert raw.decode("utf-8") == dumps_json(artifact)

    def test_plain_job_has_no_artifact(self, farm_server):
        port = farm_server.port
        status, body = http_post(port, "/jobs?wait=1", TINY_SPEC)
        key = json.loads(body)["key"]
        status, body = http_get(port, f"/jobs/{key}/artifact")
        assert status == 404
        assert "no attribution artifact" in json.loads(body)["error"]


class TestEventStream:
    def test_sse_relays_the_fleet_stream(self, farm_server):
        port = farm_server.port
        sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        sock.sendall(b"GET /events HTTP/1.1\r\nHost: t\r\n"
                     b"Accept: text/event-stream\r\n\r\n")
        sock.settimeout(60)
        http_post(port, "/jobs?wait=1", TINY_SPEC)
        buf = b""
        while b"event: job_finished" not in buf:
            chunk = sock.recv(65536)
            assert chunk, "stream closed before job_finished"
            buf += chunk
        sock.close()
        head, _, rest = buf.partition(b"\r\n\r\n")
        assert b"200 OK" in head
        assert b"text/event-stream" in head
        assert b"Transfer-Encoding: chunked" in head
        # first data frame is the summary snapshot, then live events
        frames = [line for line in rest.split(b"\n")
                  if line.startswith(b"event: ")]
        kinds = [f.split(b": ")[1].decode() for f in frames]
        assert kinds[0] == "summary"
        assert "job_started" in kinds and "job_finished" in kinds
        # every data line is one JSON document; live ones carry seq ids
        for line in rest.split(b"\n"):
            if line.startswith(b"data: "):
                json.loads(line[len(b"data: "):])

    def test_disconnected_client_is_cleaned_up(self, farm_server):
        port = farm_server.port
        sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        sock.sendall(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
        sock.recv(4096)
        sock.close()
        # the server must keep answering after the subscriber vanishes
        http_post(port, "/jobs?wait=1", TINY_SPEC)
        status, _ = http_get(port, "/healthz")
        assert status == 200


class TestInflightDedupOverHttp:
    def test_two_concurrent_clients_one_execution(self, farm_server,
                                                  monkeypatch):
        import repro.exec.pool as pool_mod

        release = threading.Event()
        calls = []
        real_execute = pool_mod.execute_job

        def gated_execute(job, *args, **kwargs):
            calls.append(job_key(job))
            assert release.wait(120)
            return real_execute(job, *args, **kwargs)

        monkeypatch.setattr(pool_mod, "execute_job", gated_execute)
        port = farm_server.port
        results = [None, None]

        def client(slot):
            results[slot] = http_post(port, "/jobs?wait=1", TINY_SPEC)

        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(2)]
        for t in threads:
            t.start()
        # wait until one execution started and the other coalesced
        farm = farm_server.server.farm
        for _ in range(600):
            counters = farm.counters()
            if counters["inflight_hits"] >= 1 and calls:
                break
            threading.Event().wait(0.05)
        release.set()
        for t in threads:
            t.join(timeout=180)
        assert calls == [job_key(tiny_job())]
        (s1, b1), (s2, b2) = results
        assert s1 == s2 == 200
        docs = [json.loads(b1), json.loads(b2)]
        assert docs[0]["result"] == docs[1]["result"]
        assert docs[0]["submissions"] == docs[1]["submissions"] == 2
        assert farm.counters()["jobs_executed"] == 1


class TestByteIdentityWithCli:
    ANALYZE = {"app": "worker", "nodes": 4, "size": 2, "iterations": 1,
               "protocol": "DirnH2SNB"}

    def test_analyze_bytes_match_the_cli_artifact(self, farm_server,
                                                  tmp_path, capsys):
        status, served = http_post(farm_server.port, "/analyze",
                                   self.ANALYZE)
        assert status == 200
        out = tmp_path / "cli.json"
        code = cli_main(["analyze", "--app", "worker", "--nodes", "4",
                         "--size", "2", "--iterations", "1",
                         "--protocol", "DirnH2SNB",
                         "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert served == out.read_bytes()

    def test_analyze_bytes_identical_across_worker_counts(self,
                                                          tmp_path):
        served = []
        for jobs in (1, 2):
            monitor = FleetMonitor()
            farm = FarmExecutor(
                jobs=jobs, cache=ResultCache(str(tmp_path / f"c{jobs}")),
                telemetry=monitor, worker_pool="thread")
            thread = ServerThread(FarmServer(farm, monitor)).start()
            try:
                status, body = http_post(thread.port, "/analyze",
                                         self.ANALYZE)
                assert status == 200
                served.append(body)
            finally:
                thread.stop()
                farm.close()
        assert served[0] == served[1]


class TestExperimentsEndpoint:
    def test_report_matches_the_cli_byte_for_byte(self, farm_server,
                                                  tmp_path, capsys):
        status, served = http_post(farm_server.port, "/experiments",
                                   {"preset": "quick"}, timeout=570)
        assert status == 200
        out = tmp_path / "EXPERIMENTS.md"
        code = cli_main(["experiments", "--quick", "--no-cache",
                         "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert served == out.read_bytes()

    def test_unknown_preset_rejected(self, farm_server):
        status, body = http_post(farm_server.port, "/experiments",
                                 {"preset": "huge"})
        assert status == 400
        assert "unknown preset" in json.loads(body)["error"]
