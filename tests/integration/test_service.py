"""End-to-end tests for ``repro serve`` (:mod:`repro.obs.service`).

The acceptance scenario from the issue: several concurrent jobs against
one daemon, one worker SIGKILLed mid-exploration, every job still
reaching a final verdict with the killed job's ledger record linked to
its resume chain, and ``/metrics`` agreeing with the ledger — all while
handlers only ever read snapshots (they are polled continuously *while*
the workers run).
"""

import json
import os
import re
import signal
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.service import serve_service


def get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read().decode("utf-8"), response.headers


def get_json(url):
    status, body, _headers = get(url)
    assert status == 200
    return json.loads(body)


def post_json(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def wait_final(session, job_id, timeout=120.0, on_poll=None):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        snap = get_json(session.url(f"/jobs/{job_id}"))
        if on_poll is not None:
            on_poll(snap)
        if snap["state"] in ("done", "error"):
            return snap
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never reached a final state")


def prom_values(text, metric):
    """``{label-string: float}`` for one metric in Prometheus text."""
    values = {}
    for match in re.finditer(
        rf"^{re.escape(metric)}(\{{[^}}]*\}})? (\S+)$", text, re.MULTILINE
    ):
        values[match.group(1) or ""] = float(match.group(2))
    return values


class TestAcceptance:
    def test_three_jobs_one_killed_resume_chain_and_metrics(self, tmp_path):
        session = serve_service(
            str(tmp_path / "data"), max_workers=3, max_retries=2
        )
        try:
            _status, job_a = post_json(
                session.url("/jobs"), {"task": "consensus", "n": 2, "k": 1}
            )
            _status, job_b = post_json(
                session.url("/jobs"),
                {"task": "set-consensus", "n": 2, "k": 1},
            )
            # The kill target: enough crash timings (~2s of work) to
            # reliably SIGKILL it mid-walk, checkpointing often enough
            # that the resume has a frontier to pick up.
            _status, job_c = post_json(
                session.url("/jobs"),
                {
                    "task": "set-consensus", "n": 2, "k": 1,
                    "max_crashes": 3, "checkpoint_every": 50,
                    "label": "kill me",
                },
            )
            checkpoint = str(
                tmp_path / "data" / "jobs" / job_c["id"] / "checkpoint.jsonl"
            )
            killed = {"pid": None}

            def kill_once(snap):
                if (
                    killed["pid"] is None
                    and snap["state"] == "running"
                    and snap.get("pid")
                    and os.path.exists(checkpoint)
                ):
                    os.kill(snap["pid"], signal.SIGKILL)
                    killed["pid"] = snap["pid"]

            final_c = wait_final(session, job_c["id"], on_poll=kill_once)
            final_a = wait_final(session, job_a["id"])
            final_b = wait_final(session, job_b["id"])

            # Every job reached a final verdict.
            assert final_a["state"] == "done"
            assert final_a["verdict"] == "proved"
            assert final_b["state"] == "done"
            assert final_b["verdict"] == "proved"
            assert killed["pid"] is not None, "never caught the worker running"
            assert final_c["state"] == "done"
            assert final_c["verdict"] == "proved"
            assert final_c["attempts"] == 2
            assert -9 in final_c["exit_codes"]  # the SIGKILL
            assert len(final_c["run_ids"]) == 2

            # The killed job's resume chain is in the ledger: the dead
            # attempt wrote no record, but its run id (recovered from
            # the checkpoint header) is the parent of the resumed run's.
            runs = get_json(session.url("/runs"))
            assert runs["corrupt_lines"] == 0
            by_id = {r["run_id"]: r for r in runs["runs"]}
            dead_id, resumed_id = final_c["run_ids"]
            assert dead_id not in by_id  # SIGKILL leaves no record
            assert by_id[resumed_id]["parent_run_id"] == dead_id
            assert by_id[resumed_id]["verdict"] == "proved"

            # The resumed run's ledger record carries the merged
            # execution set, unioned across the SIGKILL with the
            # checkpoint header's set so far: 21,720 executions end in
            # 474 final configurations.
            assert by_id[resumed_id]["execset"]["records"] == 474
            assert by_id[resumed_id]["execset"]["executions"] == 21720
            assert len(by_id[resumed_id]["execset"]["digest"]) == 64

            # /metrics verdict tallies match the ledger.
            _status, metrics, _headers = get(session.url("/metrics"))
            tallies = prom_values(metrics, "repro_service_runs_total")
            ledger_tallies = {}
            for record in runs["runs"]:
                verdict = record["verdict"]
                ledger_tallies[verdict] = ledger_tallies.get(verdict, 0) + 1
            assert tallies == {
                f'{{verdict="{verdict}"}}': float(count)
                for verdict, count in ledger_tallies.items()
            }
            job_states = prom_values(metrics, "repro_service_jobs")
            assert job_states['{state="done"}'] == 3.0

            # The resumed exploration's executions line up: resume
            # visits exactly what the dead worker had not yet yielded.
            assert by_id[resumed_id]["executions"] == 21720
        finally:
            session.close()


class TestEndpoints:
    @pytest.fixture()
    def session(self, tmp_path):
        session = serve_service(str(tmp_path / "data"), max_workers=2)
        yield session
        session.close()

    def finished_job(self, session):
        _status, job = post_json(
            session.url("/jobs"), {"task": "consensus", "n": 2, "k": 1}
        )
        return wait_final(session, job["id"])

    def test_submit_and_snapshot_roundtrip(self, session):
        status, job = post_json(
            session.url("/jobs"),
            {"task": "consensus", "n": 2, "k": 1, "seed": 7, "label": "x"},
        )
        assert status == 201
        assert job["state"] == "queued"
        assert job["spec"]["seed"] == 7  # provenance, recorded verbatim
        final = wait_final(session, job["id"])
        assert final["verdict"] == "proved"
        assert final["run_ids"], "run id recovered from the checkpoint"
        listing = get_json(session.url("/jobs"))["jobs"]
        assert [j["id"] for j in listing] == [job["id"]]

    def test_job_progress_carries_heartbeat_fields(self, session):
        _status, job = post_json(
            session.url("/jobs"),
            {"task": "set-consensus", "n": 2, "k": 1, "max_crashes": 2},
        )
        final = wait_final(session, job["id"])
        assert final["verdict"] == "proved"
        # The trace tail fed the snapshot: the walk's closing heartbeat
        # carries its final total however fast it ran.
        assert final["explore"]["executions"] == 14040
        assert final["trace_lines"] > 0

    def test_bad_specs_and_bodies_are_400(self, session):
        for payload in (
            {"task": "nope"},
            {"task": "consensus", "n": 0},
            {"task": "consensus", "bogus": 1},
        ):
            request = urllib.request.Request(
                session.url("/jobs"),
                data=json.dumps(payload).encode(),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400
        request = urllib.request.Request(
            session.url("/jobs"), data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert get_json(session.url("/jobs"))["jobs"] == []

    def test_unknown_routes_and_jobs_are_404(self, session):
        for path in ("/jobs/job-9999", "/nope", "/runs/zzz"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(session.url(path))
            assert excinfo.value.code == 404, path
            payload = json.loads(excinfo.value.read().decode())
            assert "error" in payload

    def test_runs_endpoint_filters_by_verdict(self, session):
        self.finished_job(session)
        proved = get_json(session.url("/runs?verdict=PROVED"))["runs"]
        assert len(proved) == 1
        assert get_json(session.url("/runs?verdict=refuted"))["runs"] == []
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(session.url("/runs?verdict=maybe"))
        assert excinfo.value.code == 400
        record = proved[0]
        shown = get_json(session.url(f"/runs/{record['run_id']}"))
        assert shown["run_id"] == record["run_id"]

    def test_all_responses_send_no_store(self, session):
        self.finished_job(session)
        for path in ("/", "/jobs", "/metrics", "/runs", "/witnesses"):
            _status, _body, headers = get(session.url(path))
            assert headers["Cache-Control"] == "no-store", path

    def test_dashboard_renders_jobs_runs_and_witnesses(self, session):
        final = self.finished_job(session)
        _status, html, _headers = get(session.url("/"))
        assert final["id"] in html
        assert "consensus(n=2, k=1" in html
        assert final["run_ids"][0] in html
        assert "1 done" in html

    def test_execset_stream_surfaced_in_metrics_and_dashboard(self, session):
        final = self.finished_job(session)
        runs = get_json(session.url("/runs"))["runs"]
        (record,) = [r for r in runs if r["run_id"] == final["run_ids"][-1]]
        digest = record["execset"]["digest"]
        assert len(digest) == 64
        # The worker's stream file sits in the job dir, one per attempt.
        assert record["execset"]["path"].endswith(
            f"{final['id']}/execset-1.jsonl"
        )
        _status, metrics, _headers = get(session.url("/metrics"))
        streams = prom_values(metrics, "repro_execset_streams")
        assert streams[""] == 1.0
        records_gauge = prom_values(metrics, "repro_execset_records")
        assert records_gauge[f'{{job="{final["id"]}"}}'] == float(
            record["execset"]["records"]
        )
        digest_info = prom_values(metrics, "repro_execset_digest_info")
        assert (
            f'{{job="{final["id"]}",digest="{digest[:16]}"}}' in digest_info
        )
        # The dashboard's recent-runs table shows the short digest.
        _status, html, _headers = get(session.url("/"))
        assert digest[:16] in html

    def test_sse_dump_ends_with_final_state(self, session):
        final = self.finished_job(session)
        _status, body, headers = get(
            session.url(f"/jobs/{final['id']}/events?follow=0")
        )
        assert headers["Content-Type"] == "text/event-stream"
        data_lines = [
            line for line in body.splitlines() if line.startswith("data: ")
        ]
        assert len(data_lines) > 2
        events = [json.loads(line[len("data: "):]) for line in data_lines[:-1]]
        assert any(e.get("event") == "schedule_explored" for e in events)
        assert "event: end" in body
        assert json.loads(data_lines[-1][len("data: "):])["verdict"] == "proved"

    def test_sse_dump_and_trace_tail_read_the_same_lines(self, session):
        from repro.obs.jobs import TraceTail

        final = self.finished_job(session)
        _status, body, _headers = get(
            session.url(f"/jobs/{final['id']}/events?follow=0")
        )
        streamed = [
            line[len("data: "):]
            for line in body.split("\n")
            if line.startswith("data: ")
        ][:-1]  # the last data line is the end frame's state
        paths = [
            os.path.join(final["job_dir"], f"trace-{attempt}.jsonl")
            for attempt in range(1, final["attempts"] + 1)
        ]
        on_disk = []
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                on_disk.extend(handle.read().splitlines())
        assert streamed == on_disk
        tail = TraceTail()
        tail.poll(paths)
        assert tail.snapshot()["trace_lines"] == len(streamed)
        snapshot = get_json(session.url(f"/jobs/{final['id']}"))
        assert snapshot["trace_lines"] == len(streamed)

    def test_witness_endpoints_serve_and_sanitize(self, session, tmp_path):
        from tests.integration.test_cli import TestWitnessAndExplain

        bundle = TestWitnessAndExplain.archive_bundle(
            session.manager.witness_dir
        )
        witness_id = os.path.basename(bundle)[: -len(".jsonl")]
        listing = get_json(session.url("/witnesses"))["witnesses"]
        assert [w["id"] for w in listing] == [witness_id]
        _status, raw, _headers = get(session.url(f"/witnesses/{witness_id}"))
        assert json.loads(raw.splitlines()[0])["format"] == "repro-witness/1"
        _status, lane, _headers = get(
            session.url(f"/witnesses/{witness_id}/lane")
        )
        assert 'class="lanes"' in lane
        assert witness_id in lane
        for evil in ("..%2F..%2Fetc%2Fpasswd", ".hidden", "no-such-bundle"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(session.url(f"/witnesses/{evil}"))
            assert excinfo.value.code == 404

    def test_close_drains_and_refuses_new_jobs(self, tmp_path):
        session = serve_service(str(tmp_path / "data"), max_workers=1)
        session.manager.drain(timeout=5)
        request = urllib.request.Request(
            session.url("/jobs"),
            data=json.dumps({"task": "consensus"}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 503
        session.close()
        session.close()  # idempotent


class TestJobRowRendering:
    """Dashboard job rows must render specs from any era (unit-level,
    no server needed)."""

    def snap(self, spec):
        return {
            "id": "j1",
            "spec": spec,
            "state": "done",
            "verdict": "proved",
            "attempts": 1,
        }

    def test_tolerates_spec_predating_recoveries(self):
        from repro.obs.service import _job_row

        row = _job_row(
            self.snap({"task": "consensus", "n": 2, "k": 1, "max_crashes": 1})
        )
        assert "consensus(n=2, k=1, f=1)" in row
        assert "r=" not in row

    def test_renders_recovery_budget_when_set(self):
        from repro.obs.service import _job_row

        row = _job_row(
            self.snap(
                {
                    "task": "consensus",
                    "n": 2,
                    "k": 1,
                    "max_crashes": 1,
                    "max_recoveries": 1,
                }
            )
        )
        assert "consensus(n=2, k=1, f=1, r=1)" in row
