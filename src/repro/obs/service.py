"""``repro serve``: the standing multi-run verdict service.

``repro serve`` is a daemon that *owns* runs rather than watching one.
Exploration jobs arrive over HTTP, execute in supervised subprocess
workers (:mod:`repro.obs.jobs`), survive worker crashes via automatic
checkpoint resume, and leave their ledger records, witness bundles and
traces under one ``--data-dir`` that the read side serves back out.

Endpoints
---------
``GET /``
    Self-contained HTML dashboard: job table (state, verdict, attempts,
    progress), recent ledger rows with their execution-set digests,
    witness index.  Plain refreshable HTML — no JavaScript framework;
    with the lane page below, the toolchain's only HTML.
``POST /jobs``
    Submit a job.  Body: JSON object with ``task`` (an explore task
    name), ``n``, ``k``, ``max_crashes``, ``max_depth``, ``deadline``,
    ``max_steps``, ``checkpoint_every``, ``seed`` (recorded provenance
    for future randomized schedulers), ``label``.  Returns 201 with the
    job snapshot, 400 on a bad spec, 503 while draining.
``GET /jobs`` / ``GET /jobs/<id>``
    Queue listing / one job's full status: state, attempts, resume
    chain (``run_ids``), exit codes, and the worker's latest
    ``explore_heartbeat`` (executions, rate, coverage, ETA) tailed from
    its trace file.
``GET /jobs/<id>/events``
    The worker's JSONL trace as Server-Sent Events (``text/event-stream``;
    one ``data:`` line per bus event).  ``?follow=0`` dumps what exists
    and closes (CI-friendly); the default follows until the job reaches
    a final state.
``GET /metrics``
    Daemon-wide Prometheus text: uptime, jobs per state, per-job
    executions/rate gauges, ledger verdict tallies, witness count, and
    ``repro_execset_*`` gauges (streams, records, digest labels) peeked
    from each job's newest execution-set file.
``GET /runs`` / ``GET /runs/<id>``
    The daemon's ledger as JSON; ``?verdict=PROVED`` filters (same
    vocabulary as ``repro runs list --verdict``).
``GET /witnesses`` / ``/witnesses/<id>`` / ``/witnesses/<id>/lane``
    Witness index, raw ``repro-witness/1`` bundle, and the HTML lane
    view of :func:`lanes_page` (the :mod:`repro.obs.explain` lanes).

Handlers run on daemon threads and only ever read snapshots or files —
never a lock a worker holds — so a slow dashboard cannot stall an
exploration.
"""

from __future__ import annotations

import json
import os
import threading
import time
from html import escape
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import ProtocolError
from repro.fsutil import LineTail
from repro.obs import execset as _execset
from repro.obs import explain as _explain
from repro.obs import ledger as _ledger
from repro.obs import witness as _witness
from repro.obs.jobs import FINAL_STATES, JobManager
from repro.obs.report import BASE_CSS, html_page

#: How long a followed SSE stream sleeps between trace polls.
SSE_POLL_INTERVAL = 0.25
#: A followed SSE stream gives up after this long without the job
#: finishing (belt and braces against orphaned client connections).
SSE_MAX_FOLLOW = 3600.0


def _witness_path(witness_dir: str, witness_id: str) -> Optional[str]:
    """Resolve ``/witnesses/<id>`` to a file, refusing path escapes.

    The id must be a plain bundle filename (with or without the
    ``.jsonl`` suffix) living directly in the witness directory —
    separators, ``..`` and symlinked escapes all resolve to ``None``.
    """
    name = witness_id if witness_id.endswith(".jsonl") else witness_id + ".jsonl"
    if os.path.basename(name) != name or name.startswith("."):
        return None
    path = os.path.join(witness_dir, name)
    base = os.path.realpath(witness_dir)
    if os.path.commonpath([os.path.realpath(path), base]) != base:
        return None
    return path if os.path.isfile(path) else None


def _list_witnesses(witness_dir: str) -> List[Dict[str, Any]]:
    entries = []
    try:
        names = sorted(os.listdir(witness_dir))
    except OSError:
        return []
    for name in names:
        if not name.endswith(".jsonl"):
            continue
        path = os.path.join(witness_dir, name)
        try:
            size = os.path.getsize(path)
        except OSError:
            continue
        entries.append({"id": name[: -len(".jsonl")], "bytes": size})
    return entries


def _job_execset_footers(manager: JobManager) -> List[Tuple[str, Dict[str, Any]]]:
    """``(job_id, footer)`` for each job's newest execution-set stream.

    Peeks footers (:func:`repro.obs.execset.peek_footer`) rather than
    parsing whole files — a dashboard refresh must stay cheap even when
    jobs explored millions of executions.  Jobs whose workers predate
    the execset format, or whose stream is not written yet (streams
    appear whole, see :func:`repro.fsutil.write_atomic`), are absent.
    """
    out: List[Tuple[str, Dict[str, Any]]] = []
    for job in manager.list_jobs():
        attempts = int(job.get("attempts", 0) or 0)
        for attempt in range(attempts, 0, -1):
            path = os.path.join(
                manager.jobs_dir, job["id"], f"execset-{attempt}.jsonl"
            )
            footer = _execset.peek_footer(path)
            if footer is not None:
                out.append((job["id"], footer))
                break
    return out


def render_service_metrics(manager: JobManager) -> str:
    """Daemon-wide Prometheus text exposition.

    Hand-rendered rather than going through the process-global
    :class:`MetricsRegistry`: the work happens in *subprocesses*, so the
    daemon aggregates from its own job table and ledger instead of
    in-process counters.
    """
    lines: List[str] = []

    def gauge(name: str, help_text: str, samples: List[Tuple[str, Any]]) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} gauge")
        for labels, value in samples:
            lines.append(f"{name}{labels} {value}")

    gauge(
        "repro_service_uptime_seconds",
        "Seconds since the daemon started.",
        [("", round(time.time() - manager.started_at, 3))],
    )
    states, job_verdicts = manager.counts()
    gauge(
        "repro_service_jobs",
        "Jobs per lifecycle state.",
        [(f'{{state="{state}"}}', count) for state, count in sorted(states.items())],
    )
    if job_verdicts:
        gauge(
            "repro_service_job_verdicts",
            "Finished jobs per verdict.",
            [
                (f'{{verdict="{verdict}"}}', count)
                for verdict, count in sorted(job_verdicts.items())
            ],
        )
    executions: List[Tuple[str, Any]] = []
    rates: List[Tuple[str, Any]] = []
    for job in manager.list_jobs():
        snap = manager.job_snapshot(job["id"]) or {}
        explore = snap.get("explore") or {}
        if "executions" in explore:
            executions.append(
                (f'{{job="{job["id"]}"}}', explore["executions"])
            )
        if "rate" in explore:
            rates.append((f'{{job="{job["id"]}"}}', explore["rate"]))
    if executions:
        gauge(
            "repro_service_job_executions",
            "Maximal executions explored, per job (latest heartbeat).",
            executions,
        )
    if rates:
        gauge(
            "repro_service_job_rate",
            "Executions per second, per job (latest heartbeat).",
            rates,
        )
    records, skipped = manager.read_ledger()
    tallies: Dict[str, int] = {}
    for record in records:
        verdict = str(record.get("verdict", "error"))
        tallies[verdict] = tallies.get(verdict, 0) + 1
    gauge(
        "repro_service_runs_total",
        "Ledger records per verdict (every worker attempt that finished).",
        [
            (f'{{verdict="{verdict}"}}', count)
            for verdict, count in sorted(tallies.items())
        ]
        or [('{verdict="proved"}', 0)],
    )
    gauge(
        "repro_service_ledger_corrupt_lines",
        "Ledger lines skipped as corrupt.",
        [("", skipped)],
    )
    gauge(
        "repro_service_witnesses",
        "Witness bundles archived under the data dir.",
        [("", len(_list_witnesses(manager.witness_dir)))],
    )
    execsets = _job_execset_footers(manager)
    gauge(
        "repro_execset_streams",
        "Jobs with a completed execution-set digest stream.",
        [("", len(execsets))],
    )
    if execsets:
        record_samples: List[Tuple[str, Any]] = []
        digest_samples: List[Tuple[str, Any]] = []
        for job_id, footer in execsets:
            total = footer.get("total_records", footer.get("records", 0))
            record_samples.append((f'{{job="{job_id}"}}', total))
            digest = _execset.short_digest(
                footer.get("merged_digest") or footer.get("digest")
            )
            digest_samples.append(
                (f'{{job="{job_id}",digest="{digest}"}}', 1)
            )
        gauge(
            "repro_execset_records",
            "Distinct final configurations in the job's newest execset stream "
            "(including any resumed-from base).",
            record_samples,
        )
        gauge(
            "repro_execset_digest_info",
            "Execution-set digest per job; the digest is the label, the "
            "value is always 1.",
            digest_samples,
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------
_DASH_CSS = (
    BASE_CSS
    + """
.state-queued { color: #777; } .state-running { color: #1565c0; }
.state-done { color: #2e7d32; } .state-error { color: #c62828; }
.state-interrupted { color: #e65100; }
code { background: #f4f4f6; padding: .05rem .3rem; border-radius: 3px; }
"""
)


def _job_row(snap: Dict[str, Any]) -> str:
    spec = snap.get("spec", {})
    describe = "{task}(n={n}, k={k}, f={f})".format(
        task=spec.get("task", "?"),
        n=spec.get("n", "?"),
        k=spec.get("k", "?"),
        f=spec.get("max_crashes", 0),
    )
    # .get() keeps job records from before the crash-recovery model
    # rendering; the budget shows only when a job actually set it.
    if spec.get("max_recoveries"):
        describe = describe[:-1] + f", r={spec['max_recoveries']})"
    explore = snap.get("explore") or {}
    progress = ""
    if "executions" in explore:
        progress = f"{explore['executions']} execs"
        if "rate" in explore:
            progress += f" @ {explore['rate']:.0f}/s"
        if "coverage" in explore:
            progress += f", {100 * explore['coverage']:.0f}%"
    state = escape(str(snap.get("state", "?")))
    verdict = escape(str(snap.get("verdict", "")))
    return (
        "<tr>"
        f"<td><a href=\"/jobs/{escape(snap['id'])}\">{escape(snap['id'])}</a></td>"
        f"<td>{escape(describe)}</td>"
        f"<td class=\"state-{state}\">{state}</td>"
        f"<td>{verdict or '—'}</td>"
        f"<td class=\"num\">{snap.get('attempts', 0)}</td>"
        f"<td>{escape(progress) or '—'}</td>"
        "</tr>"
    )


def render_dashboard(manager: JobManager) -> str:
    """The ``GET /`` page: jobs, recent runs, witnesses — one HTML file."""
    jobs = [manager.job_snapshot(j["id"]) or j for j in manager.list_jobs()]
    records, skipped = manager.read_ledger()
    witnesses = _list_witnesses(manager.witness_dir)
    states, _ = manager.counts()
    parts: List[str] = [
        "<h1>repro serve</h1>",
        '<p class="muted">'
        + escape(
            ", ".join(f"{count} {state}" for state, count in sorted(states.items()) if count)
            or "no jobs yet"
        )
        + " · <code>POST /jobs</code> to submit · "
        '<a href="/metrics">metrics</a> · <a href="/runs">runs</a></p>',
        "<h2>Jobs</h2>",
    ]
    if jobs:
        parts.append(
            "<table><tr><th>job</th><th>instance</th><th>state</th>"
            "<th>verdict</th><th class=\"num\">attempts</th><th>progress</th></tr>"
        )
        parts.extend(_job_row(snap) for snap in jobs)
        parts.append("</table>")
    else:
        parts.append('<p class="muted">none — submit one:</p>')
        parts.append(
            "<pre><code>curl -X POST localhost:PORT/jobs -d "
            "'{\"task\": \"consensus\", \"n\": 2, \"k\": 1}'</code></pre>"
        )
    parts.append("<h2>Recent runs</h2>")
    if records:
        parts.append(
            "<table><tr><th>run id</th><th>command</th><th>verdict</th>"
            "<th class=\"num\">executions</th><th>execset</th><th>resumes</th></tr>"
        )
        for record in records[-15:]:
            verdict = str(record.get("verdict", "?"))
            cls = "ok" if verdict == "proved" else ("bad" if verdict == "error" else "")
            execset_note = record.get("execset")
            digest = _execset.short_digest(
                execset_note.get("digest") if isinstance(execset_note, dict) else None
            )
            parts.append(
                "<tr>"
                f"<td><code>{escape(str(record.get('run_id', '?')))}</code></td>"
                f"<td>{escape(str(record.get('command', '?')))}</td>"
                f"<td class=\"{cls}\">{escape(verdict)}</td>"
                f"<td class=\"num\">{escape(str(record.get('executions', '—')))}</td>"
                f"<td><code>{escape(digest)}</code></td>"
                f"<td>{escape(str(record.get('parent_run_id', '') or '—'))}</td>"
                "</tr>"
            )
        parts.append("</table>")
        if skipped:
            parts.append(
                f'<p class="bad">{skipped} corrupt ledger line(s) skipped</p>'
            )
    else:
        parts.append('<p class="muted">ledger is empty</p>')
    parts.append("<h2>Witnesses</h2>")
    if witnesses:
        parts.append("<ul>")
        for entry in witnesses:
            wid = escape(entry["id"])
            parts.append(
                f'<li><code>{wid}</code> ({entry["bytes"]} bytes) — '
                f'<a href="/witnesses/{wid}">raw</a> · '
                f'<a href="/witnesses/{wid}/lane">lane view</a></li>'
            )
        parts.append("</ul>")
    else:
        parts.append('<p class="muted">none captured yet</p>')
    parts.append(
        '<p class="muted">Live snapshot — refresh for updates. '
        "See docs/SERVICE.md for the full API.</p>"
    )
    return html_page("repro serve", _DASH_CSS, "\n".join(parts))


# ----------------------------------------------------------------------
# Witness lane page
# ----------------------------------------------------------------------
LANES_CSS = """
table.lanes { border-collapse: collapse; font-family: ui-monospace,
              SFMono-Regular, Menlo, monospace; font-size: .8rem; }
table.lanes th, table.lanes td { border: 1px solid #e0e0e0;
              padding: .15rem .5rem; text-align: left; }
table.lanes th { background: #f5f5f7; }
table.lanes td.idle { color: #ccc; text-align: center; }
table.lanes td.gone { background: #fafafa; }
table.lanes td.crash { background: #fdecea; color: #c62828;
              font-weight: 600; }
table.lanes td.recover { background: #e8f5e9; color: #2e7d32;
              font-weight: 600; }
table.lanes td.op { background: #eef3fb; }
table.lanes tr.outcome td { border-top: 2px solid #bbb;
              font-weight: 600; }
"""


def lanes_html(view: _explain.WitnessView) -> str:
    """The lane diagram as an embeddable ``<table class="lanes">``.

    Pure CSS (styles in :data:`LANES_CSS`), no scripts — interactivity
    is the browser's own hover/selection over a real table, keeping
    the page dependency-free and safe to mail around.
    """
    pids = view.pids or sorted({v.pid for v in view.views})
    out = [
        '<table class="lanes">',
        "<tr><th>#</th>"
        + "".join(f"<th>p{pid}</th>" for pid in pids)
        + "</tr>",
    ]
    crashed: set = set()
    for index, event in enumerate(view.views):
        row = [f"<tr><td>{index}</td>"]
        for pid in pids:
            if pid == event.pid:
                if event.kind == "crash":
                    row.append('<td class="crash">CRASH</td>')
                elif event.kind == "recover":
                    row.append('<td class="recover">RECOVER</td>')
                else:
                    row.append(f'<td class="op">{escape(event.cell())}</td>')
            elif pid in crashed:
                row.append('<td class="gone"></td>')
            else:
                row.append('<td class="idle">·</td>')
        row.append("</tr>")
        out.append("".join(row))
        if event.kind == "crash":
            crashed.add(event.pid)
        elif event.kind == "recover":
            crashed.discard(event.pid)
    outcome = ['<tr class="outcome"><td></td>']
    for pid in pids:
        if pid in view.outputs:
            outcome.append(f"<td>=&gt; {escape(view.outputs[pid])}</td>")
        else:
            outcome.append(f"<td>({escape(view.statuses.get(pid, '?'))})</td>")
    outcome.append("</tr>")
    out.append("".join(outcome))
    out.append("</table>")
    return "\n".join(out)


def lanes_page(view: _explain.WitnessView, title: str) -> str:
    """A standalone HTML page around :func:`lanes_html` (the
    ``GET /witnesses/<id>/lane`` view)."""
    return html_page(
        title, LANES_CSS, f"<h1>{escape(title)}</h1>\n" + lanes_html(view)
    )


# ----------------------------------------------------------------------
# The handler
# ----------------------------------------------------------------------
class ServiceHandler(BaseHTTPRequestHandler):
    """Routes the service API.  The server object carries the manager
    (set by :class:`ServiceSession`).

    Every response carries ``Cache-Control: no-store``: these are live
    snapshots, and a proxy replaying yesterday's frontier would be worse
    than an error.
    """

    server_version = "repro-serve/1"

    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    # -- responses -----------------------------------------------------
    def _send_json(self, payload: Dict[str, Any], status: int = 200) -> None:
        self._send_text(
            json.dumps(payload, default=repr, indent=2) + "\n",
            "application/json",
            status=status,
        )

    def _send_json_error(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _send_text(
        self, body: str, content_type: str, status: int = 200
    ) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # keep the daemon's stdout/stderr clean

    # -- POST ----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 — http.server API
        parsed = urlparse(self.path)
        if parsed.path != "/jobs":
            self._send_json_error(404, "POST is only accepted on /jobs")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except ValueError:
            self._send_json_error(400, "request body is not valid JSON")
            return
        try:
            snapshot = self.manager.submit(payload)
        except ValueError as error:
            self._send_json_error(400, str(error))
            return
        except RuntimeError as error:
            self._send_json_error(503, str(error))
            return
        self._send_json(snapshot, status=201)

    # -- GET -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        parts = [p for p in parsed.path.split("/") if p]
        try:
            if parsed.path == "/":
                self._send_text(
                    render_dashboard(self.manager),
                    "text/html; charset=utf-8",
                )
            elif parsed.path == "/jobs":
                self._send_json({"jobs": self.manager.list_jobs()})
            elif parts[0] == "jobs" and len(parts) == 2:
                self._get_job(parts[1])
            elif parts[0] == "jobs" and len(parts) == 3 and parts[2] == "events":
                self._stream_job_events(parts[1], query)
            elif parsed.path == "/metrics":
                self._send_text(
                    render_service_metrics(self.manager),
                    "text/plain; version=0.0.4",
                )
            elif parsed.path == "/runs":
                self._get_runs(query)
            elif parts[0] == "runs" and len(parts) == 2:
                self._get_run(parts[1])
            elif parsed.path == "/witnesses":
                self._send_json(
                    {"witnesses": _list_witnesses(self.manager.witness_dir)}
                )
            elif parts[0] == "witnesses" and len(parts) == 2:
                self._get_witness(parts[1], lane=False)
            elif parts[0] == "witnesses" and len(parts) == 3 and parts[2] == "lane":
                self._get_witness(parts[1], lane=True)
            else:
                self._send_json_error(
                    404,
                    "unknown endpoint (try /, /jobs, /metrics, /runs, /witnesses)",
                )
        except BrokenPipeError:
            pass  # client went away mid-response; nothing to clean up

    def _get_job(self, job_id: str) -> None:
        snapshot = self.manager.job_snapshot(job_id)
        if snapshot is None:
            self._send_json_error(404, f"no job {job_id!r}")
            return
        self._send_json(snapshot)

    def _get_runs(self, query: Dict[str, List[str]]) -> None:
        records, skipped = self.manager.read_ledger()
        verdict = query.get("verdict", [None])[0]
        if verdict is not None:
            try:
                records = _ledger.filter_by_verdict(records, verdict)
            except ValueError as error:
                self._send_json_error(400, str(error))
                return
        self._send_json({"runs": records, "corrupt_lines": skipped})

    def _get_run(self, run_id: str) -> None:
        records, _skipped = self.manager.read_ledger()
        try:
            record = _ledger.find_record(records, run_id)
        except ValueError as error:
            self._send_json_error(404, str(error))
            return
        self._send_json(record)

    def _get_witness(self, witness_id: str, lane: bool) -> None:
        path = _witness_path(self.manager.witness_dir, witness_id)
        if path is None:
            self._send_json_error(404, f"no witness {witness_id!r}")
            return
        if not lane:
            with open(path, "r", encoding="utf-8") as handle:
                self._send_text(handle.read(), "application/jsonl")
            return
        records, _skipped = _witness.read_witness(path)
        if not records:
            self._send_json_error(404, f"witness {witness_id!r} is empty")
            return
        try:
            view = _explain.view_from_record(records[0])
        except ProtocolError as error:
            self._send_json_error(422, str(error))
            return
        self._send_text(
            lanes_page(view, title=f"witness {witness_id}"),
            "text/html; charset=utf-8",
        )

    # -- SSE -----------------------------------------------------------
    def _stream_job_events(
        self, job_id: str, query: Dict[str, List[str]]
    ) -> None:
        """``GET /jobs/<id>/events``: the worker trace as SSE.

        Reads the job's per-attempt trace files directly (complete lines
        only), so the stream works on a job that already finished and
        never touches worker state.  With ``follow`` (the default) it
        polls until the job reaches a final state; ``?follow=0`` dumps
        and closes.
        """
        snapshot = self.manager.job_snapshot(job_id)
        if snapshot is None:
            self._send_json_error(404, f"no job {job_id!r}")
            return
        follow = query.get("follow", ["1"])[0] not in ("0", "false", "no")
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        tail = LineTail()
        deadline = time.monotonic() + SSE_MAX_FOLLOW
        while True:
            snapshot = self.manager.job_snapshot(job_id) or {}
            traces = [
                os.path.join(snapshot.get("job_dir", ""), f"trace-{a}.jsonl")
                for a in range(1, snapshot.get("attempts", 0) + 1)
            ]
            wrote = False
            for line in tail.read(traces):
                self.wfile.write(b"data: " + line + b"\n\n")
                wrote = True
            if wrote:
                self.wfile.flush()
            final = snapshot.get("state") in FINAL_STATES
            if not follow or final or time.monotonic() > deadline:
                self.wfile.write(
                    b"event: end\ndata: "
                    + json.dumps(
                        {
                            "state": snapshot.get("state"),
                            "verdict": snapshot.get("verdict"),
                        }
                    ).encode("utf-8")
                    + b"\n\n"
                )
                self.wfile.flush()
                return
            time.sleep(SSE_POLL_INTERVAL)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class ServiceSession:
    """A running ``repro serve`` daemon: HTTP server plus job manager."""

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.manager = manager
        self._server = ThreadingHTTPServer((host, port), ServiceHandler)
        self._server.daemon_threads = True
        self._server.manager = manager  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._closed = False

    def start(self) -> "ServiceSession":
        self._thread.start()
        return self

    def close(self, drain_timeout: float = 15.0) -> None:
        """Drain the job manager, then stop the HTTP server.  Idempotent.

        Order matters: draining first means a client polling ``/jobs``
        watches its jobs flip to INTERRUPTED before the socket dies.
        """
        if self._closed:
            return
        self._closed = True
        self.manager.drain(timeout=drain_timeout)
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    # -- addressing ----------------------------------------------------
    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    def url(self, path: str = "/") -> str:
        return f"http://{self.host}:{self.port}{path}"


def serve_service(
    data_dir: str,
    host: str = "127.0.0.1",
    port: int = 0,
    max_workers: int = 2,
    max_retries: int = 2,
    worker_prefix: Optional[List[str]] = None,
) -> ServiceSession:
    """Start the daemon; returns the session (caller must ``close()``).

    ``port=0`` binds an ephemeral port, read back from ``session.port``.
    ``worker_prefix`` overrides the worker command for tests.
    """
    manager = JobManager(
        data_dir,
        max_workers=max_workers,
        max_retries=max_retries,
        worker_prefix=worker_prefix,
    )
    return ServiceSession(manager, host=host, port=port).start()
