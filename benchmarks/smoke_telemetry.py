"""Live telemetry plane smoke: ``repro run --monitor-port`` + /metrics scrape.

CI-facing end-to-end check of the observability stack on a serial run:

1. runs ``repro run`` (two runs of the ``cep`` evaluation bioassay) with
   tracing, a journal and a live monitor endpoint on a free port;
2. a scraper thread hits ``/metrics`` throughout the run, and every scrape
   must parse as OpenMetrics;
3. some scrape taken mid-run must show the scheduler and synthesis
   counters moving (``repro_scheduler_cycles_total``,
   ``repro_synthesis_count_total``);
4. the journal must hold ``synthesis`` events, and the Chrome/Perfetto
   trace exported to ``obs-artifacts/`` must parent every
   ``synthesis.solve`` span under an ``rj.plan`` span.

Exits nonzero on any violated expectation.  Run with
``PYTHONPATH=src python benchmarks/smoke_telemetry.py``.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT_DIR = REPO_ROOT / "obs-artifacts"

from repro.cli import main as repro_main  # noqa: E402
from repro.obs.journal import read_journal  # noqa: E402
from repro.obs.openmetrics import parse_openmetrics  # noqa: E402

WATCHED = ("repro_scheduler_cycles_total", "repro_synthesis_count_total")


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Scraper(threading.Thread):
    """Polls /metrics for the whole run; every response must parse.

    Connection errors before the first scrape mean the endpoint is not
    up yet; after it, they mean the run finished and the endpoint closed.
    """

    def __init__(self, url: str) -> None:
        super().__init__(name="smoke-scraper", daemon=True)
        self.url = url
        self.stop_event = threading.Event()
        self.scrapes = 0
        self.peak = dict.fromkeys(WATCHED, 0.0)
        self.error: "str | None" = None

    def run(self) -> None:
        while not self.stop_event.wait(0.05):
            try:
                with urllib.request.urlopen(
                    f"{self.url}/metrics", timeout=10
                ) as response:
                    body = response.read().decode()
            except OSError:
                if self.scrapes:
                    return
                continue
            try:
                samples = parse_openmetrics(body)
            except ValueError as exc:
                self.error = f"scrape #{self.scrapes + 1} did not parse: {exc}"
                return
            self.scrapes += 1
            for name in WATCHED:
                self.peak[name] = max(self.peak[name], samples.get(name, 0.0))


def fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def main() -> int:
    ARTIFACT_DIR.mkdir(exist_ok=True)
    journal_path = ARTIFACT_DIR / "smoke_telemetry.journal.jsonl"
    trace_path = ARTIFACT_DIR / "smoke_telemetry.trace.json"

    port = free_port()
    scraper = Scraper(f"http://127.0.0.1:{port}")
    scraper.start()
    try:
        code = repro_main([
            "run", "--bioassay", "cep", "--seed", "0", "--runs", "2",
            "--max-cycles", "2000",
            "--monitor-port", str(port),
            "--trace", str(trace_path), "--journal", str(journal_path),
        ])
    finally:
        scraper.stop_event.set()
        scraper.join(timeout=10)
    if code != 0:
        return fail(f"repro run exited {code}")
    if scraper.error is not None:
        return fail(scraper.error)
    if scraper.scrapes == 0:
        return fail("scraper never completed a scrape during the run")
    print(f"scrapes: {scraper.scrapes}, peak counters {scraper.peak}")
    for name, value in scraper.peak.items():
        if value <= 0:
            return fail(f"{name} never moved in a mid-run scrape")

    records = read_journal(journal_path)
    syntheses = [r for r in records if r["event"] == "synthesis"]
    if not syntheses:
        return fail("journal has no synthesis events")
    print(f"journal: {len(records)} events, {len(syntheses)} synthesis")

    events = json.loads(trace_path.read_text())["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    if not any(e["name"] == "synthesis.solve" for e in spans):
        return fail("trace has no synthesis.solve spans")
    spans_path = Path(f"{trace_path}.spans.jsonl")
    records = [json.loads(line) for line in spans_path.read_text().splitlines()]
    names = {r["id"]: r["name"] for r in records}
    solves = [r for r in records if r["name"] == "synthesis.solve"]
    orphans = [r for r in solves if names.get(r["parent"]) != "rj.plan"]
    if orphans:
        return fail(f"{len(orphans)}/{len(solves)} synthesis.solve spans "
                    "are not parented under rj.plan")
    print(f"trace: {len(solves)} synthesis.solve spans under rj.plan "
          f"-> {trace_path}")

    print("PASS: live telemetry smoke")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
