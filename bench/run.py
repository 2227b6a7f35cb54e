#!/usr/bin/env python3
"""rposcan benchmark: three workloads through the public entry points.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):

- ``matrix-loopback``: every fixture-matrix config brought up with ``serve()``
  and scanned by ``scan_page`` + ``verify_exploitable`` over loopback HTTP
  through ``RateLimitedClient(RequestsClient)`` at 25 ms per host, then shut
  down; the path of acceptance criterion 5.
- ``seed-inproc``: ``run_scan`` over a seed file of every config copied onto
  many hosts, answered by ``InProcessClient`` with no pacing.
- ``seed-paced``: the same kind of seed file, one host per config, 20 ms per
  host.

A run scans whole rounds until ``--seconds`` have passed.  Set-up (import of
every rposcan module, profile load, answer key, inputs) is timed several times
across the run.  Every verdict is checked against the answer key.  The last line of standard output is one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics from a traced
second half of the run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import string
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("matrix-loopback", "seed-inproc", "seed-paced")
LAYERS = ("urls", "payloads", "mutations", "pages", "rendering", "css_recovery",
          "scanning", "httpclient", "mock_target", "reports")

MATRIX_DELAY = 0.025  # the acceptance suite's per-host delay
PACED_DELAY = 0.020
INPROC_COPIES = 20  # 58 configs x 20 hosts = 1160 pages per round
PACED_COPIES = 1
SETUP_REPEATS = 15
# single process, no more scanning threads than CPUs (capped at 4)
WORKERS = max(1, min(4, len(os.sched_getaffinity(0))))

END_TO_END_UNITS = {
    "setup_s": "s",
    "pages_per_s": "1/s",
    "requests_per_page": "req/page",
    "cpu_ms_per_page": "ms/page",
    "peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "urls.serialize_url.calls_per_page": "calls/page",
    "payloads.find_reflection.us_per_call": "us",
    "mutations.mutate.us_per_call": "us",
    "mutations.expand_stylesheet_targets.us_per_call": "us",
    "pages.analyze_html.calls_per_page": "calls/page",
    "pages.analyze_html.us_per_call": "us",
    "pages.group_candidates.ms": "ms",
    "css_recovery.css_would_fire.calls_per_page": "calls/page",
    "css_recovery.css_would_fire.us_per_call": "us",
    "css_recovery.tokenize.us_per_call": "us",
    "css_recovery.bytes_per_page": "B/page",
    "scanning.probe_requests_per_page": "req/page",
    "scanning.verify_requests_per_page": "req/page",
    "scanning.scan_page.ms_p50": "ms",
    "scanning.verify_exploitable.ms_p50": "ms",
    "scanning.self_ms_per_page": "ms/page",
    "httpclient.fetch_p50_ms": "ms",
    "httpclient.fetch_p95_ms": "ms",
    "httpclient.response_kib_per_page": "KiB/page",
    "httpclient.pacing_wait_s_per_page": "s/page",
    "httpclient.short_gaps": "count",
    "mock_target.handle_request.us_per_call": "us",
    "mock_target.serve_ms": "ms",
    "mock_target.shutdown_ms": "ms",
    "reports.run_scan.self_ms_per_page": "ms/page",
    "tracing.pages_per_s_untraced": "1/s",
    "tracing.pages_per_s_traced": "1/s",
    "tracing.overhead_pct": "%",
}


# --- set-up ---


def import_program() -> SimpleNamespace:
    """Import every rposcan module afresh, so each set-up pays for it."""
    for name in [n for n in sys.modules if n == "rposcan" or n.startswith("rposcan.")]:
        del sys.modules[name]
    program = SimpleNamespace(
        **{layer: importlib.import_module(f"rposcan.{layer}") for layer in LAYERS}
    )
    package_dir = Path(sys.modules["rposcan"].__file__).resolve().parent
    if package_dir != (SRC / "rposcan").resolve():
        raise SystemExit(f"imported rposcan from {package_dir}, not from {SRC}")
    return program


@dataclass
class Inputs:
    """Everything a round needs, made at set-up from the workload seed."""

    program: SimpleNamespace
    targets: list  # TargetConfig, in scan order
    truth: dict  # config name -> GroundTruth
    delay: float
    scan_config: object
    seed_file: str | None = None
    cookie_file: str | None = None
    config_of_host: dict = field(default_factory=dict)  # scanned host -> config name
    blocked_hosts: set = field(default_factory=set)
    client: object = None  # InProcessClient for the seed workloads


def _label(rng: random.Random) -> str:
    return "".join(rng.choices(string.ascii_lowercase + string.digits, k=10))


def setup(workload: str, seed: int, workdir: Path) -> Inputs:
    program = import_program()
    mock, rendering = program.mock_target, program.rendering
    profiles = rendering.default_profiles()
    targets = [config for config, _ in mock.fixture_matrix(profiles)]
    truth = {
        config.name: mock.compute_ground_truth(config, rendering.default_profiles())
        for config in targets
    }
    rng = random.Random(seed)
    rng.shuffle(targets)
    if workload == "matrix-loopback":
        scan_config = program.scanning.ScanConfig(
            per_host_delay=MATRIX_DELAY, profiles=tuple(profiles), request_timeout=5.0
        )
        return Inputs(program, targets, truth, MATRIX_DELAY, scan_config)

    copies, delay = (INPROC_COPIES, 0.0) if workload == "seed-inproc" else (PACED_COPIES, PACED_DELAY)
    scan_config = program.scanning.ScanConfig(
        per_host_delay=delay, max_concurrent_hosts=WORKERS, profiles=tuple(profiles)
    )
    inputs = Inputs(program, targets, truth, delay, scan_config)
    hosts = {}
    seed_lines = []
    cookie_lines = []
    for config in targets:
        for _ in range(copies):
            host = f"{_label(rng)}.{rng.choice(('test', 'example', 'invalid'))}"
            if rng.random() < 0.5:
                host = "www." + host
            hosts[host] = config
            inputs.config_of_host[host] = config.name
            seed_lines.append(str(config.seed_url(f"http://{host}")))
            if config.seed_cookies:
                pairs = ";".join(f"{k}={v}" for k, v in config.seed_cookies.items())
                cookie_lines.append(f"{host}\t{pairs}")
    # hosts the blocklist must stop; they would answer if a request got through
    for suffix in scan_config.blocked_suffixes:
        host = f"{_label(rng)}{suffix}"
        hosts[host] = targets[0]
        inputs.blocked_hosts.add(host)
        seed_lines.append(str(targets[0].seed_url(f"http://{host}")))
    rng.shuffle(seed_lines)
    inputs.seed_file = str(workdir / "seeds.txt")
    inputs.cookie_file = str(workdir / "cookies.txt")
    Path(inputs.seed_file).write_text(
        "".join(f"{url}\t{rank}\n" for rank, url in enumerate(seed_lines, 1))
    )
    Path(inputs.cookie_file).write_text("".join(line + "\n" for line in cookie_lines))
    inputs.client = mock.InProcessClient(hosts)
    return inputs


# --- rounds ---


@dataclass
class Round:
    """What one round did; the exchange log itself is not kept, so memory
    does not grow with the number of rounds."""

    pages: int
    pages_failed: int
    wall_s: float
    cpu_s: float
    requests: int
    requests_failed: int
    short_gaps: int
    problems: list


def _finish_round(inputs: Inputs, pages: int, failed: int, wall: float, cpu: float,
           exchanges: list, problems: list) -> Round:
    problems += checks.exchange_problems(exchanges, inputs.scan_config.blocked_suffixes)
    return Round(pages, failed, wall, cpu, len(exchanges),
                 sum(1 for x in exchanges if x.status is None),
                 checks.short_gaps(exchanges, inputs.delay), problems)


def matrix_round(inputs: Inputs, tracer) -> Round:
    """Acceptance criterion 5's path: serve, scan, verify, shut down."""
    program = inputs.program
    scanning, mock = program.scanning, program.mock_target
    base = checks.ObservedClient(program.httpclient.RequestsClient(timeout=5), tracer)
    limiter = program.httpclient.RateLimitedClient
    if tracer is not None:
        limiter = tracing.traced_rate_limiter(tracer, limiter)
    client = limiter(base, inputs.delay)
    problems, failed = [], 0
    started, cpu = time.perf_counter(), time.process_time()
    for target in inputs.targets:
        if tracer is not None:
            tracer.page = target.name  # spans on the server's handler threads
        with tracing.maybe_span(tracer, "mock_target.serve", target.name):
            handle = mock.serve(target, port=0)
        try:
            seed = target.seed_url(f"http://127.0.0.1:{handle.port}")
            with tracing.maybe_span(tracer, "scanning.scan_page", target.name):
                verdict = scanning.scan_page(seed, target.seed_cookies, client, inputs.scan_config)
            with tracing.maybe_span(tracer, "scanning.verify_exploitable", target.name):
                verdict = scanning.verify_exploitable(verdict, client, inputs.scan_config)
        finally:
            with tracing.maybe_span(tracer, "mock_target.shutdown", target.name):
                handle.shutdown()
        problems += [f"{target.name}: {p}"
                     for p in mock.verdict_matches_truth(verdict, inputs.truth[target.name])]
        problems += checks.status_problems(
            verdict.status.value, [r.exploitable for r in verdict.profile_results.values()],
            target.name)
        if verdict.reason is scanning.NotVulnerableReason.FETCH_FAILED:
            failed += 1
    wall, cpu = time.perf_counter() - started, time.process_time() - cpu
    return _finish_round(inputs, len(inputs.targets), failed, wall, cpu, base.exchanges, problems)


def seed_round(inputs: Inputs, tracer) -> Round:
    """run_scan over the generated seed and cookie files."""
    reports = inputs.program.reports
    base = checks.ObservedClient(inputs.client, tracer)
    started, cpu = time.perf_counter(), time.process_time()
    with tracing.maybe_span(tracer, "reports.run_scan") as span:
        if tracer is not None:
            tracer.root = span.id  # parent of the worker threads' spans
        records = list(reports.run_scan(inputs.seed_file, inputs.scan_config,
                                        base_client=base, cookie_file=inputs.cookie_file))
    wall, cpu = time.perf_counter() - started, time.process_time() - cpu
    if tracer is not None:
        tracer.root = None

    problems, failed, pages = [], 0, 0
    by_config: dict[str, list] = {}
    for record in records:
        host = checks.host_of(record.url)
        if host in inputs.blocked_hosts:
            if record.status != "ethics_blocked":
                problems.append(f"{record.url}: blocked host came back {record.status}")
            continue
        name = inputs.config_of_host.get(host)
        if name is None:
            problems.append(f"{record.url}: record for a host not in the seed file")
            continue
        if record.status == "error" or record.reason == "fetch_failed":
            failed += 1
        if record.status in checks.SCANNED or record.status == "error":
            pages += 1
        by_config.setdefault(name, []).append(record)
        problems += checks.record_problems(record, inputs.truth[name])
        problems += checks.status_problems(
            record.status, [r["exploitable"] for r in record.profile_results.values()],
            record.url)
    if len(records) != len(inputs.config_of_host) + len(inputs.blocked_hosts):
        problems.append(f"{len(records)} records for "
                        f"{len(inputs.config_of_host) + len(inputs.blocked_hosts)} seed lines")
    problems += checks.copy_problems(by_config)
    return _finish_round(inputs, pages, failed, wall, cpu, base.exchanges, problems)


def run_rounds(workload: str, inputs: Inputs, seconds: float, tracer=None,
               before_round=lambda: None) -> list[Round]:
    """Whole rounds until at least ``seconds`` have passed."""
    one_round = matrix_round if workload == "matrix-loopback" else seed_round
    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        before_round()
        gc.collect()  # garbage of the previous round is not this round's cost
        rounds.append(one_round(inputs, tracer))
    return rounds


# --- reporting ---


def _pages_per_s(rounds: list[Round]) -> float:
    return statistics.median(r.pages / r.wall_s for r in rounds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rposcan" / "__init__.py").is_file():
        print(f"rposcan sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build_dir, prefix="rposcan-") as workdir:
        if args.trace:
            inputs = setup(args.workload, args.seed, Path(workdir))
            untraced = run_rounds(args.workload, inputs, args.seconds / 2)
            tracer = tracing.Tracer()
            with tracing.installed(tracer, inputs.program):
                traced = run_rounds(args.workload, inputs, args.seconds / 2, tracer)
            rounds = untraced + traced
        else:
            setup_times: list[float] = []

            def timed_setup() -> Inputs:
                gc.collect()
                started = time.perf_counter()
                fresh = setup(args.workload, args.seed, Path(workdir))
                setup_times.append(time.perf_counter() - started)
                return fresh

            # The machine's speed drifts over seconds, so set-up is timed
            # again and again across the run: before the first round, before
            # every round, and after the last.  Rounds all scan the first
            # set-up's inputs, with the program it imported.
            inputs = timed_setup()
            for _ in range(SETUP_REPEATS // 2 - 1):
                timed_setup()
            rounds = run_rounds(args.workload, inputs, args.seconds, before_round=timed_setup)
            while len(setup_times) < SETUP_REPEATS:
                timed_setup()

    problems = [p for r in rounds for p in r.problems]
    requests_per_page = {r.requests / r.pages for r in rounds}
    if len(requests_per_page) != 1:
        problems.append(f"requests per page differ between rounds: {sorted(requests_per_page)}")
    pages = sum(r.pages for r in rounds)
    pages_failed = sum(r.pages_failed for r in rounds)
    requests = sum(r.requests for r in rounds)
    requests_failed = sum(r.requests_failed for r in rounds)

    if args.trace:
        expected = tracing.ALWAYS_CALLED + (
            tracing.LOOPBACK_CALLED if args.workload == "matrix-loopback"
            else tracing.RUN_SCAN_CALLED
        )
        tracing.check_called(tracer, expected)
        values = tracing.layer_metrics(tracer.spans, sum(r.pages for r in traced),
                                       sum(r.short_gaps for r in traced))
        values["tracing.pages_per_s_untraced"] = _pages_per_s(untraced)
        values["tracing.pages_per_s_traced"] = _pages_per_s(traced)
        values["tracing.overhead_pct"] = 100.0 * (
            values["tracing.pages_per_s_untraced"] / values["tracing.pages_per_s_traced"] - 1.0
        )
        units = LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "pages_per_s": _pages_per_s(rounds),
            "requests_per_page": requests / pages,
            "cpu_ms_per_page": statistics.median(1e3 * r.cpu_s / r.pages for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} workers={WORKERS} nproc={len(os.sched_getaffinity(0))}")
    print(f"pages attempted={pages} failed={pages_failed}; "
          f"requests attempted={requests} failed={requests_failed}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": pages,
        "failed": pages_failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
