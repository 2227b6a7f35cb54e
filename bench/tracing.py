"""Spans around calls into rposcan's layers, recorded from outside the program.

Tracing replaces the module-level names that the program's callers look up at
call time (``rposcan.scanning.analyze_html`` and so on) with wrappers that open
a span, and puts the names back afterwards.  Spans stay in memory until the
run ends; ``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from functools import wraps

# (module under rposcan, attribute, span name): the names each caller looks
# up, with the span named after the layer that defines the function.
WRAPPED = (
    ("scanning", "analyze_html", "pages.analyze_html"),
    ("scanning", "css_would_fire", "css_recovery.css_would_fire"),
    ("scanning", "mutate", "mutations.mutate"),
    ("scanning", "expand_stylesheet_targets", "mutations.expand_stylesheet_targets"),
    ("scanning", "find_reflection", "payloads.find_reflection"),
    ("scanning", "serialize_url", "urls.serialize_url"),
    ("css_recovery", "tokenize", "css_recovery.tokenize"),
    ("mock_target", "handle_request", "mock_target.handle_request"),
    ("reports", "scan_page", "scanning.scan_page"),
    ("reports", "verify_exploitable", "scanning.verify_exploitable"),
    ("reports", "group_candidates", "pages.group_candidates"),
)

# Spans every workload must record; the run fails when one of these names
# was wrapped but never called, instead of reporting zero for its layer.
ALWAYS_CALLED = (
    "pages.analyze_html",
    "css_recovery.css_would_fire",
    "mutations.mutate",
    "mutations.expand_stylesheet_targets",
    "payloads.find_reflection",
    "urls.serialize_url",
    "css_recovery.tokenize",
    "mock_target.handle_request",
    "scanning.scan_page",
    "scanning.verify_exploitable",
    "httpclient.fetch",
    "httpclient.rate_limited_fetch",
)
RUN_SCAN_CALLED = ("reports.run_scan", "pages.group_candidates")
LOOPBACK_CALLED = ("mock_target.serve", "mock_target.shutdown")


class Span:
    __slots__ = ("id", "name", "start", "end", "cpu", "parent", "page", "size")

    def __init__(self, span_id: int, name: str, parent: int | None, page: str | None,
                 size: int) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.page = page
        self.size = size
        self.start = 0.0
        self.end = 0.0
        self.cpu = 0.0  # CPU time of the span's thread, excluding waits for the GIL

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # parent and page id of spans opened on a thread with no open span:
        # run_scan's worker threads and the loopback server's handler threads
        self.root: int | None = None
        self.page: str | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, page: str | None = None, size: int = 0):
        stack = self._stack()
        if stack:
            parent, inherited = stack[-1].id, stack[-1].page
        else:
            parent, inherited = self.root, self.page
        span = Span(next(self._ids), name, parent, page or inherited, size)
        stack.append(span)
        cpu = time.thread_time()
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            span.cpu = time.thread_time() - cpu
            stack.pop()
            self.spans.append(span)


def maybe_span(tracer: Tracer | None, name: str, page: str | None = None):
    """A span when tracing, a no-op context otherwise."""
    return nullcontext() if tracer is None else tracer.span(name, page)


def _page_of(name: str):
    if name == "scanning.scan_page":
        return lambda args: args[0].host
    if name == "scanning.verify_exploitable":
        return lambda args: args[0].page_url.host
    return lambda args: None


@contextmanager
def installed(tracer: Tracer, program):
    """Wrap every name in WRAPPED, plus the rate limiter run_scan builds, for
    the duration of the block.  A missing name stops the run."""
    replaced = []

    def replace(module, attr: str, wrap) -> None:
        if not hasattr(module, attr):
            raise SystemExit(
                f"tracing: {module.__name__}.{attr} no longer exists; update bench/tracing.py"
            )
        original = getattr(module, attr)
        replaced.append((module, attr, original))
        setattr(module, attr, wrap(original))

    try:
        for module_name, attr, span_name in WRAPPED:
            replace(getattr(program, module_name), attr,
                    lambda original: _traced(tracer, original, span_name))
        replace(program.reports, "RateLimitedClient",
                lambda original: traced_rate_limiter(tracer, original))
        yield
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


def _traced(tracer: Tracer, original, span_name: str):
    page_of = _page_of(span_name)
    sized = span_name == "css_recovery.css_would_fire"

    @wraps(original)
    def traced(*args, **kwargs):
        with tracer.span(span_name, page_of(args), len(args[0]) if sized else 0):
            return original(*args, **kwargs)

    return traced


def traced_rate_limiter(tracer: Tracer, base_class):
    """RateLimitedClient whose fetch is a span; the gap between its start and
    the inner client's span is the pacing wait."""

    class TracedRateLimitedClient(base_class):
        def fetch(self, request):
            with tracer.span("httpclient.rate_limited_fetch"):
                return super().fetch(request)

    return TracedRateLimitedClient


def check_called(tracer: Tracer, expected: tuple[str, ...]) -> None:
    seen = {span.name for span in tracer.spans}
    missing = [name for name in expected if name not in seen]
    if missing:
        raise SystemExit(f"tracing: no calls recorded for {', '.join(missing)}")


# --- per-layer figures ---


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that child spans cover."""
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - _covered(clipped)


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans: list[Span], pages: int, short_gaps: int) -> dict[str, float]:
    """Per-layer figures from one traced phase covering ``pages`` pages.

    Layers a workload does not go through (run_scan on the loopback matrix,
    the loopback server on the in-process seeds) report 0."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    by_id: dict[int, Span] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        by_id[span.id] = span
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def mean_us(name: str) -> float:
        found = named(name)
        return 1e6 * sum(s.cpu for s in found) / len(found) if found else 0.0

    def median_ms(name: str) -> float:
        found = named(name)
        return 1e3 * statistics.median(s.duration for s in found) if found else 0.0

    def per_page(count: float) -> float:
        return count / pages

    def under(span: Span, ancestor_name: str) -> bool:
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None:
            if parent.name == ancestor_name:
                return True
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        return False

    fetches = named("httpclient.fetch")
    fetch_ms = [1e3 * s.duration for s in fetches]
    pacing_wait = 0.0
    for span in named("httpclient.rate_limited_fetch"):
        inner = [c for c in children.get(span.id, []) if c.name == "httpclient.fetch"]
        pacing_wait += (inner[0].start if inner else span.end) - span.start
    scanning_self = sum(
        self_time(s, children.get(s.id, []))
        for name in ("scanning.scan_page", "scanning.verify_exploitable")
        for s in named(name)
    )
    run_scan_self = sum(self_time(s, children.get(s.id, [])) for s in named("reports.run_scan"))
    group_ms = [1e3 * s.duration for s in named("pages.group_candidates")]

    return {
        "urls.serialize_url.calls_per_page": per_page(len(named("urls.serialize_url"))),
        "payloads.find_reflection.us_per_call": mean_us("payloads.find_reflection"),
        "mutations.mutate.us_per_call": mean_us("mutations.mutate"),
        "mutations.expand_stylesheet_targets.us_per_call":
            mean_us("mutations.expand_stylesheet_targets"),
        "pages.analyze_html.calls_per_page": per_page(len(named("pages.analyze_html"))),
        "pages.analyze_html.us_per_call": mean_us("pages.analyze_html"),
        "pages.group_candidates.ms": statistics.median(group_ms) if group_ms else 0.0,
        "css_recovery.css_would_fire.calls_per_page":
            per_page(len(named("css_recovery.css_would_fire"))),
        "css_recovery.css_would_fire.us_per_call": mean_us("css_recovery.css_would_fire"),
        "css_recovery.tokenize.us_per_call": mean_us("css_recovery.tokenize"),
        "css_recovery.bytes_per_page":
            per_page(sum(s.size for s in named("css_recovery.css_would_fire"))),
        "scanning.probe_requests_per_page":
            per_page(sum(under(s, "scanning.scan_page") for s in fetches)),
        "scanning.verify_requests_per_page":
            per_page(sum(under(s, "scanning.verify_exploitable") for s in fetches)),
        "scanning.scan_page.ms_p50": median_ms("scanning.scan_page"),
        "scanning.verify_exploitable.ms_p50": median_ms("scanning.verify_exploitable"),
        "scanning.self_ms_per_page": 1e3 * per_page(scanning_self),
        "httpclient.fetch_p50_ms": statistics.median(fetch_ms),
        "httpclient.fetch_p95_ms": _percentile(fetch_ms, 0.95),
        "httpclient.response_kib_per_page":
            per_page(sum(s.size for s in fetches)) / 1024.0,
        "httpclient.pacing_wait_s_per_page": per_page(pacing_wait),
        "httpclient.short_gaps": float(short_gaps),
        "mock_target.handle_request.us_per_call": mean_us("mock_target.handle_request"),
        "mock_target.serve_ms": median_ms("mock_target.serve"),
        "mock_target.shutdown_ms": median_ms("mock_target.shutdown"),
        "reports.run_scan.self_ms_per_page": 1e3 * per_page(run_scan_self),
    }
