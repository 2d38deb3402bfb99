"""In-memory span tracing for the benchmark.

A span is (name, start, end, parent, job, tag).  The benchmark opens spans
around each of its own calls into a layer; ``wrapped`` additionally patches
a fixed list of library functions, in every module that binds them, so that
nested work (matrix builds, pressure evaluations, CLI stages) shows up as
child spans.  Nothing is written until the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

# (module, attribute) of the library functions traced from the inside.
# A name that no longer exists is skipped, so its metrics are absent.
WRAPPED = [
    ("thermo", "transfer_matrix"),
    ("thermo", "pressure_terms"),
    ("thermo", "growth_rate"),
    ("thermo", "manhattan_pair"),
    ("counting", "sphere_distance_arrays"),
    ("automaton", "build_shortlex_acceptor"),
    ("automaton", "saturate"),
    ("automaton", "validate_bijection"),
] + [
    ("cli", f"cmd_{stage}")
    for stage in (
        "automaton", "analyze", "growth", "manhattan", "scan",
        "count", "correlate", "mixing",
    )
]
# (module, class, method) traced the same way.
WRAPPED_METHODS = [("groups", "GroupPresentation", "sphere_words")]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[int]
    tag: Optional[str]


class NullTracer:
    """Untraced runs: spans and records cost one attribute lookup."""

    job: Optional[int] = None

    def span(self, name: str, tag: Optional[str] = None):
        return contextlib.nullcontext()

    def add(self, name: str, value: float) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, tag: Optional[str] = None):
        if self._stack and self.spans[self._stack[-1]].name == name:
            # a wrapped function called directly from the benchmark's own
            # span of the same name: one span, not two
            yield
            return
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), 0.0, parent, self.job, tag)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        """A count summed over the run and reported per job."""
        self.totals[name] += value

    def peak(self, name: str, value: float) -> None:
        """A size reported as its largest value in the run."""
        self.peaks[name] = max(self.peaks.get(name, value), value)


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if name == "thermo.transfer_matrix":
            tracer.peak(f"{name}.blocks", out.n)
            tracer.peak(f"{name}.nnz", out.matrix.nnz)
        return out

    return wrapper


def _library_modules():
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "cannonlab" or n.startswith("cannonlab."))
    ]


def present(module: str, attr: str) -> bool:
    mod = sys.modules.get(f"cannonlab.{module}")
    return mod is not None and hasattr(mod, attr)


def deleted(metric: str) -> bool:
    """True when the metric reads a traced library function that the
    library no longer has; such a metric is left out, not reported as 0."""
    if metric == "thermo.evals_per_root":
        return not present("thermo", "pressure_terms")
    gone = [f"{m}.{a}." for m, a in WRAPPED if not present(m, a)]
    gone += [
        f"{m}.{a}." for m, c, a in WRAPPED_METHODS
        if not hasattr(getattr(sys.modules.get(f"cannonlab.{m}"), c, None), a)
    ]
    return any(metric.startswith(prefix) for prefix in gone)


@contextlib.contextmanager
def wrapped(tracer: Tracer):
    """Patch every binding of the WRAPPED functions for the duration."""
    undo = []
    modules = _library_modules()
    for module, attr in WRAPPED:
        if not present(module, attr):
            continue
        original = getattr(sys.modules[f"cannonlab.{module}"], attr)
        wrapper = _wrap(tracer, f"{module}.{attr}", original)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)
    for module, cls_name, attr in WRAPPED_METHODS:
        cls = getattr(sys.modules.get(f"cannonlab.{module}"), cls_name, None)
        if cls is None or attr not in vars(cls):
            continue
        original = vars(cls)[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, _wrap(tracer, f"{module}.{attr}", original))
    try:
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def job_span_time(spans: list[Span]) -> dict[int, float]:
    """Per job, the sum of self times over all its spans (which equals the
    time its top-level spans cover)."""
    out: dict[int, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        out[s.job] += own
    return dict(out)


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, float]:
    """Per-job calls, busy and self seconds for every span name, busy
    seconds per tag as ``<name>.<tag>_s``, and the recorded counts."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    tagged: dict[str, float] = defaultdict(float)
    for s, t in zip(tracer.spans, self_times(tracer.spans)):
        calls[s.name] += 1
        busy[s.name] += s.end - s.start
        own[s.name] += t
        if s.tag is not None:
            tagged[f"{s.name}.{s.tag}_s"] += s.end - s.start
    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name] / jobs
        out[f"{name}.busy_s"] = busy[name] / jobs
        out[f"{name}.self_s"] = own[name] / jobs
    out.update({k: v / jobs for k, v in tagged.items()})
    out.update({k: v / jobs for k, v in tracer.totals.items()})
    out.update(tracer.peaks)

    roots = calls.get("thermo.growth_rate", 0) + calls.get("thermo.manhattan_pair", 0)
    if roots and "thermo.pressure_terms" in calls:
        out["thermo.evals_per_root"] = calls["thermo.pressure_terms"] / roots
    points = [
        s.end - s.start for s in tracer.spans
        if s.name == "thermo.spectral_scan" and s.tag == "fuchsian"
    ]
    if points:
        out["thermo.spectral_scan.point_p50_s"] = statistics.median(points)
    return out
