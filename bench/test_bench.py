"""Self-test of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

Runs a few `roots` jobs in-process (about 20 s).
"""
import json
import math
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
workloads, INPUTS, IMPORT_S = run.setup("roots", 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tracer = spans.Tracer()
    jobs = run.measure(
        workloads, "roots", INPUTS, 0, str(tmp_path_factory.mktemp("w")), tracer
    )
    return jobs, tracer


def test_span_self_times_add_up_to_job_wall_time(traced):
    jobs, tracer = traced
    covered = spans.job_span_time(tracer.spans)
    traced_jobs = [j for j in jobs if j.traced]
    assert traced_jobs
    for job in traced_jobs:
        assert not job.problems
        assert abs(covered[job.index] / job.wall - 1.0) <= 0.1


def test_metric_names_use_the_allowed_characters(traced):
    jobs, tracer = traced
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = list(run.per_layer(jobs, tracer, IMPORT_S))
    names += list(run.end_to_end(jobs, [1.0]))
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert "thermo.transfer_matrix.calls" in names
    for name in names:
        assert NAME.match(name), name


def test_a_failed_check_marks_the_job_failed(monkeypatch, tmp_path):
    real = workloads.thermo.growth_rate
    calls = []

    def wrong_first_root(aut, comp, potential, *args, **kwargs):
        calls.append(potential.depth)
        v = real(aut, comp, potential, *args, **kwargs)
        # the word-metric rate of the first job misses log 3
        return v + 1e-6 if potential.depth == 1 and calls.count(1) == 1 else v

    monkeypatch.setattr(workloads.thermo, "growth_rate", wrong_first_root)
    first = run.run_job(workloads, "roots", 0, INPUTS[0], spans.NullTracer(),
                        str(tmp_path), False)
    assert any("log 3" in p for p in first.problems)
    second = run.run_job(workloads, "roots", 1, INPUTS[1], spans.NullTracer(),
                         str(tmp_path), False)
    assert not second.problems


def test_a_raising_job_does_not_stop_the_run(monkeypatch, tmp_path):
    real = workloads.groups.standard_schottky
    calls = []

    def raise_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise workloads.groups.PresentationError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(workloads.groups, "standard_schottky", raise_once)
    # the first job fails at once, well inside the half second, so the
    # same measured run starts a second job
    jobs = run.measure(workloads, "roots", INPUTS, 0.5, str(tmp_path))
    assert [bool(j.problems) for j in jobs] == [True, False]
    metrics = run.end_to_end(jobs, [1.0])
    assert metrics["failed_frac"] == (0.5, 2)
    assert math.isclose(metrics["ok_frac"][0], 0.5)
