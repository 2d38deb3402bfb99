"""cannonlab benchmark: one seeded workload per process, closed loop.

    python3 bench/run.py --workload roots --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 [--trace 1]

Run from the repository root.  The library is imported from ``src/`` of
the same checkout.  One client runs jobs back to back for ``--seconds``
(at least one job); each job's outputs are checked, and a job that raises
or fails a check is counted and the run goes on.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` runs every input twice, untraced and then traced, prints the per-layer
metrics and writes every span and metric to
``.bench_out/trace-<workload>-seed<seed>.json``.  The last line of standard
output is always the JSON result; the lines before it name each metric
with its unit and sample count, the seed and the environment.
"""
from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
NPROC = len(os.sched_getaffinity(0))


def single_blas_thread() -> None:
    """One BLAS thread; must run before numpy is imported.  On a 2-core
    machine two OpenBLAS threads made `roots` jobs 11% slower and their
    run-to-run spread 3.6 times wider."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def setup(workload: str, seed: int):
    """Import the library from this checkout and generate the inputs.
    Returns (workloads module, inputs, import seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    cannonlab = importlib.import_module("cannonlab")
    if Path(cannonlab.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"cannonlab imported from {cannonlab.__file__}, not {SRC}")
    workloads = importlib.import_module("workloads")
    import_s = time.perf_counter() - t0
    return workloads, workloads.make_inputs(workload, seed), import_s


# -- environment -------------------------------------------------------------

def git_revision() -> str | None:
    """HEAD of the checkout, read without running git; None outside a
    git working tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({
            line.split()[-1] for line in fh
            if "openblas" in line.rsplit("/", 1)[-1]
        })
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    def blas(cfg) -> str:
        b = cfg["Build Dependencies"]["blas"]
        return f"{b['name']} {b['version']}"

    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": blas_threads(),
        "nproc": NPROC,
    }


# -- the closed loop ---------------------------------------------------------

@dataclass
class Job:
    index: int
    traced: bool
    wall: float
    cpu: float
    problems: list


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_job(workloads, workload: str, index: int, inp: dict, tr, workdir: str,
            traced: bool) -> Job:
    """One job: the timed calls, then the untimed checks.  An exception or
    a failed check is recorded on the job, never raised."""
    run, check = workloads.JOBS[workload]
    tr.job = index
    cpu0, t0 = _cpu(), time.perf_counter()
    try:
        out = run(inp, tr, workdir)
    except Exception:
        out = None
        problems = [traceback.format_exc()]
    wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
    if out is not None:
        try:
            problems = check(inp, out)
        except Exception:
            problems = [traceback.format_exc()]
    for p in problems:
        print(f"job {index} failed: {p}", file=sys.stderr)
    return Job(index, traced, wall, cpu, problems)


def measure(workloads, workload: str, inputs: list, seconds: float,
            workdir: str, tracer=None) -> list[Job]:
    """Run jobs back to back for ``seconds``: a job starts only when a
    median-length loop iteration still fits, and the first one always runs.
    With a tracer, each input runs untraced and then traced."""
    null = spans.NullTracer()
    jobs: list[Job] = []
    laps: list[float] = []
    t0 = time.perf_counter()
    i = 0
    while not laps or time.perf_counter() - t0 + statistics.median(laps) <= seconds:
        lap = time.perf_counter()
        inp = inputs[i % len(inputs)]
        jobs.append(run_job(workloads, workload, len(jobs), inp, null, workdir, False))
        if tracer is not None:
            with spans.wrapped(tracer):
                jobs.append(
                    run_job(workloads, workload, len(jobs), inp, tracer, workdir, True)
                )
        laps.append(time.perf_counter() - lap)
        i += 1
    return jobs


def probe_setup(workload: str, seed: int) -> float:
    """Wall seconds from starting a fresh interpreter on this script to its
    first job being ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {line!r}, exit {proc.returncode}")
    return ready


# -- metrics -----------------------------------------------------------------

def end_to_end(jobs: list[Job], setups: list[float]) -> dict[str, tuple[float, int]]:
    """name -> (value, sample count), from the untraced jobs."""
    plain = [j for j in jobs if not j.traced]
    walls = [j.wall for j in plain]
    failed = sum(1 for j in jobs if j.problems)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "job_p50_s": (statistics.median(walls), len(walls)),
        "jobs_per_s": (len(walls) / sum(walls), len(walls)),
        "cpu_s_per_job": (statistics.median(j.cpu for j in plain), len(plain)),
        "peak_rss_mb": (rss_mb, 1),
        "ok_frac": ((len(jobs) - failed) / len(jobs), len(jobs)),
        "failed_frac": (failed / len(jobs), len(jobs)),
    }


def per_layer(jobs: list[Job], tracer, import_s: float) -> dict[str, tuple[float, int]]:
    traced = [j for j in jobs if j.traced]
    plain = [j for j in jobs if not j.traced]
    n = len(traced)
    out = {k: (v, n) for k, v in spans.layer_metrics(tracer, n).items()}
    out["import_s"] = (import_s, 1)
    overhead = statistics.median(j.wall for j in traced) / statistics.median(
        j.wall for j in plain
    ) - 1.0
    out["trace.overhead_frac"] = (overhead, n)
    covered = spans.job_span_time(tracer.spans)
    gap = max(abs(covered.get(j.index, 0.0) / j.wall - 1.0) for j in traced)
    out["trace.uncovered_frac"] = (gap, n)
    return out


def select(measured: dict, declared: list[dict]) -> dict:
    """The declared metrics, in declaration order.  A declared per-layer
    metric that the workload never exercised reads 0; one whose traced
    library function is gone is left out."""
    out = {}
    for m in declared:
        name = m["name"]
        if name in measured:
            out[name] = measured[name]
        elif not spans.deleted(name):
            out[name] = (0.0, 0)
    return out


# -- entry points ------------------------------------------------------------

def run_workload(args, manifest: dict) -> int:
    workloads, inputs, import_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tracer = spans.Tracer() if args.trace else None
    try:
        jobs = measure(workloads, args.workload, inputs, args.seconds, str(workdir), tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    if tracer is None:
        setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        measured = end_to_end(jobs, setups)
        declared = manifest["end_to_end"]
    else:
        measured = per_layer(jobs, tracer, import_s)
        declared = manifest["per_layer"]
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "env": env,
            "metrics": {k: v for k, (v, _) in sorted(measured.items())},
            "jobs": [vars(j) for j in jobs],
            "spans": [vars(s) for s in tracer.spans],
        }, indent=1))
    chosen = select(measured, declared)
    units = {m["name"]: m["unit"] for m in declared}
    failed = sum(1 for j in jobs if j.problems)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"jobs {len(jobs)} failed {failed}")
    print("env " + json.dumps(env, sort_keys=True))
    print("job_wall_s " + json.dumps([round(j.wall, 4) for j in jobs]))
    for name, (value, n) in chosen.items():
        print(f"{name} {value!r} {units[name]} n={n}")
    if tracer is None:
        value, n = measured["failed_frac"]
        print(f"failed_frac {value!r} 1 n={n}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, (value, _) in chosen.items()
        },
    }))
    return 0


def run_all(args, names: list[str]) -> int:
    """Every workload in its own process, one after the other."""
    worst = 0
    for workload in names:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    single_blas_thread()
    if args.workload == "all":
        return run_all(args, names)
    return run_workload(args, manifest)


if __name__ == "__main__":
    raise SystemExit(main())
