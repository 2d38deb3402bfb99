"""The four benchmark workloads: seeded inputs, jobs and their checks.

A job is a fixed sequence of public library calls on one generated input.
It builds fresh group, metric and potential objects, so the library's
per-object caches never carry over from one job to the next.  Checks run
after the job's clock stops and use closed forms or identities computed
here, not the code path under test.
"""
from __future__ import annotations

import json
import math
import os
import random
import tempfile

import numpy as np
import scipy.sparse

from cannonlab import automaton, cli, counting, groups, metrics, shift, thermo

LOG3 = math.log(3.0)
POOL = 32  # inputs generated per run; job i uses input i mod POOL

# Schottky trace box: every pair in it passes the ping-pong check
TRACE_1 = (2.8, 4.0)
TRACE_2 = (4.5, 8.0)

# roots
ROOT_DEPTHS = (7, 4)
CORRELATION_DEPTH = 4
# scan
SCAN_DEPTH = 6
SCAN_POINTS = 4
SCAN_T = (0.1, 30.0)
# enumerate
POINCARE_N = 11
BALL_RADIUS = 12
CORRELATE_EPS = 0.5
BIJECTION_N = 10
GREEN_ABSORBING = 5
GREEN_MARGIN = 3
GREEN_BALL = 2
# report: sizes that keep a job near 4 s, so a run's median has several
# samples; at thermo depth 4 and n_validate 6 one job took 11-17 s
REPORT_SCHOTTKY_NMAX = 10
REPORT_SCHOTTKY_DEPTH = 3
REPORT_GENUS2_NMAX = 5
REPORT_GENUS2_NVALIDATE = 4
GENUS2_SPHERES = [1, 8, 56, 392, 2736, 19096]


def free2_sphere_sizes(n_max: int) -> list[int]:
    return [1] + [4 * 3 ** (n - 1) for n in range(1, n_max + 1)]


# -- inputs ------------------------------------------------------------------

def _traces(rng: random.Random) -> list[float]:
    return [rng.uniform(*TRACE_1), rng.uniform(*TRACE_2)]


def _schottky_input(rng: random.Random) -> dict:
    return {"traces": _traces(rng)}


def _scan_input(rng: random.Random) -> dict:
    return {
        "traces": _traces(rng),
        "t": sorted(rng.uniform(*SCAN_T) for _ in range(SCAN_POINTS)),
        # multiples of the lattice period 2 pi / log 3, on and off it
        "lattice": sorted(rng.sample(range(1, 7), 3)),
        "off_lattice": sorted(k + rng.uniform(0.1, 0.9) for k in rng.sample(range(6), 3)),
    }


def _enumerate_input(rng: random.Random) -> dict:
    return {
        "s": LOG3 + 0.5 * (1.0 - rng.random()),  # in (log 3, log 3 + 0.5]
        "traces": _traces(rng),
        "base_point": [rng.uniform(-0.5, 0.5), rng.uniform(1.5, 3.0)],
    }


_INPUTS = {
    "roots": _schottky_input,
    "scan": _scan_input,
    "enumerate": _enumerate_input,
    "report": _schottky_input,
}


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The inputs of a run: a function of the workload and seed alone."""
    rng = random.Random(f"{workload}/{seed}")
    return [_INPUTS[workload](rng) for _ in range(POOL)]


# -- shared pieces -----------------------------------------------------------

def _acceptor(group, tr):
    with tr.span("automaton.build_shortlex_acceptor"):
        aut = automaton.build_shortlex_acceptor(group, 1)
    with tr.span("shift.word_maximal_components"):
        comp = shift.word_maximal_components(aut)[0]
    tr.add("automaton.states", aut.n_states)
    return aut, comp


def _schottky(traces, tr):
    with tr.span("groups.standard_schottky"):
        return groups.standard_schottky(tuple(traces))


def perron_bounds(aut, vertices, potential, s: float) -> tuple[float, float]:
    """Collatz-Wielandt bounds lo <= rho <= hi on the Perron root of the
    depth-k transfer matrix of exp(-s Psi), assembled here from the
    definition: states are (k-1)-edge paths, an edge appends one label."""
    k = potential.depth
    paths = [(v, (), (v,)) for v in sorted(vertices)]
    for _ in range(k - 1):
        paths = [
            (v0, labels + (a,), verts + (w,))
            for v0, labels, verts in paths
            for a, w in aut.transitions[verts[-1]]
            if a != automaton.IDENTITY_LABEL and w in vertices
        ]
    index = {(v0, labels): i for i, (v0, labels, _) in enumerate(paths)}
    rows, cols, vals = [], [], []
    for i, (v0, labels, verts) in enumerate(paths):
        for a, w in aut.transitions[verts[-1]]:
            if a == automaton.IDENTITY_LABEL or w not in vertices:
                continue
            window = labels + (a,)
            target = (verts[1], window[1:]) if labels else (w, ())
            rows.append(i)
            cols.append(index[target])
            vals.append(math.exp(-s * potential.value(window)))
    a = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(len(paths),) * 2)
    x = np.ones(len(paths))
    lo, hi = 0.0, math.inf
    for _ in range(20000):
        y = a @ x
        ratio = y / x
        lo, hi = float(ratio.min()), float(ratio.max())
        if hi - lo <= 1e-14 * hi:
            break
        x = y / hi
    return lo, hi


def _log_bounds_within(lo: float, hi: float, tol: float) -> bool:
    return lo > 0 and abs(math.log(lo)) <= tol and abs(math.log(hi)) <= tol


# -- roots: real Perron solves -----------------------------------------------

def run_roots(inp: dict, tr, workdir: str) -> dict:
    group = _schottky(inp["traces"], tr)
    aut, comp = _acceptor(group, tr)
    fuchsian = metrics.FuchsianOrbit(group)
    roots = {}
    for depth in ROOT_DEPTHS:
        pot = thermo.cylinder_potential(fuchsian, depth)
        with tr.span("thermo.growth_rate"):
            roots[depth] = (thermo.growth_rate(aut, comp, pot), pot)
    word = thermo.cylinder_potential(metrics.WordMetric(group), 1)
    with tr.span("thermo.growth_rate"):
        v_word = thermo.growth_rate(aut, comp, word)
    v_f = roots[CORRELATION_DEPTH][0]
    norm_word = metrics.ScaledWordMetric(group, v_word)
    norm_f = metrics.LinearCombination([(v_f, fuchsian)])
    with tr.span("thermo.correlation_exponent"):
        ce = thermo.correlation_exponent(
            aut,
            comp,
            thermo.cylinder_potential(norm_word, 1),
            thermo.cylinder_potential(norm_f, CORRELATION_DEPTH),
        )
    return {"aut": aut, "comp": comp, "roots": roots, "v_word": v_word, "ce": ce}


def check_roots(inp: dict, out: dict) -> list[str]:
    problems = []
    if abs(out["v_word"] - LOG3) > 1e-9:
        problems.append(f"word growth rate {out['v_word']!r} is not log 3")
    for depth, (v, pot) in out["roots"].items():
        lo, hi = perron_bounds(out["aut"], out["comp"].vertices, pot, v)
        if not _log_bounds_within(lo, hi, 1e-9):
            problems.append(
                f"depth-{depth} root {v!r}: Perron root in [{lo!r}, {hi!r}], not 1"
            )
    ce = out["ce"]
    if ce.degenerate or not 0.0 < ce.alpha < 1.0:
        problems.append(f"correlation exponent {ce}")
    return problems


# -- scan: complex spectral solves -------------------------------------------

def run_scan(inp: dict, tr, workdir: str) -> dict:
    group = _schottky(inp["traces"], tr)
    aut, comp = _acceptor(group, tr)
    pot = thermo.cylinder_potential(metrics.FuchsianOrbit(group), SCAN_DEPTH)
    with tr.span("thermo.growth_rate"):
        v = thermo.growth_rate(aut, comp, pot)
    fuchsian = []
    for t in inp["t"]:
        with tr.span("thermo.spectral_scan", tag="fuchsian"):
            fuchsian += thermo.spectral_scan(aut, comp, pot, v, [t])

    free2 = groups.FreeGroup(2)
    f_aut, f_comp = _acceptor(free2, tr)
    green = thermo.cylinder_potential(metrics.GreenClosedForm(free2), 1)
    period = 2.0 * math.pi / LOG3
    with tr.span("thermo.spectral_scan", tag="lattice"):
        on = thermo.spectral_scan(
            f_aut, f_comp, green, 1.0, [k * period for k in inp["lattice"]]
        )
    with tr.span("thermo.spectral_scan", tag="lattice"):
        off = thermo.spectral_scan(
            f_aut, f_comp, green, 1.0, [x * period for x in inp["off_lattice"]]
        )
    return {"fuchsian": fuchsian, "on": on, "off": off}


def check_scan(inp: dict, out: dict) -> list[str]:
    problems = []
    # radial metric: L_{1+it} = 3^{-1-it} A, so the leading eigenvalue is
    # 3^{-it}, of modulus 1, and equals 1 exactly on the lattice
    for p in out["on"]:
        if not (abs(p.rho - 1.0) < 1e-6 and p.unit_distance < 1e-6):
            problems.append(f"lattice point {p}")
    for p in out["off"]:
        if not p.unit_distance > 1e-3:
            problems.append(f"off-lattice point {p}")
    if len(out["fuchsian"]) != SCAN_POINTS:
        problems.append(f"{len(out['fuchsian'])} Fuchsian scan points")
    for p in out["fuchsian"]:
        if not p.gap > 0.0:
            problems.append(f"Fuchsian point without a gap {p}")
    return problems


# -- enumerate: counting, groups and metrics ---------------------------------

def run_enumerate(inp: dict, tr, workdir: str) -> dict:
    free2 = groups.FreeGroup(2)
    aut, _ = _acceptor(free2, tr)
    s = inp["s"]
    with tr.span("counting.poincare_compare"):
        pc = counting.poincare_compare(aut, metrics.WordMetric(free2), s, POINCARE_N)

    group = _schottky(inp["traces"], tr)
    d = metrics.FuchsianOrbit(group)
    d_star = metrics.FuchsianOrbit(group, complex(*inp["base_point"]))
    with tr.span("counting.count_ball"):
        ball = counting.count_ball(d, BALL_RADIUS)
    tr.add("counting.ball_size", len(ball.distances))
    with tr.span("counting.correlate"):
        corr = counting.correlate(d, d_star, CORRELATE_EPS, BALL_RADIUS)

    # a fresh group, so the Poincare walk's normal forms are not reused
    free2_b = groups.FreeGroup(2)
    aut_b, _ = _acceptor(free2_b, tr)
    with tr.span("automaton.validate_bijection"):
        bij = automaton.validate_bijection(aut_b, BIJECTION_N)

    with tr.span("groups.surface_group"):
        genus2 = groups.surface_group(2)
    with tr.span("metrics.GreenNumeric", tag="init"):
        green = metrics.GreenNumeric(
            genus2, absorbing_radius=GREEN_ABSORBING, safety_margin=GREEN_MARGIN
        )
    with tr.span("groups.ball_words"):
        words = genus2.ball_words(GREEN_BALL)
    with tr.span("metrics.GreenNumeric", tag="dist"):
        green_d = {w: green.dist_word(w) for w in words}
    return {
        "pc": pc, "ball": ball, "corr": corr, "bij": bij,
        "genus2": genus2, "green_d": green_d,
    }


def check_enumerate(inp: dict, out: dict) -> list[str]:
    problems = []
    s = inp["s"]
    pc = out["pc"]
    if not pc.max_rel_mismatch <= 1e-12:
        problems.append(f"Poincare mismatch {pc.max_rel_mismatch!r}")
    # word metric on F2: the sphere sum is 4 3^{n-1} e^{-sn}
    for n in range(1, POINCARE_N + 1):
        want = 4.0 * 3.0 ** (n - 1) * math.exp(-s * n)
        got = float(pc.direct_sphere_sums[n])
        if abs(got - want) > 1e-12 * want:
            problems.append(f"sphere sum {n}: {got!r} != {want!r}")
    sizes = free2_sphere_sizes(BALL_RADIUS)
    if list(out["ball"].sphere_sizes) != sizes or len(out["ball"].distances) != sum(sizes):
        problems.append(f"ball sizes {out['ball'].sphere_sizes}")
    if len(out["corr"].d_values) != sum(sizes):
        problems.append(f"correlate saw {len(out['corr'].d_values)} elements")
    bij = out["bij"]
    if not bij.ok or bij.accepted_counts != free2_sphere_sizes(BIJECTION_N):
        problems.append(f"bijection {bij.ok} {bij.accepted_counts}")
    genus2, green_d = out["genus2"], out["green_d"]
    if len(green_d) != 1 + 8 + 56:
        problems.append(f"Green ball of {len(green_d)} elements")
    for w, d in green_d.items():
        inv = genus2.normal_form(groups.invert_word(w))
        if abs(d - green_d[inv]) > 1e-9 or (w and not d > 0):
            problems.append(f"Green distance d({w})={d!r}, d(inverse)={green_d[inv]!r}")
    return problems


# -- report: the CLI end to end ----------------------------------------------

def report_configs(inp: dict) -> list[tuple[str, dict]]:
    return [
        ("free2", {}),
        ("schottky", {
            "group": {"family": "schottky", "traces": inp["traces"]},
            "metrics": [{"kind": "word"}, {"kind": "fuchsian_orbit"}],
            "thermo": {"depth": REPORT_SCHOTTKY_DEPTH},
            "counting": {"n_max": REPORT_SCHOTTKY_NMAX},
        }),
        ("genus2", {
            "group": {"family": "surface", "genus": 2},
            "automaton": {"n_validate": REPORT_GENUS2_NVALIDATE},
            "counting": {"n_max": REPORT_GENUS2_NMAX},
        }),
    ]


def _snapshot(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def run_report(inp: dict, tr, workdir: str) -> dict:
    job_dir = tempfile.mkdtemp(dir=workdir, prefix="report-")
    runs = {}
    for name, cfg in report_configs(inp):
        cfg_path = os.path.join(job_dir, f"{name}.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        argv = ["report", "--config", cfg_path, "--out", os.path.join(job_dir, name)]
        with tr.span("cli.report", tag="cold"):
            cold = cli.main(argv)
        cold_files = _snapshot(argv[-1])
        with tr.span("cli.report", tag="warm"):
            warm = cli.main(argv)
        warm_files = _snapshot(argv[-1])
        differing = sorted(
            f for f in cold_files.keys() | warm_files.keys()
            if cold_files.get(f) != warm_files.get(f)
        )
        # known defect: bijection.json records {"cached": true} on a warm run
        tr.peak("cli.rerun_artifacts_differing", len(differing))
        n_states = json.loads(warm_files.get("automaton.json", b"{}")).get("n_states", 0)
        tr.add("automaton.states", n_states)
        runs[name] = (cold, warm, cold_files, warm_files)
    return {"runs": runs}


def check_report(inp: dict, out: dict) -> list[str]:
    problems = []
    want_spheres = {
        "free2": free2_sphere_sizes(cli.DEFAULT_CONFIG["counting"]["n_max"]),
        "schottky": free2_sphere_sizes(REPORT_SCHOTTKY_NMAX),
        "genus2": GENUS2_SPHERES,
    }
    for name, (cold, warm, cold_files, warm_files) in out["runs"].items():
        if cold != 0 or warm != 0:
            problems.append(f"{name}: exit codes {cold}, {warm}")
            continue
        report = cold_files.get("report.json")
        if report is None or report != warm_files.get("report.json"):
            problems.append(f"{name}: report.json differs between cold and warm runs")
            continue
        spheres = json.loads(report)["count"]["sphere_sizes"]
        if spheres != want_spheres[name]:
            problems.append(f"{name}: sphere sizes {spheres}")
    return problems


JOBS = {
    "roots": (run_roots, check_roots),
    "scan": (run_scan, check_scan),
    "enumerate": (run_enumerate, check_enumerate),
    "report": (run_report, check_report),
}
