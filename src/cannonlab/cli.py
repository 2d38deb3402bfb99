"""Command-line pipeline around the library.

Subcommands build the geodesic coding, analyze the shift structure, and
emit growth, Manhattan-curve, spectral-scan, counting, correlation and
mixing artifacts as JSON/CSV files.  Every artifact carries the config
hash in a header; reruns with an identical config are byte-identical.

Exit codes: 0 ok, 2 validation/config failure, 3 unsaturated automaton,
4 resource cap exceeded, 5 numeric failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from typing import Optional

import numpy as np

from . import __version__
from .automaton import (
    AutomatonError,
    GeodesicAutomaton,
    UnsaturatedError,
    build_shortlex_acceptor,
    saturate,
    validate_bijection,
)
from .counting import (
    CountingError,
    correlate,
    count_ball,
    error_term_fit,
    fit_asymptotic,
)
from .groups import (
    FreeGroup,
    GroupError,
    GroupPresentation,
    ResourceCapError,
    SchottkyGroup,
    SmallCancellationGroup,
    standard_schottky,
    surface_group,
)
from .metrics import (
    FuchsianOrbit,
    GreenClosedForm,
    GreenNumeric,
    LinearCombination,
    MetricError,
    MetricModel,
    ScaledWordMetric,
    WordMetric,
)
from .shift import (
    Component,
    ShiftError,
    arithmeticity,
    cross_check_maximal,
    scc_decompose,
    word_maximal_components,
)
from .thermo import (
    ThermoError,
    correlation_exponent,
    cylinder_potential,
    growth_rate,
    manhattan_pair,
    mixing_check,
    spectral_scan,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNSATURATED = 3
EXIT_RESOURCE = 4
EXIT_NUMERIC = 5

DEFAULT_CONFIG = {
    "group": {"family": "free", "rank": 2},
    "metrics": [{"kind": "word"}],
    "automaton": {"r_cone": None, "radii": [1, 2, 3, 4], "n_validate": 6},
    "thermo": {"depth": 4},
    "counting": {"n_max": 8, "eps": 0.5},
    "scan": {"t_min": 0.1, "t_max": 10.0, "points": 40},
    "manhattan": {"points": 17},
}


class ConfigError(Exception):
    pass


# -- config handling ---------------------------------------------------------

def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path: Optional[str], args: argparse.Namespace) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _merge(cfg, user)
    if getattr(args, "rcone", None) is not None:
        cfg["automaton"]["r_cone"] = args.rcone
    if getattr(args, "depth", None) is not None:
        cfg["thermo"]["depth"] = args.depth
    if getattr(args, "nmax", None) is not None:
        cfg["counting"]["n_max"] = args.nmax
    if getattr(args, "eps", None) is not None:
        cfg["counting"]["eps"] = args.eps
    if len(cfg["metrics"]) > 2:
        raise ConfigError("at most two metrics")
    if cfg["counting"]["eps"] <= 0:
        raise ConfigError("counting.eps must be positive")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def build_group(spec: dict) -> GroupPresentation:
    family = spec.get("family")
    if family == "free":
        return FreeGroup(int(spec.get("rank", 2)))
    if family == "surface":
        return surface_group(int(spec.get("genus", 2)))
    if family == "small_cancellation":
        return SmallCancellationGroup(spec["generators"], spec["relators"])
    if family == "schottky":
        if "matrices" in spec:
            return SchottkyGroup([np.array(m, dtype=float) for m in spec["matrices"]])
        return standard_schottky(tuple(spec.get("traces", (3.0, 5.0))))
    raise ConfigError(f"unknown group family: {family!r}")


def build_metric(group: GroupPresentation, spec: dict) -> MetricModel:
    kind = spec.get("kind")
    if kind == "word":
        return WordMetric(group)
    if kind == "scaled_word":
        return ScaledWordMetric(group, float(spec["factor"]))
    if kind == "green_closed_form":
        return GreenClosedForm(group)
    if kind == "green_numeric":
        return GreenNumeric(
            group, absorbing_radius=int(spec.get("absorbing_radius", 30))
        )
    if kind == "fuchsian_orbit":
        return FuchsianOrbit(group)
    if kind == "linear_combination":
        terms = [
            (float(c), build_metric(group, sub)) for c, sub in spec["terms"]
        ]
        return LinearCombination(terms)
    raise ConfigError(f"unknown metric kind: {kind!r}")


# -- artifact emission -------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_json(out_dir: str, name: str, payload: dict, cfg_hash: str) -> str:
    doc = {
        "header": {"config_sha256": cfg_hash, "version": __version__},
        **payload,
    }
    path = os.path.join(out_dir, name)
    _atomic_write(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def emit_csv(out_dir: str, name: str, body: str, cfg_hash: str) -> str:
    path = os.path.join(out_dir, name)
    header = f"# config_sha256={cfg_hash} version={__version__}\n"
    _atomic_write(path, header + body)
    return path


# -- shared pipeline pieces --------------------------------------------------

AUTOMATON_CACHE = "automaton-cache/2"  # in the cache key; bump on a format change


def _automaton_digest(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def get_automaton(cfg: dict, out_dir: str) -> tuple[GeodesicAutomaton, dict]:
    """Build (or load from the on-disk cache) the shortlex acceptor for the
    configured group and the record of its build; the cache key hashes the
    cache format and the group and automaton specs.  An entry keeps the
    record under "build", so a warm run reports the cold run's build, and
    the sha256 of the automaton JSON under "sha256".  An entry that fails
    to parse or load, or lacks either field or does not match its sha256,
    is a cache miss: rebuilt and overwritten, with one line on stderr."""
    group = build_group(cfg["group"])
    spec = {"group": cfg["group"], "automaton": cfg["automaton"]}
    key = config_hash({"cache": AUTOMATON_CACHE, **spec})
    cache_path = os.path.join(out_dir, "cache", f"automaton-{key}.json")
    if os.path.exists(cache_path):
        try:
            with open(cache_path) as fh:
                doc = json.load(fh)
            build, digest = doc.pop("build", None), doc.pop("sha256", None)
            if build is not None and digest == _automaton_digest(doc):
                return GeodesicAutomaton.from_json(json.dumps(doc), group), build
        except (AttributeError, AutomatonError, LookupError, TypeError, ValueError):
            pass
        print(f"automaton cache entry {cache_path} failed its check; rebuilding",
              file=sys.stderr)
    r_cone = cfg["automaton"].get("r_cone")
    if r_cone is not None:
        aut = build_shortlex_acceptor(group, int(r_cone))
        probe = build_shortlex_acceptor(group, int(r_cone) + 1)
        if probe.n_states != aut.n_states:
            raise UnsaturatedError(
                f"state count still moving at r_cone={r_cone}: "
                f"{aut.n_states} -> {probe.n_states}",
                int(r_cone),
            )
        info = {"r_cone": int(r_cone)}
    else:
        aut, info = saturate(
            group,
            radii=tuple(cfg["automaton"].get("radii", (1, 2, 3, 4))),
            n_validate=int(cfg["automaton"].get("n_validate", 6)),
        )
    entry = json.loads(aut.to_json())
    entry["sha256"] = _automaton_digest(entry)
    entry["build"] = info
    _atomic_write(cache_path, json.dumps(entry, indent=1, sort_keys=True))
    return aut, info


def _metrics(cfg: dict, group: GroupPresentation) -> list[MetricModel]:
    return [build_metric(group, spec) for spec in cfg["metrics"]]


def _main_component(aut: GeodesicAutomaton) -> Component:
    return word_maximal_components(aut)[0]


def _growth(aut: GeodesicAutomaton, metric: MetricModel, depth: int) -> float:
    comp = _main_component(aut)
    return growth_rate(aut, comp, cylinder_potential(metric, depth))


def _metric_depth(metric: MetricModel, depth: int) -> int:
    """Radial metrics are depth-1 exact; deeper windows only cost time."""
    if metric.radial_step is not None:
        return 1
    return depth


# -- subcommands -------------------------------------------------------------

def cmd_automaton(cfg: dict, out_dir: str, cfg_hash: str) -> int:
    aut, info = get_automaton(cfg, out_dir)
    n_validate = int(cfg["automaton"].get("n_validate", 6))
    report = validate_bijection(aut, n_validate)
    emit_json(out_dir, "automaton.json", json.loads(aut.to_json()), cfg_hash)
    emit_json(
        out_dir,
        "bijection.json",
        {
            "ok": report.ok,
            "n_max": report.n_max,
            "accepted_counts": report.accepted_counts,
            "sphere_sizes": report.sphere_sizes,
            "first_failure": report.first_failure,
            "build": info,
        },
        cfg_hash,
    )
    if not report.ok:
        print("bijection validation failed", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_analyze(cfg: dict, out_dir: str, cfg_hash: str) -> int:
    aut, _ = get_automaton(cfg, out_dir)
    group = aut.group
    metrics = _metrics(cfg, group)
    depth = int(cfg["thermo"]["depth"])
    comps = scc_decompose(aut)
    comp = _main_component(aut)

    payload = {
        "components": [
            {
                "index": c.index,
                "size": len(c.vertices),
                "period": c.period,
                "trivial": c.trivial,
            }
            for c in comps
        ],
        "metrics": [],
    }
    ok = True
    for metric in metrics:
        k = _metric_depth(metric, depth)
        pot = cylinder_potential(metric, k)
        v_d = growth_rate(aut, comp, pot)
        cross = cross_check_maximal(aut, pot, v_d)
        arith = arithmeticity(aut, comp, pot)
        ok = ok and cross.ok and cross.disjoint
        payload["metrics"].append(
            {
                "kind": metric.kind,
                "growth_rate": v_d,
                "word_maximal": cross.word_maximal,
                "potential_maximal": cross.potential_maximal,
                "cross_check_ok": cross.ok,
                "maximal_disjoint": cross.disjoint,
                "arithmeticity": {
                    "verdict": arith.verdict,
                    "gap": arith.gap,
                    "max_residual": arith.max_residual,
                    "n_orbits": arith.n_orbits,
                },
            }
        )
    emit_json(out_dir, "analyze.json", payload, cfg_hash)
    if not ok:
        print("maximal-component cross-check failed", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_growth(cfg: dict, out_dir: str, cfg_hash: str) -> int:
    aut, _ = get_automaton(cfg, out_dir)
    depth = int(cfg["thermo"]["depth"])
    rates = {}
    for metric in _metrics(cfg, aut.group):
        rates[metric.kind] = _growth(
            aut, metric, _metric_depth(metric, depth)
        )
    emit_json(out_dir, "growth.json", {"growth_rates": rates}, cfg_hash)
    return EXIT_OK


def cmd_manhattan(cfg: dict, out_dir: str, cfg_hash: str) -> int:
    aut, _ = get_automaton(cfg, out_dir)
    metrics = _metrics(cfg, aut.group)
    if len(metrics) != 2:
        raise ConfigError("manhattan needs exactly two metrics")
    depth = int(cfg["thermo"]["depth"])
    comp = _main_component(aut)
    pot_a = cylinder_potential(metrics[0], _metric_depth(metrics[0], depth))
    pot_b = cylinder_potential(metrics[1], _metric_depth(metrics[1], depth))
    v_b = growth_rate(aut, comp, pot_b)
    points = int(cfg["manhattan"]["points"])
    grid = np.linspace(0.0, v_b, points)
    theta = [manhattan_pair(aut, comp, pot_a, pot_b, float(t)) for t in grid]
    mid = theta[points // 2]
    affine = abs(mid - 0.5 * (theta[0] + theta[-1])) < 1e-9
    convex_ok = all(
        theta[i + 1] <= 0.5 * (theta[i] + theta[i + 2]) + 1e-9
        for i in range(points - 2)
    )
    body = "t,theta\n" + "".join(
        f"{float(t)!r},{float(th)!r}\n" for t, th in zip(grid, theta)
    )
    emit_csv(out_dir, "manhattan.csv", body, cfg_hash)
    emit_json(
        out_dir,
        "manhattan.json",
        {
            "theta_at_0": theta[0],
            "theta_at_end": theta[-1],
            "end": float(v_b),
            "affine": affine,
            "midpoint_convex": convex_ok,
        },
        cfg_hash,
    )
    if affine:
        print("warning: affine Manhattan curve (dependent pair)", file=sys.stderr)
    return EXIT_OK


def cmd_scan(cfg: dict, out_dir: str, cfg_hash: str) -> int:
    aut, _ = get_automaton(cfg, out_dir)
    metric = _metrics(cfg, aut.group)[0]
    depth = _metric_depth(metric, int(cfg["thermo"]["depth"]))
    comp = _main_component(aut)
    pot = cylinder_potential(metric, depth)
    v = growth_rate(aut, comp, pot)
    scan_cfg = cfg["scan"]
    grid = np.linspace(
        float(scan_cfg["t_min"]), float(scan_cfg["t_max"]), int(scan_cfg["points"])
    )
    points = spectral_scan(aut, comp, pot, v, [float(t) for t in grid])
    body = "t,rho,unit_distance,gap,exact\n" + "".join(
        f"{p.t!r},{p.rho!r},{p.unit_distance!r},{p.gap!r},{int(p.exact)}\n"
        for p in points
    )
    emit_csv(out_dir, "scan.csv", body, cfg_hash)
    emit_json(
        out_dir,
        "scan.json",
        {
            "growth_rate": v,
            "max_rho": max(p.rho for p in points),
            "min_gap": min(p.gap for p in points),
            "min_unit_distance": min(
                (p.unit_distance for p in points if not math.isnan(p.unit_distance)),
                default=float("nan"),
            ),
        },
        cfg_hash,
    )
    return EXIT_OK


def cmd_count(cfg: dict, out_dir: str, cfg_hash: str) -> int:
    aut, _ = get_automaton(cfg, out_dir)
    metric = _metrics(cfg, aut.group)[0]
    depth = _metric_depth(metric, int(cfg["thermo"]["depth"]))
    n_max = int(cfg["counting"]["n_max"])
    v = _growth(aut, metric, depth)
    report = count_ball(metric, n_max)
    fit = fit_asymptotic(report, delta_hint=v)
    payload = json.loads(report.to_json())
    payload["fit"]["residual_series_points"] = len(fit.t_grid)
    if not fit.oscillation:
        kappa = error_term_fit(report, fit.c, fit.delta)
        payload["kappa"] = {
            "estimate": kappa.kappa,
            "stderr": kappa.stderr,
            "status": kappa.status,
        }
    else:
        payload["kappa"] = {"status": "refused_arithmetic_oscillation"}
    emit_csv(out_dir, "count.csv", report.to_csv(), cfg_hash)
    emit_json(out_dir, "count.json", payload, cfg_hash)
    return EXIT_OK


def cmd_correlate(cfg: dict, out_dir: str, cfg_hash: str) -> int:
    aut, _ = get_automaton(cfg, out_dir)
    metrics = _metrics(cfg, aut.group)
    if len(metrics) != 2:
        raise ConfigError("correlate needs exactly two metrics")
    depth = int(cfg["thermo"]["depth"])
    comp = _main_component(aut)
    normalized = []
    pots = []
    for metric in metrics:
        k = _metric_depth(metric, depth)
        v = growth_rate(aut, comp, cylinder_potential(metric, k))
        norm = LinearCombination([(v, metric)])
        normalized.append(norm)
        pots.append(cylinder_potential(norm, k))
    ce = correlation_exponent(aut, comp, pots[0], pots[1])
    report = correlate(
        normalized[0],
        normalized[1],
        float(cfg["counting"]["eps"]),
        int(cfg["counting"]["n_max"]),
        alpha_thermo=ce.alpha,
    )
    payload = json.loads(report.to_json())
    payload["correlation_exponent"] = {
        "alpha": ce.alpha,
        "xi": ce.xi,
        "degenerate": ce.degenerate,
    }
    emit_csv(out_dir, "correlate.csv", report.to_csv(), cfg_hash)
    emit_json(out_dir, "correlate.json", payload, cfg_hash)
    if report.status == "underpowered":
        print("warning: covered range underpowered for the fit", file=sys.stderr)
    return EXIT_OK


def cmd_mixing(cfg: dict, out_dir: str, cfg_hash: str) -> int:
    aut, _ = get_automaton(cfg, out_dir)
    metric = _metrics(cfg, aut.group)[0]
    depth = _metric_depth(metric, int(cfg["thermo"]["depth"]))
    comp = _main_component(aut)
    pot = cylinder_potential(metric, depth)
    report = mixing_check(aut, comp, pot)
    emit_json(
        out_dir,
        "mixing.json",
        {
            "verdict": report.verdict,
            "lattice_gap": report.lattice_gap,
            "arithmeticity": {
                "verdict": report.arithmeticity.verdict,
                "gap": report.arithmeticity.gap,
            },
        },
        cfg_hash,
    )
    return EXIT_OK


def cmd_report(cfg: dict, out_dir: str, cfg_hash: str) -> int:
    status = {}
    for name, handler in (
        ("automaton", cmd_automaton),
        ("analyze", cmd_analyze),
        ("growth", cmd_growth),
        ("mixing", cmd_mixing),
        ("count", cmd_count),
    ):
        status[name] = handler(cfg, out_dir, cfg_hash)
    if len(cfg["metrics"]) == 2:
        status["manhattan"] = cmd_manhattan(cfg, out_dir, cfg_hash)
        status["correlate"] = cmd_correlate(cfg, out_dir, cfg_hash)
    combined = {}
    for name in status:
        path = os.path.join(out_dir, f"{name}.json")
        if os.path.exists(path):
            with open(path) as fh:
                doc = json.load(fh)
            doc.pop("header", None)
            combined[name] = doc
    combined["exit_codes"] = status
    emit_json(out_dir, "report.json", combined, cfg_hash)
    return max(status.values())


COMMANDS = {
    "automaton": cmd_automaton,
    "analyze": cmd_analyze,
    "growth": cmd_growth,
    "manhattan": cmd_manhattan,
    "scan": cmd_scan,
    "count": cmd_count,
    "correlate": cmd_correlate,
    "mixing": cmd_mixing,
    "report": cmd_report,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cannonlab",
        description="geodesic codings, transfer operators and orbit counting",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out", default="runs", help="output directory")
        p.add_argument("--depth", type=int, default=None, help="potential depth")
        p.add_argument("--rcone", type=int, default=None, help="cone radius")
        p.add_argument("--nmax", type=int, default=None, help="counting radius")
        p.add_argument("--eps", type=float, default=None, help="correlation band")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        cfg_hash = config_hash(cfg)
        os.makedirs(args.out, exist_ok=True)
        return COMMANDS[args.command](cfg, args.out, cfg_hash)
    except UnsaturatedError as exc:
        print(f"unsaturated: {exc}", file=sys.stderr)
        return EXIT_UNSATURATED
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (
        ThermoError,
        MetricError,
        ShiftError,
        CountingError,
        ArithmeticError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (AutomatonError, ConfigError, GroupError, KeyError, TypeError, ValueError) as exc:
        print(f"invalid configuration: {exc!r}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
