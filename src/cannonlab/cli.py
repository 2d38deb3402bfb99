"""Command-line pipeline around the library.

Subcommands build the geodesic coding, analyze the shift structure, and
emit growth, Manhattan-curve, spectral-scan, counting, correlation and
mixing artifacts as JSON/CSV files.  Every artifact carries the config
hash in a header; reruns with an identical config are byte-identical.
One ``Run`` per invocation holds what the stages share, so ``report``
builds the group, automaton and metrics once and solves each growth rate
and arithmeticity once.

The automaton is the shortlex acceptor, built once and checked once
against the word problem (``automaton.saturate``).  A passing check is
cached with the automaton under ``<out>/cache/``, so a warm run does no
Dehn enumeration: it recounts the cached acceptor's words and compares
them with the stored sphere sizes.  Every stage but ``automaton`` reads
the acceptor through ``Run.automaton``, which refuses one that failed its
check; ``count`` and ``correlate`` enumerate their balls by walking it,
and so does a ``green_numeric`` build whose ball lies within n_validate.

Exit codes: 0 ok, 2 invalid configuration or failed validation,
4 resource cap exceeded, 5 numeric failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
from functools import cached_property
from typing import Optional

import numpy as np

from . import __version__
from .automaton import (AutomatonError, BijectionReport, GeodesicAutomaton,
                        saturate)
from .counting import (CountingError, correlate, count_ball, error_term_fit,
                       fit_asymptotic)
from .groups import (FreeGroup, GroupError, GroupPresentation, ResourceCapError,
                     SchottkyGroup, SmallCancellationGroup, standard_schottky,
                     surface_group)
from .metrics import (FuchsianOrbit, GreenClosedForm, GreenNumeric,
                      LinearCombination, MetricError, MetricModel,
                      ScaledWordMetric, WordMetric)
from .shift import (ArithmeticityReport, Component, ShiftError, arithmeticity,
                    cross_check_maximal, scc_decompose, word_maximal_components)
from .thermo import (CylinderPotential, ThermoError, TransferOperator,
                     correlation_exponent, cylinder_potential, growth_rate,
                     manhattan_pair, mixing_verdict, spectral_scan)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 4
EXIT_NUMERIC = 5

DEFAULT_CONFIG = {
    "group": {"family": "free", "rank": 2},
    "metrics": [{"kind": "word"}],
    "automaton": {"n_validate": 6},
    "thermo": {"depth": 4},
    "counting": {"n_max": 8, "eps": 0.5},
    "scan": {"t_min": 0.1, "t_max": 10.0, "points": 40},
    "manhattan": {"points": 17},
}


# the keys that each group family and metric kind defines besides its name;
# each other section defines the keys of its defaults
FAMILY_KEYS = {"free": ["rank"], "surface": ["genus"], "schottky": ["traces", "matrices"],
               "small_cancellation": ["generators", "relators"]}
KIND_KEYS = {"word": [], "scaled_word": ["factor"], "green_closed_form": [],
             "green_numeric": ["absorbing_radius", "safety_margin"],
             "fuchsian_orbit": [], "linear_combination": ["terms"]}


# command-line flags: (name, type, config section, key, help)
FLAGS = [
    ("depth", int, "thermo", "depth", "potential depth"),
    ("nmax", int, "counting", "n_max", "counting radius"),
    ("eps", float, "counting", "eps", "correlation band"),
]


class ConfigError(Exception):
    pass


# -- config handling ---------------------------------------------------------

def _field(spec, key: str, kind, default=None):
    """spec[key], or the default (if any) when the key is absent, converted
    by kind; a missing or malformed value is a ConfigError."""
    try:
        value = spec[key] if default is None or key in spec else default
        return kind(value)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad or missing {key!r} in {spec!r}: {exc}") from None


def _real(value) -> float:
    """A finite JSON number as a float.  NaN, infinities, booleans and
    strings are a ValueError, an integer too large for a float is an
    OverflowError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        not math.isfinite(value)
    ):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """A JSON integer or an integral float of at least 1, since every integer
    field counts something; anything else is a ValueError rather than a
    truncated number."""
    if not _real(value).is_integer() or value < 1:
        raise ValueError(f"expected an integer >= 1, got {value!r}")
    return int(value)


def _strings(value) -> list:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise TypeError("expected a list of strings")
    return value


def _matrices(value) -> list:
    mats = [np.array([[_real(x) for x in row] for row in m]) for m in value]
    if any(m.shape != (2, 2) for m in mats):
        raise ValueError("expected 2x2 matrices")
    return mats


def _check_keys(spec, allowed, where: str) -> None:
    unknown = sorted(set(spec) - set(allowed)) if isinstance(spec, dict) else []
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")


def _check_grammar(user: dict) -> None:
    """Every key of the user's config must be defined by its section, group
    family or metric kind, the metrics in ``terms`` included.  Checked
    before the merge, which would add the default group's keys to a group
    of another family.  A malformed section, or a spec of an unknown family
    or kind, is left to the checks that follow."""
    _check_keys(user, DEFAULT_CONFIG, "the config")
    for section, default in DEFAULT_CONFIG.items():
        if isinstance(default, dict) and section != "group":
            _check_keys(user.get(section), default, section)
    group, metrics = user.get("group"), user.get("metrics")
    family = {"family": DEFAULT_CONFIG["group"]["family"]}
    specs = [({**family, **group}, "family")] if isinstance(group, dict) else []
    specs += [(m, "kind") for m in metrics] if isinstance(metrics, list) else []
    while specs:
        spec, tag = specs.pop()
        name = spec.get(tag) if isinstance(spec, dict) else None
        keys = FAMILY_KEYS if tag == "family" else KIND_KEYS
        if not isinstance(name, str) or name not in keys:
            continue
        _check_keys(spec, [tag, *keys[name]], f"{tag} {name!r}")
        terms = spec.get("terms") if name == "linear_combination" else None
        for term in terms if isinstance(terms, list) else []:
            if isinstance(term, list) and len(term) == 2:
                specs.append((term[1], "kind"))


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
        _check_grammar(user)
        cfg = _merge(cfg, user)
    for section, default in DEFAULT_CONFIG.items():
        if isinstance(default, dict) and not isinstance(cfg[section], dict):
            raise ConfigError(f"{section} must be a JSON object")
    if not isinstance(cfg["metrics"], list) or not cfg["metrics"]:
        raise ConfigError("metrics must be a non-empty list")
    for flag, _, section, key, _ in FLAGS:
        if getattr(args, flag, None) is not None:
            cfg[section][key] = getattr(args, flag)
    if len(cfg["metrics"]) > 2:
        raise ConfigError("at most two metrics")
    if _field(cfg["counting"], "eps", _real) <= 0:
        raise ConfigError("counting.eps must be positive")
    # the curve's ends and one interior point, for the midpoint tests
    if _field(cfg["manhattan"], "points", _integer) < 3:
        raise ConfigError("manhattan.points must be at least 3")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def build_group(spec: dict) -> GroupPresentation:
    family = _field(spec, "family", str)
    if family == "free":
        return FreeGroup(_field(spec, "rank", _integer, 2))
    if family == "surface":
        return surface_group(_field(spec, "genus", _integer, 2))
    if family == "small_cancellation":
        return SmallCancellationGroup(
            _field(spec, "generators", _strings), _field(spec, "relators", _strings)
        )
    if family == "schottky":
        if "matrices" in spec:
            if "traces" in spec:
                raise ConfigError("a schottky group takes 'traces' or 'matrices', not both")
            return SchottkyGroup(_field(spec, "matrices", _matrices))
        return standard_schottky(
            _field(spec, "traces", lambda ts: tuple(map(_real, ts)), (3.0, 5.0))
        )
    raise ConfigError(f"unknown group family: {family!r}")


def build_metric(group: GroupPresentation, spec: dict) -> MetricModel:
    kind = _field(spec, "kind", str)
    if kind == "word":
        return WordMetric(group)
    if kind == "scaled_word":
        return ScaledWordMetric(group, _field(spec, "factor", _real))
    if kind == "green_closed_form":
        return GreenClosedForm(group)
    if kind == "green_numeric":
        return GreenNumeric(
            group,
            absorbing_radius=_field(spec, "absorbing_radius", _integer, 30),
            safety_margin=_field(spec, "safety_margin", _integer, 10),
        )
    if kind == "fuchsian_orbit":
        return FuchsianOrbit(group)
    if kind == "linear_combination":
        terms = _field(spec, "terms", lambda ts: [(_real(c), sub) for c, sub in ts])
        return LinearCombination([(c, build_metric(group, sub)) for c, sub in terms])
    raise ConfigError(f"unknown metric kind: {kind!r}")


def _metric_depth(metric: MetricModel, depth: int) -> int:
    """Radial metrics are depth-1 exact; deeper windows only cost time."""
    return 1 if metric.radial_step is not None else depth


# -- the run context ---------------------------------------------------------

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


class Run:
    """One CLI invocation: the config, its hash and output directory, and
    what the stages share.  The group, the automaton with its bijection
    report, the metrics, one potential per metric, the main component, the
    transfer operator of each tuple of potentials on it, and each metric's
    growth rate and arithmeticity are built at most once, on first use: the
    automaton stage builds no metric, and report solves nothing twice."""

    def __init__(self, cfg: dict, out_dir: str):
        self.cfg, self.out_dir, self.cfg_hash = cfg, out_dir, config_hash(cfg)
        self.payloads: dict[str, dict] = {}  # emitted JSON by file name, no header
        self._solved: dict = {}
        self._operators: dict = {}

    def setting(self, section: str, key: str, kind=_integer):
        """A config scalar converted by kind, or a ConfigError."""
        return _field(self.cfg[section], key, kind)

    def emit_json(self, name: str, payload: dict) -> None:
        doc = {
            "header": {"config_sha256": self.cfg_hash, "version": __version__},
            **payload,
        }
        path = os.path.join(self.out_dir, name)
        _atomic_write(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")
        self.payloads[name] = payload

    def emit_csv(self, name: str, body: str) -> None:
        header = f"# config_sha256={self.cfg_hash} version={__version__}\n"
        _atomic_write(os.path.join(self.out_dir, name), header + body)

    @cached_property
    def group(self) -> GroupPresentation:
        return build_group(self.cfg["group"])

    @cached_property
    def built(self) -> tuple[GeodesicAutomaton, BijectionReport]:
        """The acceptor and its report.  A passing check is kept on the
        group as ``automaton.checked_acceptor`` keeps its own, so a Green
        ball within n_validate walks this acceptor with no Dehn work."""
        aut, report = get_automaton(self)
        kept = self.group._checked_acceptor
        if report.ok and (kept is None or kept[1] < report.n_max):
            self.group._checked_acceptor = (aut, report.n_max)
        return aut, report

    @property
    def automaton(self) -> GeodesicAutomaton:
        """The validated acceptor.  A failed bijection check raises
        AutomatonError (exit 2), so no stage computes on it."""
        aut, report = self.built
        if not report.ok:
            raise AutomatonError(f"bijection check failed: {report.first_failure}")
        return aut

    @cached_property
    def metrics(self) -> list[MetricModel]:
        return [build_metric(self.group, spec) for spec in self.cfg["metrics"]]

    @cached_property
    def component(self) -> Component:
        return word_maximal_components(self.automaton)[0]

    @cached_property
    def potentials(self) -> list[CylinderPotential]:
        depth = self.setting("thermo", "depth")
        return [cylinder_potential(m, _metric_depth(m, depth)) for m in self.metrics]

    def operator(self, *potentials: CylinderPotential) -> TransferOperator:
        """The operator of the potentials on the main component, compiled
        once per run."""
        if potentials not in self._operators:
            self._operators[potentials] = TransferOperator(
                self.automaton, self.component.vertices, potentials
            )
        return self._operators[potentials]

    def growth_rate(self, i: int) -> float:
        return self._once(growth_rate, i)

    def arithmeticity(self, i: int) -> ArithmeticityReport:
        return self._once(arithmeticity, i)

    def _once(self, solve, i: int):
        """solve(automaton, main component, potential i), memoized, on the
        potential's operator."""
        if (solve, i) not in self._solved:
            pot = self.potentials[i]
            self._solved[solve, i] = solve(
                self.automaton, self.component, pot, op=self.operator(pot)
            )
        return self._solved[solve, i]


AUTOMATON_CACHE = "automaton-cache/5"  # in the cache key; bump on a format change


def _automaton_digest(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def get_automaton(run: Run) -> tuple[GeodesicAutomaton, BijectionReport]:
    """The shortlex acceptor for the run's group and its bijection report,
    from the on-disk cache or from ``saturate``.  The cache key hashes the
    cache format, the package version, the group spec and n_validate.  An
    entry is the automaton JSON plus the passing report under "bijection"
    and one sha256 over both under "sha256"; a failed check is not cached.
    A loaded entry must also recount: its acceptor's words of each length
    up to n_validate must match the stored counts and sphere sizes.  An
    entry that fails to parse or load, or fails either check, is a cache
    miss: rebuilt and overwritten, with one line on stderr."""
    n_validate = run.setting("automaton", "n_validate")
    key = config_hash({"cache": AUTOMATON_CACHE, "version": __version__,
                       "group": run.cfg["group"], "n_validate": n_validate})
    cache_path = os.path.join(run.out_dir, "cache", f"automaton-{key}.json")
    if os.path.exists(cache_path):
        try:
            with open(cache_path) as fh:
                doc = json.load(fh)
            digest = doc.pop("sha256", None)
            if digest == _automaton_digest(doc):
                report = BijectionReport(**doc.pop("bijection"))
                aut = GeodesicAutomaton.from_dict(doc, run.group)
                counts = aut.accepted_counts(n_validate)
                if report.ok and counts == report.accepted_counts == report.sphere_sizes:
                    return aut, report
        except (AttributeError, AutomatonError, LookupError, TypeError, ValueError):
            pass
        print(f"automaton cache entry {cache_path} failed its check; rebuilding",
              file=sys.stderr)
    aut, report = saturate(run.group, n_validate)
    if report.ok:
        entry = {**aut.to_dict(), "bijection": dataclasses.asdict(report)}
        entry["sha256"] = _automaton_digest(entry)
        _atomic_write(cache_path, json.dumps(entry, indent=1, sort_keys=True))
    return aut, report


# -- subcommands -------------------------------------------------------------

def cmd_automaton(run: Run) -> int:
    aut, report = run.built
    run.emit_json("automaton.json", aut.to_dict())
    run.emit_json("bijection.json", dataclasses.asdict(report))
    if not report.ok:
        print("bijection validation failed", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_analyze(run: Run) -> int:
    aut = run.automaton
    payload = {
        "components": [
            {
                "index": c.index,
                "size": len(c.vertices),
                "period": c.period,
                "trivial": c.trivial,
            }
            for c in scc_decompose(aut)
        ],
        "metrics": [],
    }
    ok = True
    for i, metric in enumerate(run.metrics):
        v_d = run.growth_rate(i)
        pot = run.potentials[i]
        cross = cross_check_maximal(aut, pot, v_d, op=run.operator(pot))
        arith = run.arithmeticity(i)
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
    run.emit_json("analyze.json", payload)
    if not ok:
        print("maximal-component cross-check failed", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_growth(run: Run) -> int:
    rates = {m.kind: run.growth_rate(i) for i, m in enumerate(run.metrics)}
    run.emit_json("growth.json", {"growth_rates": rates})
    return EXIT_OK


def cmd_manhattan(run: Run) -> int:
    if len(run.cfg["metrics"]) != 2:
        raise ConfigError("manhattan needs exactly two metrics")
    aut, comp, (pot_a, pot_b) = run.automaton, run.component, run.potentials
    v_b = run.growth_rate(1)
    points = run.setting("manhattan", "points")
    grid = np.linspace(0.0, v_b, points)
    op = run.operator(pot_a, pot_b)
    theta = [manhattan_pair(aut, comp, pot_a, pot_b, float(t), op=op) for t in grid]
    mid = theta[points // 2]
    affine = abs(mid - 0.5 * (theta[0] + theta[-1])) < 1e-9
    convex_ok = all(
        theta[i + 1] <= 0.5 * (theta[i] + theta[i + 2]) + 1e-9
        for i in range(points - 2)
    )
    body = "t,theta\n" + "".join(
        f"{float(t)!r},{float(th)!r}\n" for t, th in zip(grid, theta)
    )
    run.emit_csv("manhattan.csv", body)
    run.emit_json(
        "manhattan.json",
        {
            "theta_at_0": theta[0],
            "theta_at_end": theta[-1],
            "end": float(v_b),
            "affine": affine,
            "midpoint_convex": convex_ok,
        },
    )
    if affine:
        print("warning: affine Manhattan curve (dependent pair)", file=sys.stderr)
    return EXIT_OK


def cmd_scan(run: Run) -> int:
    v = run.growth_rate(0)
    grid = np.linspace(
        run.setting("scan", "t_min", _real),
        run.setting("scan", "t_max", _real),
        run.setting("scan", "points"),
    )
    potential = run.potentials[0]
    points = spectral_scan(run.automaton, run.component, potential, v,
                           [float(t) for t in grid], op=run.operator(potential))
    body = "t,rho,unit_distance,gap,exact\n" + "".join(
        f"{p.t!r},{p.rho!r},{p.unit_distance!r},{p.gap!r},{int(p.exact)}\n"
        for p in points
    )
    run.emit_csv("scan.csv", body)
    run.emit_json(
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
    )
    return EXIT_OK


def cmd_count(run: Run) -> int:
    v = run.growth_rate(0)
    report = count_ball(
        run.metrics[0], run.setting("counting", "n_max"), automaton=run.automaton
    )
    fit = fit_asymptotic(report, delta_hint=v)
    payload = json.loads(report.to_json())
    payload["validated_to"] = run.built[1].n_max
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
    run.emit_csv("count.csv", report.to_csv())
    run.emit_json("count.json", payload)
    return EXIT_OK


def cmd_correlate(run: Run) -> int:
    if len(run.cfg["metrics"]) != 2:
        raise ConfigError("correlate needs exactly two metrics")
    normalized = [
        LinearCombination([(run.growth_rate(i), m)]) for i, m in enumerate(run.metrics)
    ]
    pots = [
        cylinder_potential(norm, pot.depth)
        for norm, pot in zip(normalized, run.potentials)
    ]
    ce = correlation_exponent(run.automaton, run.component, pots[0], pots[1])
    report = correlate(
        normalized[0],
        normalized[1],
        run.setting("counting", "eps", _real),
        run.setting("counting", "n_max"),
        alpha_thermo=ce.alpha,
        automaton=run.automaton,
    )
    payload = json.loads(report.to_json())
    payload["correlation_exponent"] = {
        "alpha": ce.alpha,
        "xi": ce.xi,
        "degenerate": ce.degenerate,
    }
    run.emit_csv("correlate.csv", report.to_csv())
    run.emit_json("correlate.json", payload)
    if report.status == "underpowered":
        print("warning: covered range underpowered for the fit", file=sys.stderr)
    return EXIT_OK


def cmd_mixing(run: Run) -> int:
    report = mixing_verdict(run.arithmeticity(0))
    run.emit_json(
        "mixing.json",
        {
            "verdict": report.verdict,
            "lattice_gap": report.lattice_gap,
            "arithmeticity": {
                "verdict": report.arithmeticity.verdict,
                "gap": report.arithmeticity.gap,
            },
        },
    )
    return EXIT_OK


def cmd_report(run: Run) -> int:
    """Every applicable stage on the one run, then report.json from the
    payloads they emitted."""
    stages = [
        ("automaton", cmd_automaton),
        ("analyze", cmd_analyze),
        ("growth", cmd_growth),
        ("mixing", cmd_mixing),
        ("count", cmd_count),
    ]
    if len(run.cfg["metrics"]) == 2:
        stages += [("manhattan", cmd_manhattan), ("correlate", cmd_correlate)]
    status = {name: handler(run) for name, handler in stages}
    combined = {
        name: run.payloads[f"{name}.json"]
        for name in status
        if f"{name}.json" in run.payloads
    }
    combined["exit_codes"] = status
    run.emit_json("report.json", combined)
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
        for flag, kind, _, _, text in FLAGS:
            p.add_argument(f"--{flag}", type=kind, default=None, help=text)
    return parser


def main(argv: Optional[list] = None) -> int:
    """Run one subcommand.  Library and numeric failures map to exit codes;
    any other exception is a programming error and propagates."""
    args = make_parser().parse_args(argv)
    try:
        run = Run(load_config(args.config, args), args.out)
        os.makedirs(args.out, exist_ok=True)
        return COMMANDS[args.command](run)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ThermoError, MetricError, ShiftError, CountingError, ArithmeticError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (AutomatonError, ConfigError, GroupError) as exc:
        print(f"invalid configuration: {exc!r}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
