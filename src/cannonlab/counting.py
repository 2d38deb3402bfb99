"""Brute-force orbital counting and asymptotic diagnostics.

Counts N(T) = #{x : d(o,x) < T} exactly over word balls, compares direct
Poincare partial sums with their transfer-operator form, fits the leading
exponential asymptotic and the power-saving error term, and produces the
pair-correlation counts for two metrics on the same group.

Balls are enumerated by halves, with no walk of the ball: every word of
length n is a prefix of ceil(n/2) letters followed by a suffix of
floor(n/2), so the acceptor walks two small tables (``Halves``) and each
metric's ``meet`` fills the spheres from (prefix, suffix slice) blocks.
Everything here is single-threaded and deterministic.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .automaton import GeodesicAutomaton, checked_acceptor
from .metrics import MetricModel
from .shift import Component, word_maximal_components
from .thermo import CylinderPotential, TransferOperator

DEFAULT_BALL_CAP = 20_000_000
GRID_POINTS = 120
OSCILLATION = 0.05  # relative spread of N(T)e^{-delta T} over the last third


class CountingError(Exception):
    pass


_CHUNK = 1 << 14  # words per block of a sphere, or one prefix


def sphere_distance_arrays(
    metric: MetricModel, n_max: int, cap: int = DEFAULT_BALL_CAP,
    automaton: Optional[GeodesicAutomaton] = None,
) -> list[np.ndarray]:
    """Distances d(o,x) grouped by word length |x|_S = 0..n_max: the words
    of the acceptor that ``checked_acceptor`` picks, by halves through the
    metric's ``meet`` (``_ball_arrays``).  Each sphere is in shortlex order
    (that of ``group.sphere_words``), so arrays for metrics on the same
    group may be combined entrywise.  The spheres are views of one array
    over the ball."""
    (ball,), sizes = _ball_arrays([metric], n_max, cap, automaton)
    return _spheres(ball, sizes)


def _spheres(ball: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """The spheres of a ball array, as views."""
    return np.split(ball, np.cumsum(sizes)[:-1])


def _ball_arrays(
    metrics: Sequence[MetricModel], n_max: int, cap: int,
    automaton: Optional[GeodesicAutomaton] = None,
    vertices: Optional[frozenset] = None,
) -> tuple[list[np.ndarray], list[int]]:
    """The distances of every metric over the ball, sphere after sphere in
    shortlex order, and the sphere sizes.  The sizes are counted first, and
    a ball larger than ``cap`` raises before any array is allocated.  The
    acceptor then walks the halves once (``_halves``), each metric meets
    them once, and each sphere is filled straight into place, block by
    block (``Halves.blocks``): at most _CHUNK words, or one prefix, at a
    time.  Shortlex order is prefix-major, so each row of a block is one
    run of its sphere."""
    automaton = checked_acceptor(metrics[0].group, automaton, n_max, cap, CountingError)
    sizes = automaton.accepted_counts(n_max, vertices, cap)
    # the result before the halves: the other way round, repeated balls
    # raised the process's peak RSS by about 5 MB
    balls = [np.empty(sum(sizes)) for _ in metrics]
    halves = automaton._halves([automaton.initial], n_max, vertices)
    meets = [m.meet(halves) for m in metrics]
    for n, spheres in enumerate(zip(*(_spheres(ball, sizes) for ball in balls))):
        halves.fill(n, meets, spheres, _CHUNK)
    return balls, sizes


# -- ball counts -------------------------------------------------------------

@dataclass
class FitResult:
    c: float
    delta: float
    delta_source: str
    t_grid: np.ndarray
    residuals: np.ndarray  # N(T) e^{-delta T} / C - 1 on the grid
    variation: float  # relative spread of N e^{-delta T} over the last third
    oscillation: bool
    estimator_gap: float  # |C_lsq - C_ratio| / C


@dataclass
class CountReport:
    metric_tag: str
    n_max: int
    sphere_sizes: list[int]
    distances: np.ndarray  # sorted over the ball
    t_cov: float
    fitted: Optional[FitResult] = None

    def count(self, t: float) -> int:
        """N(T) with the strict convention d(o,x) < T."""
        return int(np.searchsorted(self.distances, t, side="left"))

    def counts(self, t_values: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.distances, t_values, side="left")

    def to_json(self) -> str:
        doc = {
            "schema": "count-report/1",
            "metric": self.metric_tag,
            "n_max": self.n_max,
            "ball_size": int(len(self.distances)),
            "sphere_sizes": [int(s) for s in self.sphere_sizes],
            "t_cov": self.t_cov,
        }
        if self.fitted is not None:
            f = self.fitted
            doc["fit"] = {
                "c": f.c,
                "delta": f.delta,
                "delta_source": f.delta_source,
                "variation": f.variation,
                "oscillation": f.oscillation,
                "estimator_gap": f.estimator_gap,
            }
        return json.dumps(doc, indent=1, sort_keys=True)

    def to_csv(self) -> str:
        """Plot-ready columns: T, N(T), residual (blank without a fit)."""
        buf = io.StringIO()
        if self.fitted is not None:
            grid, resid = self.fitted.t_grid, self.fitted.residuals
        else:
            grid = np.linspace(0.0, self.t_cov, GRID_POINTS)
            resid = None
        counts = self.counts(grid)
        buf.write("T,N,residual\n")
        for i, t in enumerate(grid):
            r = "" if resid is None else repr(float(resid[i]))
            buf.write(f"{t!r},{int(counts[i])},{r}\n")
        return buf.getvalue()


def count_ball(
    metric: MetricModel, n_max: int, cap: int = DEFAULT_BALL_CAP,
    automaton: Optional[GeodesicAutomaton] = None,
) -> CountReport:
    """Exact multiset of d(o,x) over the word ball of radius n_max,
    enumerated as ``sphere_distance_arrays`` does.

    N(T) is complete below t_cov, the least distance on the outermost
    sphere: every element beyond the ball is at least that far out.
    """
    (distances,), sizes = _ball_arrays([metric], n_max, cap, automaton)
    t_cov = float(distances[-sizes[n_max]:].min()) if n_max >= 1 else 0.0
    distances.sort()
    return CountReport(
        metric_tag=metric.kind,
        n_max=n_max,
        sphere_sizes=sizes,
        distances=distances,
        t_cov=t_cov,
    )


def report_from_step_function(
    t_grid: Sequence[float], n_values: Sequence[int], metric_tag: str = "synthetic"
) -> CountReport:
    """Manufacture a report whose N(T) hits the given values on the grid;
    used to validate the fitting code on closed-form inputs."""
    t = np.asarray(t_grid, dtype=float)
    n = np.asarray(n_values, dtype=np.int64)
    if len(t) != len(n) or np.any(np.diff(t) <= 0) or np.any(np.diff(n) < 0):
        raise CountingError("grid must be increasing and counts nondecreasing")
    # place the jump to N_k at T_k, so N(T_k + 0) = n_k exactly
    chunks = [np.full(int(n[0]), t[0])]
    for k in range(1, len(t)):
        chunks.append(np.full(int(n[k] - n[k - 1]), t[k]))
    distances = np.sort(np.concatenate(chunks))
    return CountReport(
        metric_tag=metric_tag,
        n_max=0,
        sphere_sizes=[],
        distances=distances,
        t_cov=float(t[-1]),
    )


# -- asymptotic fits ---------------------------------------------------------

def _fit_grid(report: CountReport) -> np.ndarray:
    lo = float(report.distances[0])
    lo = max(lo, 1e-9) + 1e-9
    if report.t_cov <= lo:
        raise CountingError("covered range is empty")
    return np.linspace(lo, report.t_cov, GRID_POINTS)


def _linregress(x, y) -> tuple[float, float, float]:
    """Least-squares line through the points (x, y): slope, intercept and
    the slope's standard error, by the formulas of scipy.stats.linregress
    and with its bits.  The x values must not all be equal."""
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    n = len(x)
    stderr = 0.0 if n == 2 else np.sqrt((1 - r**2) * ssym / ssxm / (n - 2))
    return slope, np.mean(y) - slope * np.mean(x), stderr


def fit_asymptotic(report: CountReport, delta_hint: Optional[float] = None) -> FitResult:
    """Fit N(T) ~ C e^{delta T} over the covered range.

    delta comes from the hint (a pressure-equation growth rate) when given,
    else from a log-slope regression.  C averages N(T)e^{-delta T} over the
    last third; a large relative spread there raises the oscillation flag,
    the expected outcome for arithmetic length spectra.
    """
    grid = _fit_grid(report)
    counts = report.counts(grid).astype(float)
    keep = counts > 0
    grid, counts = grid[keep], counts[keep]
    tail = grid >= grid[0] + 2.0 * (grid[-1] - grid[0]) / 3.0
    if int(tail.sum()) < 20:
        raise CountingError("not enough fitting windows in the last third")
    slope, intercept, _ = _linregress(grid[tail], np.log(counts[tail]))
    if delta_hint is not None:
        delta, source = float(delta_hint), "hint"
    else:
        delta, source = float(slope), "log_slope"
    scaled = counts * np.exp(-delta * grid)
    c_ratio = float(np.mean(scaled[tail]))
    c_lsq = float(np.exp(intercept + (slope - delta) * np.mean(grid[tail])))
    variation = float(
        (scaled[tail].max() - scaled[tail].min()) / np.mean(scaled[tail])
    )
    gap = abs(c_lsq - c_ratio) / c_ratio
    result = FitResult(
        c=c_ratio,
        delta=delta,
        delta_source=source,
        t_grid=grid,
        residuals=scaled / c_ratio - 1.0,
        variation=variation,
        oscillation=bool(variation > OSCILLATION or gap > 0.02),
        estimator_gap=gap,
    )
    report.fitted = result
    return result


@dataclass
class KappaFit:
    kappa: float
    stderr: float
    status: str  # "ok" or "unresolved"
    points: int


def error_term_fit(report: CountReport, c: float, delta: float) -> KappaFit:
    """log-log regression of |N(T)e^{-delta T}/C - 1| against T, estimating
    the power saving kappa in the error term O(T^{-kappa}).  Diagnostic
    only; refuses arithmetic inputs where the model does not apply."""
    if report.fitted is not None and report.fitted.oscillation:
        raise CountingError("oscillatory residuals: error-term fit refused")
    # sample at the jump locations: N(T_k + 0) pairs with T_k without the
    # lag bias a uniform grid would introduce between steps
    grid = np.unique(report.distances)
    grid = grid[(grid > 1e-9) & (grid <= report.t_cov)]
    counts = np.searchsorted(report.distances, grid, side="right").astype(float)
    resid = np.abs(counts * np.exp(-delta * grid) / c - 1.0)
    # keep points where the residual clears both numeric noise and the
    # integer-rounding floor of the counts themselves
    keep = (counts >= 10) & (resid > 1e-12) & (resid > 5.0 / np.maximum(counts, 1))
    if int(keep.sum()) < 5:
        return KappaFit(kappa=float("nan"), stderr=float("nan"),
                        status="unresolved", points=int(keep.sum()))
    slope, _, stderr = _linregress(np.log(grid[keep]), np.log(resid[keep]))
    return KappaFit(
        kappa=float(-slope),
        stderr=float(stderr),
        status="ok",
        points=int(keep.sum()),
    )


# -- Poincare series ---------------------------------------------------------

@dataclass
class PoincareComparison:
    s: float
    n_max: int
    direct_sphere_sums: np.ndarray  # full Sigma_{|x|=n} e^{-s d(o,x)}
    restricted_direct: dict  # component index -> per-n subsums
    restricted_operator: dict  # component index -> per-n subsums
    max_rel_mismatch: float
    beta_content: np.ndarray  # per-n full sum minus maximal-component subsums
    diverging: bool
    abscissa_estimate: Optional[float]


def _restricted_direct_sums(
    aut: GeodesicAutomaton,
    metric: MetricModel,
    comp: Component,
    s: float,
    n_max: int,
    cap: int,
) -> np.ndarray:
    """Sigma e^{-s d(o,x)} over length-n elements whose accepted path runs
    inside the component, one sphere at a time."""
    (ball,), sizes = _ball_arrays([metric], n_max, cap, aut, comp.vertices)
    sums = np.array([np.sum(np.exp(-s * d)) for d in _spheres(ball, sizes)])
    sums[0] = 0.0
    return sums


def poincare_compare(
    aut: GeodesicAutomaton,
    metric: MetricModel,
    s: float,
    n_max: int,
    comps: Optional[Sequence[Component]] = None,
    cap: int = DEFAULT_BALL_CAP,
) -> PoincareComparison:
    """Partial sums of eta(s) = Sigma_x e^{-s d(o,x)} two ways.

    The restricted subsum over a word-maximal component equals
    (A^n 1_{V - init})(init) for the weighted depth-1 transfer matrix A on
    V, the component plus the start state: it sums the n-edge paths from
    the start that stay in the component.  The depth-1 increment potential
    makes the two routes sum identical weights whenever distance increments
    depend only on the last letter; otherwise the gap is reported, not
    hidden.
    """
    if comps is None:
        comps = word_maximal_components(aut)
    pot = CylinderPotential(metric, 1)
    full = sphere_distance_arrays(metric, n_max, cap, aut)
    direct_sphere = np.array(
        [float(np.sum(np.exp(-s * a))) for a in full]
    )
    direct_sphere[0] = 0.0  # eta starts at n = 1

    restricted_d: dict[int, np.ndarray] = {}
    restricted_o: dict[int, np.ndarray] = {}
    worst = 0.0
    for comp in comps:
        restricted_d[comp.index] = _restricted_direct_sums(
            aut, metric, comp, s, n_max, cap
        )
        vertices = comp.vertices | {aut.initial}
        mat = TransferOperator(aut, vertices, [pot], depth=1).matrix([-s])
        start = sorted(vertices).index(aut.initial)  # depth-1 blocks: the sorted vertices
        vec = np.ones(mat.shape[0])
        vec[start] = 0.0
        ops = np.zeros(n_max + 1)
        for n in range(1, n_max + 1):
            vec = mat @ vec
            ops[n] = vec[start]
        restricted_o[comp.index] = ops
        denom = np.maximum(np.abs(restricted_d[comp.index]), 1e-300)
        worst = max(
            worst,
            float(np.max(np.abs(ops - restricted_d[comp.index]) / denom)),
        )

    covered = sum(restricted_d.values())
    beta = direct_sphere - covered

    tail = direct_sphere[max(1, n_max - 4):]
    log_ratio = np.diff(np.log(np.maximum(tail, 1e-300)))
    diverging = bool(np.all(log_ratio > 1e-3))
    abscissa = None
    if diverging:
        inc = np.array([float(np.mean(a)) for a in full[1:]])
        mean_step = float(np.mean(np.diff(inc))) if len(inc) > 1 else 1.0
        abscissa = s + float(np.mean(log_ratio)) / max(mean_step, 1e-12)
    return PoincareComparison(
        s=s,
        n_max=n_max,
        direct_sphere_sums=direct_sphere,
        restricted_direct=restricted_d,
        restricted_operator=restricted_o,
        max_rel_mismatch=worst,
        beta_content=beta,
        diverging=diverging,
        abscissa_estimate=abscissa,
    )


# -- pair correlation --------------------------------------------------------

@dataclass
class CorrelationReport:
    eps: float
    n_max: int
    t_cov: float
    d_values: np.ndarray  # joint list over the ball, element-aligned
    dstar_values: np.ndarray
    status: str  # "ok", "underpowered" or "degenerate"
    alpha_thermo: Optional[float]
    fitted_exponent: Optional[float] = None
    fitted_exponent_sqrt: Optional[float] = None
    resid_norm_plain: Optional[float] = None
    resid_norm_sqrt: Optional[float] = None
    sqrt_model_better: Optional[bool] = None

    def count(self, t: float, eps: Optional[float] = None) -> int:
        """M(T) = #{d <= T, |d* - d| <= eps}, weak inequalities."""
        e = self.eps if eps is None else eps
        mask = np.abs(self.dstar_values - self.d_values) <= e
        return int(np.sum(self.d_values[mask] <= t))

    def to_json(self) -> str:
        doc = {
            "schema": "correlation-report/1",
            "eps": self.eps,
            "n_max": self.n_max,
            "t_cov": self.t_cov,
            "ball_size": int(len(self.d_values)),
            "status": self.status,
            "alpha_thermo": self.alpha_thermo,
            "fitted_exponent": self.fitted_exponent,
            "fitted_exponent_sqrt": self.fitted_exponent_sqrt,
            "resid_norm_plain": self.resid_norm_plain,
            "resid_norm_sqrt": self.resid_norm_sqrt,
            "sqrt_model_better": self.sqrt_model_better,
        }
        return json.dumps(doc, indent=1, sort_keys=True)

    def to_csv(self) -> str:
        sel = np.sort(
            self.d_values[np.abs(self.dstar_values - self.d_values) <= self.eps]
        )
        grid = np.linspace(max(1e-9, float(sel[0])) + 1e-9, self.t_cov, GRID_POINTS)
        buf = io.StringIO()
        buf.write("T,M\n")
        for t in grid:
            buf.write(f"{t!r},{int(np.searchsorted(sel, t, side='right'))}\n")
        return buf.getvalue()


def correlate(
    metric_d: MetricModel,
    metric_dstar: MetricModel,
    eps: float,
    n_max: int,
    alpha_thermo: Optional[float] = None,
    cap: int = DEFAULT_BALL_CAP,
    automaton: Optional[GeodesicAutomaton] = None,
) -> CorrelationReport:
    """Exact pair-correlation counts M(T) for two growth-normalized metrics
    on one group, from one walk of the halves, with exponential fits with and
    without the 1/sqrt(T) correction."""
    if eps <= 0:
        raise CountingError("eps must be positive")
    if metric_d.group is not metric_dstar.group:
        raise CountingError("metrics live on different groups")
    (d_vals, star_vals), sizes = _ball_arrays(
        [metric_d, metric_dstar], n_max, cap, automaton
    )
    t_cov = float(d_vals[-sizes[n_max]:].min()) if n_max >= 1 else 0.0

    gap = np.subtract(star_vals, d_vals)
    np.abs(gap, out=gap)  # in place: one temporary the size of the ball
    degenerate = bool(gap.max() <= eps)
    near = gap <= eps
    del gap
    sel = d_vals[near]
    sel.sort()

    report = CorrelationReport(
        eps=eps,
        n_max=n_max,
        t_cov=t_cov,
        d_values=d_vals,
        dstar_values=star_vals,
        status="degenerate" if degenerate else "ok",
        alpha_thermo=alpha_thermo,
    )

    # sample M at its own jump points inside the upper part of the covered
    # range; for an arithmetic d this removes the step-phase artifacts a
    # uniform grid would pick up
    t_fit = np.unique(sel[(sel >= 0.55 * t_cov) & (sel <= t_cov)])
    if len(t_fit) > 4000:
        t_fit = t_fit[:: len(t_fit) // 4000]
    m_vals = np.searchsorted(sel, t_fit, side="right").astype(float)
    if t_cov <= 0 or len(t_fit) < 6 or m_vals[0] < 50:
        if not degenerate:
            report.status = "underpowered"
        return report

    logm = np.log(m_vals)
    slope, intercept, _ = _linregress(t_fit, logm)
    slope_sqrt, intercept_sqrt, _ = _linregress(t_fit, logm + 0.5 * np.log(t_fit))
    report.fitted_exponent = float(slope)
    report.fitted_exponent_sqrt = float(slope_sqrt)
    # model comparison at the pinned exponent when available: does adding
    # the 1/sqrt(T) factor explain the counts better than pure exponential?
    pinned = alpha_thermo
    if pinned is None:
        resid_plain = logm - (intercept + slope * t_fit)
        resid_sqrt = (
            logm + 0.5 * np.log(t_fit) - (intercept_sqrt + slope_sqrt * t_fit)
        )
    else:
        dev_plain = logm - pinned * t_fit
        dev_sqrt = logm - pinned * t_fit + 0.5 * np.log(t_fit)
        resid_plain = dev_plain - np.mean(dev_plain)
        resid_sqrt = dev_sqrt - np.mean(dev_sqrt)
    report.resid_norm_plain = float(np.linalg.norm(resid_plain))
    report.resid_norm_sqrt = float(np.linalg.norm(resid_sqrt))
    report.sqrt_model_better = bool(
        report.resid_norm_sqrt < report.resid_norm_plain
    )
    return report
