"""Thermodynamic formalism on the coding subshift.

Metrics enter as depth-k cylinder potentials: the value on a window of k
edge labels is d(o, ev(window)) - d(o, ev(window minus its first edge)).
Transfer matrices live on (k-1)-edge blocks of a component; pressures are
log Perron roots, growth rates are pressure zeros, Manhattan curves are
pressure level sets, and the correlation exponent comes from the slope -1
point of the Manhattan curve.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .automaton import GeodesicAutomaton
from .groups import Word
from .metrics import MetricModel
from .shift import ArithmeticityReport, Component, arithmeticity


class ThermoError(Exception):
    pass


class CylinderPotential:
    """Depth-k locally constant approximation of the metric potential.

    Operators evaluate it on all their windows at once (``op.psi``); the
    one-window ``value`` and one-orbit ``cycle_sum`` are references, bit for
    bit.  Values depend only on the label word of a window, so one lazy
    table, filled by ``value`` from the metric's ``dist_word``, serves every
    component of the same automaton.
    """

    def __init__(self, metric: MetricModel, depth: int):
        if depth < 1:
            raise ThermoError("depth must be >= 1")
        self.metric = metric
        self.depth = depth
        self._table: dict[Word, float] = {}

    def value(self, labels: Word) -> float:
        """Psi on the window; windows shorter than the depth are evaluated
        with their own length (exact truncation at path ends)."""
        v = self._table.get(labels)
        if v is None:
            step = self.metric.radial_step
            # windows of accepted paths are geodesic: a radial metric reads
            # step * length on them without the word problem
            d = self.metric.dist_word if step is None else lambda w: step * len(w)
            v = d(labels) - d(labels[1:]) if labels else 0.0
            self._table[labels] = v
        return v

    def cycle_sum(self, labels: Word) -> float:
        """Birkhoff sum around a periodic orbit (windows wrap)."""
        n = len(labels)
        ext = labels + labels * (self.depth // n + 1)
        return sum(self.value(ext[i : i + self.depth]) for i in range(n))

    def at_depth(self, depth: int) -> "CylinderPotential":
        return CylinderPotential(self.metric, depth)


def cylinder_potential(metric: MetricModel, depth: int) -> CylinderPotential:
    return CylinderPotential(metric, depth)


def truncation_error(
    aut: GeodesicAutomaton,
    comp: Component,
    potential: CylinderPotential,
) -> float:
    """epsilon_k = max |Psi^(k+1) - Psi^(k)| over every admissible window of
    k+1 edges in the component."""
    k = potential.depth
    op = TransferOperator(
        aut, comp.vertices, [potential.at_depth(k + 1), potential], depth=k + 1
    )
    if op.psi.shape[1] == 0:
        raise ThermoError("component admits no windows at this depth")
    return float(np.max(np.abs(op.psi[0] - op.psi[1])))


# -- transfer operators ------------------------------------------------------

def _paths(aut: GeodesicAutomaton, vertices: frozenset, n_max: int):
    """The paths of 0..n_max edges inside a vertex set, one level at a time,
    walked from every vertex in sorted order, so each level is ordered by
    start vertex, then shortlex.  Per level: the Level, ``tail``, the index
    in the previous level of each path minus its first edge, and ``indptr``,
    where the children of each previous path begin (CSR row pointers); both
    are None at level 0."""
    starts = np.array(sorted(vertices), dtype=np.int64)
    tail = indptr = None
    for level in aut._levels(starts, n_max, vertices):
        if level.length:
            prev_indptr, prev_tail = indptr, tail
            indptr = np.searchsorted(level.parent, np.arange(size + 1))
            rank = np.arange(len(level.parent)) - indptr[level.parent]
            # a path and its tail end in the same state, so they have the
            # same children in the same order
            tail = (
                np.searchsorted(starts, level.state) if level.length == 1
                else prev_indptr[prev_tail[level.parent]] + rank
            )
        size = len(level.state)
        yield level, tail, indptr


@dataclass
class TransferMatrix:
    """Block structure of a transfer operator.  ``walk`` holds the (Level,
    tail, indptr) of the paths of 0..depth edges, from ``_paths``: block i
    is path i of depth-1 edges, and window e is path e of depth edges.
    ``matrix`` is a CSR matrix with one stored entry of 1 per window, in
    walk order, from the block of its first depth-1 edges to the block of
    its last.  Parallel windows between two blocks (possible at depth 1)
    are separate entries, which sparse products and toarray() add up."""

    matrix: scipy.sparse.csr_matrix
    walk: list

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def transfer_matrix(
    aut: GeodesicAutomaton, vertices: frozenset, depth: int
) -> TransferMatrix:
    """The block structure on a vertex set, from one walk of the paths: a
    depth-edge window is a transition from the block of its first depth-1
    edges (its parent) to the block of its last depth-1 edges (its tail)."""
    walk = list(_paths(aut, vertices, depth))
    _, tail, indptr = walk[-1]
    n = len(indptr) - 1  # the blocks
    mat = scipy.sparse.csr_matrix((np.ones(len(tail)), tail, indptr), shape=(n, n))
    return TransferMatrix(mat, walk)


class TransferOperator:
    """A transfer operator compiled once per (automaton, vertex set, depth,
    potentials): the block structure plus one float64 array psi_i per
    potential, holding its value on every window (edge).  ``matrix(c)``
    evaluates exp(sum_i c_i psi_i) on every edge in one vectorized step.
    psi(window) = D_j[prefix] - D_(j-1)[tail[prefix]] for the window's j-edge
    prefix, j = min(potential depth, operator depth), D_j the distances of
    the j-edge paths, which the metric's ``meet`` reads off the halves of
    the operator's walk (``_distances``): bit for bit
    ``CylinderPotential.value``."""

    def __init__(
        self,
        aut: GeodesicAutomaton,
        vertices: frozenset,
        potentials: Sequence[CylinderPotential],
        depth: Optional[int] = None,
    ):
        k = depth if depth is not None else max(p.depth for p in potentials)
        self.structure = transfer_matrix(aut, vertices, k)
        self.vertices, self.depth = vertices, k
        walk = self.structure.walk
        halves = aut._halves(walk[0][0].state, k, vertices)
        self.psi = np.empty((len(potentials), self.structure.matrix.nnz))
        for i, p in enumerate(potentials):
            j, meet = min(p.depth, k), p.metric.meet(halves)
            row = _distances(halves, meet, j) - _distances(halves, meet, j - 1)[walk[j][1]]
            for level, _, _ in walk[j + 1 :]:
                row = row[level.parent]  # from each prefix to its extensions
            self.psi[i] = row

    def matrix(self, c: Sequence[complex]) -> scipy.sparse.csr_matrix:
        """The operator with edge weights exp(sum_i c_i psi_i); complex
        coefficients give a complex matrix."""
        s = self.structure.matrix
        return scipy.sparse.csr_matrix(
            (np.exp(np.asarray(c) @ self.psi), s.indices, s.indptr), shape=s.shape
        )


def _distances(halves, meet, n: int) -> np.ndarray:
    """D_n: the distances of the paths of n edges of ``halves``, in walk
    order, from a metric's ``meet``."""
    d = np.empty(halves.size(n))
    halves.fill(n, [meet], [d], len(d))
    return d


# -- the spectral routine ----------------------------------------------------

# Below this size dense LAPACK eig beats ARPACK (one BLAS thread: crossover
# 36-108 blocks on transfer matrices, 64-80 on random 3-per-row matrices).
DENSE_BELOW = 64
RESIDUAL_TOL = 1e-10  # ||A x - lam x|| <= RESIDUAL_TOL * |lam| for a unit x
TIE_RTOL = 1e-10  # moduli this close (relative) count as tied


@dataclass
class Eigenpair:
    value: complex
    right: np.ndarray  # unit norm; its largest-modulus entry is real positive
    left: Optional[np.ndarray]  # same normalization, when asked for
    residual: float  # ||A x - lam x|| / |lam| of the right vector


def _unit(x: np.ndarray) -> np.ndarray:
    """x scaled to unit norm with its largest-modulus entry real positive."""
    pivot = x[int(np.argmax(np.abs(x)))]
    return x * (abs(pivot) / pivot) / np.linalg.norm(x)


def _tie_rule(w: np.ndarray) -> int:
    """The index in w of the leading eigenvalue, by the tie rule of leading_eigen."""
    top = float(np.max(np.abs(w)))
    tied = np.flatnonzero(np.abs(w) >= top * (1.0 - TIE_RTOL))
    re = w[tied].real
    tied = tied[re >= np.max(re) - TIE_RTOL * top]
    return int(tied[int(np.argmax(w[tied].imag))])


def leading_eigen(mat: scipy.sparse.spmatrix, left: bool = False) -> Eigenpair:
    """The leading eigenvalue (largest modulus) of a square sparse matrix
    with its right eigenvector, and its left one when asked for.

    Matrices below DENSE_BELOW rows go to LAPACK eigvals, and the vector to
    one step of inverse iteration (Golub & Van Loan, Matrix Computations,
    7.6.1): a solve with A - lam I from the vector of ones.  An exactly
    singular solve, or a vector that misses the residual check, falls back
    to LAPACK eig.  Larger matrices go to ARPACK eigs(k=1, which="LM")
    started from the ones vector.  So two calls on the same matrix return
    the same bits.  Every answer must pass ||A x - lam x|| <= RESIDUAL_TOL
    |lam|; a failed residual check or an ARPACK run that does not converge
    raises ThermoError.

    Ties: when several eigenvalues share the top modulus, the dense path
    returns the one with the largest real part, then the largest imaginary
    part, comparing each to TIE_RTOL times the top modulus; for a
    nonnegative matrix that is the Perron root.  The
    ARPACK path returns the member it converges to from the ones vector,
    which repeats exactly but follows no such rule.  Ties come from periodic
    components (period p gives the p values lam * exp(2 pi i j / p)).
    """
    n = mat.shape[0]
    if n == 0:
        raise ThermoError("empty transfer matrix")
    if n < DENSE_BELOW:
        a = mat.toarray()
        w = np.linalg.eigvals(a)
        i, x = _tie_rule(w), None
        try:
            x = _unit(np.linalg.solve(a - w[i] * np.eye(n), np.ones(n)))
        except np.linalg.LinAlgError:  # A - lam I exactly singular
            pass
    else:
        try:
            w, vr = scipy.sparse.linalg.eigs(
                mat, k=1, which="LM", v0=np.ones(n, dtype=mat.dtype)
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise ThermoError(
                f"ARPACK did not converge on a {n}-block matrix"
            ) from exc
        i, x = 0, _unit(vr[:, 0])
    lam = complex(w[i])
    resid = math.inf if x is None else float(np.linalg.norm(mat @ x - lam * x))
    if n < DENSE_BELOW and not resid <= RESIDUAL_TOL * abs(lam):
        w, vr = np.linalg.eig(a)  # LAPACK's own vector
        i = _tie_rule(w)
        lam, x = complex(w[i]), _unit(vr[:, i])
        resid = float(np.linalg.norm(mat @ x - lam * x))
    if not resid <= RESIDUAL_TOL * abs(lam):
        raise ThermoError(
            f"eigen residual {resid:.2e} above {RESIDUAL_TOL:.0e} * |{lam:.6g}|"
        )
    pair = Eigenpair(lam, x, None, resid / abs(lam) if lam else 0.0)
    return _with_left(mat, pair) if left else pair


def _with_left(mat: scipy.sparse.spmatrix, pair: Eigenpair) -> Eigenpair:
    """The right eigenpair with the leading left vector of the matrix."""
    dual = leading_eigen(mat.T)
    if not abs(dual.value - pair.value) <= RESIDUAL_TOL * abs(pair.value):
        raise ThermoError("left and right leading eigenvalues differ")
    return dataclasses.replace(pair, left=dual.right)


def pressure_terms(
    op: TransferOperator, c: Sequence[float], pairs: Optional[dict] = None
) -> float:
    """log spectral radius of the compiled operator at coefficients c.  A
    caller that wants the leading eigenpair too passes a dict as ``pairs``,
    which keeps it under tuple(c)."""
    eig = leading_eigen(op.matrix(c))
    if pairs is not None:
        pairs[tuple(c)] = eig
    rho = abs(eig.value)
    if rho == 0.0:
        raise ThermoError("nilpotent transfer matrix: the pressure is -inf")
    return math.log(rho)


def pressure(
    aut: GeodesicAutomaton,
    comp: Component,
    potential: CylinderPotential,
    s: float,
) -> float:
    """P(-s * Psi) on the component."""
    return pressure_terms(TransferOperator(aut, comp.vertices, [potential]), [-s])


def _root(f, lo: float, hi: float) -> float:
    """A zero of f by Brent's method to near machine precision, after widening
    [lo, hi] (at most six times) until f changes sign on it.  The loop is
    that of scipy's brentq (Zeros/brentq.c), step for step, with xtol 1e-14,
    rtol 8.9e-16 and 100 iterations, so the root has the same bits; its
    first two points are the bracket ends, whose values the sign check has
    already computed.  A NaN value of f, or 100 steps without convergence,
    raises ThermoError."""

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ThermoError(f"root finder: f({x!r}) is NaN")
        return fx

    flo, fhi = value(lo), value(hi)
    widened = 0
    while flo != 0 and fhi != 0 and (flo < 0) == (fhi < 0):
        if widened == 6:
            raise ThermoError("root bracketing failed")
        lo, hi = lo - (hi - lo), hi + (hi - lo)
        flo, fhi = value(lo), value(hi)
        widened += 1
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    xtol, rtol = 1e-14, 8.9e-16
    # the current iterate, the previous one, and the far end of the bracket
    xpre, fpre, xcur, fcur = lo, flo, hi, fhi
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ThermoError(f"root finder did not converge in 100 steps (at {xcur!r})")


def growth_rate(
    aut: GeodesicAutomaton,
    comp: Component,
    potential: CylinderPotential,
    bracket: tuple[float, float] = (0.0, 4.0),
    op: Optional[TransferOperator] = None,
) -> float:
    """The unique v with P(-v * Psi) = 0.  A caller that keeps the compiled
    operator of the potential on the component passes it as ``op``."""
    if op is None:
        op = TransferOperator(aut, comp.vertices, [potential])
    return _root(
        lambda s: pressure_terms(op, [-s]), bracket[0], bracket[1]
    )


# -- Gibbs data --------------------------------------------------------------

@dataclass
class GibbsData:
    """Perron data of a compiled operator at real coefficients c, and the
    equilibrium state mu of sum_i c_i psi_i that it defines."""

    op: TransferOperator
    c: np.ndarray
    matrix: scipy.sparse.csr_matrix  # the operator at c
    eigenvalue: float
    right: np.ndarray  # h, positive
    left: np.ndarray  # nu, positive, nu . h = 1
    stationary: np.ndarray  # pi(b) = nu(b) h(b), sums to 1

    @property
    def pressure(self) -> float:
        return math.log(self.eigenvalue)

    def transition(self) -> np.ndarray:
        """Markov kernel q(b -> b') = A(b,b') h(b') / (lam h(b))."""
        a = self.matrix.toarray()
        return a * self.right[None, :] / (self.eigenvalue * self.right[:, None])

    def integrals(self) -> np.ndarray:
        """The integral of each psi_i against mu, nu (A o psi_i) h / lam, which
        is also the derivative of the pressure in c_i."""
        s, psi = self.op.structure.matrix, self.op.psi
        rows = np.repeat(np.arange(s.shape[0]), np.diff(s.indptr))
        mass = self.left[rows] * np.exp(self.c @ psi) * self.right[s.indices]
        return psi @ mass / self.eigenvalue


def perron(
    op: TransferOperator, c: Sequence[float], right: Optional[Eigenpair] = None
) -> GibbsData:
    """Perron data of the compiled operator at real coefficients c.  A
    caller that has solved the operator at c already passes that leading
    eigenpair as ``right``, and only the left vector is solved.  On a
    period-p component ARPACK may return a rotated top eigenvalue (see
    leading_eigen); then A + |lam| I, which has the same Perron vectors, is
    primitive and has eigenvalue ratio at most cos(pi / p), is solved, and
    the shifted answer is checked against A.  Raises ThermoError when the
    eigenvalue is still not real and positive or a vector is not positive."""
    c = np.asarray(c, dtype=float)
    mat = op.matrix(c)
    eig = _with_left(mat, right if right is not None else leading_eigen(mat))
    lam = eig.value
    if lam.real <= 0 or abs(lam.imag) > RESIDUAL_TOL * abs(lam):
        shift = abs(lam)
        eig = leading_eigen(mat + shift * scipy.sparse.eye(mat.shape[0]), left=True)
        lam = eig.value - shift
        resid = max(np.linalg.norm(a @ x - lam * x)
                    for a, x in ((mat, eig.right), (mat.T, eig.left)))
        if not (lam.real > 0 and abs(lam.imag) <= RESIDUAL_TOL * abs(lam)
                and resid <= RESIDUAL_TOL * abs(lam)):
            raise ThermoError(f"leading eigenvalue {lam} is not the Perron root")
    h, nu = eig.right.real, eig.left.real
    if np.min(h) <= 0:
        raise ThermoError("Perron right eigenvector not positive")
    if np.min(nu) <= 0:
        raise ThermoError("Perron left eigenvector not positive")
    nu = nu / float(nu @ h)
    pi = nu * h
    pi = pi / pi.sum()
    return GibbsData(op, c, mat, lam.real, h, nu, pi)


def gibbs_data(
    aut: GeodesicAutomaton,
    comp: Component,
    potential: CylinderPotential,
    s: float,
) -> GibbsData:
    """Perron data of the operator of -s * Psi; see perron."""
    return perron(TransferOperator(aut, comp.vertices, [potential]), [-s])


def gibbs_ratio_check(
    aut: GeodesicAutomaton,
    comp: Component,
    gd: GibbsData,
    potential: CylinderPotential,
    depth_test: int = 6,
) -> tuple[float, float]:
    """Ratio mu[cylinder] / exp(-nP + S_n Phi) over all cylinders of
    length up to depth_test, Phi = c[0] Psi for the one-potential data of
    gibbs_data.  S_n is the Birkhoff sum over all n positions, the windows
    at the end truncated (which keeps the constants depth-independent).  It
    is carried along the levels: psi summed over the full windows, plus
    D_(k-1) of the final k-1 edges (the blocks), to which the truncated
    windows telescope.  Returns (min, max)."""
    k = gd.op.depth
    q = gd.transition()
    lo, hi = math.inf, -math.inf
    for level, tail, _ in _paths(aut, comp.vertices, depth_test):
        n = level.length
        if n == 0:
            halves = aut._halves(level.state, k - 1, comp.vertices)
            d = _distances(halves, potential.metric.meet(halves), k - 1)
        if n == k - 1:
            # the cylinders of k-1 edges are the blocks: their mass is pi
            last, mass = np.arange(len(level.state)), gd.stationary
        elif n >= k:
            # last: the block of the final k-1 edges; the mass of a cylinder
            # is its parent's mass times one step of the Markov kernel
            prev, last = last[level.parent], last[tail]
            mass = mass[level.parent] * q[prev, last]
            # win: the operator's window of the final k edges; full: the
            # sum of psi over the full windows
            win = np.arange(len(level.state)) if n == k else win[tail]
            full = gd.op.psi[0][win] + (full[level.parent] if n > k else 0.0)
            ratio = mass / np.exp(-n * gd.pressure + gd.c[0] * (full + d[last]))
            lo, hi = min(lo, float(ratio.min())), max(hi, float(ratio.max()))
    if not math.isfinite(lo):
        raise ThermoError("no cylinders at requested depths")
    return lo, hi


# -- Manhattan curves and correlation ----------------------------------------

def manhattan(
    aut: GeodesicAutomaton,
    comp: Component,
    potential_d: CylinderPotential,
    t: float,
) -> float:
    """theta_{d/S}(t) = P(-t Psi_d)."""
    return pressure(aut, comp, potential_d, t)


def manhattan_pair(
    aut: GeodesicAutomaton,
    comp: Component,
    potential_d: CylinderPotential,
    potential_dstar: CylinderPotential,
    t: float,
    bracket: tuple[float, float] = (-4.0, 4.0),
    op: Optional[TransferOperator] = None,
    pairs: Optional[dict] = None,
) -> float:
    """theta_{dstar/d}(t): the s with P(-s Psi_d - t Psi_dstar) = 0.  A
    caller solving for many t passes the compiled operator of
    (potential_d, potential_dstar) on the component as ``op``; one that
    wants the leading eigenpair at each evaluated (s, t) passes ``pairs``
    (see pressure_terms)."""
    if op is None:
        op = TransferOperator(
            aut, comp.vertices, [potential_d, potential_dstar]
        )
    return _root(
        lambda s: pressure_terms(op, [-s, -t], pairs), bracket[0], bracket[1]
    )


@dataclass
class CorrelationExponent:
    xi: float
    alpha: float
    theta_at_xi: float
    degenerate: bool


def correlation_exponent(
    aut: GeodesicAutomaton,
    comp: Component,
    potential_d: CylinderPotential,
    potential_dstar: CylinderPotential,
) -> CorrelationExponent:
    """xi solves theta'(xi) = -1 for the pair Manhattan curve of two
    growth-normalized metrics; alpha = xi + theta(xi).  The slope is exact:
    theta'(t) = -int Psi_dstar dmu / int Psi_d dmu for the equilibrium state
    mu of -theta(t) Psi_d - t Psi_dstar.  A dependent pair yields the affine
    curve theta(t) = 1 - t and is flagged degenerate.  Each theta(t) is
    solved once, and the Perron data at (theta(t), t) start from the
    eigenpair that its root evaluated there."""

    op = TransferOperator(aut, comp.vertices, [potential_d, potential_dstar])
    solved: dict = {}  # t -> (theta(t), the leading eigenpair there)

    def theta(t: float) -> float:
        if t not in solved:
            pairs: dict = {}
            s = manhattan_pair(
                aut, comp, potential_d, potential_dstar, t, op=op, pairs=pairs
            )
            solved[t] = s, pairs[-s, -t]
        return solved[t][0]

    t0, t1, mid = theta(0.0), theta(1.0), theta(0.5)
    if abs(mid - 0.5 * (t0 + t1)) < 1e-9:
        # affine curve: the metrics are roughly similar, alpha degenerates to 1
        return CorrelationExponent(0.5, 1.0, mid, True)

    def slope_plus_one(t: float) -> float:
        s = theta(t)
        int_d, int_dstar = perron(op, [-s, -t], solved[t][1]).integrals()
        return 1.0 - int_dstar / int_d

    xi = _root(slope_plus_one, 0.05, 0.95)
    theta_xi = theta(xi)
    return CorrelationExponent(xi, xi + theta_xi, theta_xi, False)


# -- complex spectra ---------------------------------------------------------

@dataclass
class ScanPoint:
    t: float
    rho: float
    unit_distance: float  # |1 - leading eigenvalue|
    gap: float  # 1 - rho
    exact: bool  # leading eigenvalue solved and residual-checked


def spectral_scan(
    aut: GeodesicAutomaton,
    comp: Component,
    potential: CylinderPotential,
    v: float,
    t_grid: Sequence[float],
    op: Optional[TransferOperator] = None,
) -> list[ScanPoint]:
    """Leading eigenvalue of L_{v+it} over the grid, from one compiled
    operator; see leading_eigen for the solver and its tie rule.  A caller
    that keeps the compiled operator of the potential on the component
    passes it as ``op``."""
    if op is None:
        op = TransferOperator(aut, comp.vertices, [potential])
    out = []
    for t in t_grid:
        lead = leading_eigen(op.matrix([-(v + 1j * t)])).value
        rho = abs(lead)
        out.append(ScanPoint(t, rho, abs(1.0 - lead), 1.0 - rho, True))
    return out


# -- weak mixing -------------------------------------------------------------

@dataclass
class MixingReport:
    verdict: str  # "weak_mixing" | "not_weak_mixing" | "inconclusive"
    lattice_gap: Optional[float]
    arithmeticity: ArithmeticityReport


def mixing_check(
    aut: GeodesicAutomaton,
    comp: Component,
    potential: CylinderPotential,
    l_max: int = 6,
) -> MixingReport:
    """Weak mixing of the suspension with roof Psi; see mixing_verdict."""
    return mixing_verdict(arithmeticity(aut, comp, potential, l_max=l_max))


def mixing_verdict(rep: ArithmeticityReport) -> MixingReport:
    """Weak mixing of the suspension with roof Psi, read off the
    arithmeticity of its orbit sums: non-arithmetic roof values imply weak
    mixing, a lattice gives the period."""
    if rep.verdict == "lattice":
        return MixingReport("not_weak_mixing", rep.gap, rep)
    if rep.verdict == "non_arithmetic":
        return MixingReport("weak_mixing", None, rep)
    return MixingReport("inconclusive", None, rep)
