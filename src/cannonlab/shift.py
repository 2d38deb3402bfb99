"""Structure theory of the coding subshift.

Strongly connected components with periods and cyclic parts, word-maximal
components, realization of conjugacy classes by periodic orbits, and
lattice versus non-arithmetic behavior of potentials over periodic orbits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from .automaton import GeodesicAutomaton
from .groups import ConjClass, FreeGroup, ResourceCapError, Word, invert_word

GROWTH_TIE = 1e-9  # log growths this close to the top count as maximal
ORBIT_LEVEL_CAP = 2_000_000  # paths of one length in one anchor's walk
ORBIT_SUM_TOL = 1e-8  # orbit sums and gcd remainders at most this are zero
LATTICE_GAP = 1e-4  # the least gap that can make a lattice verdict


class ShiftError(Exception):
    pass


@dataclass(frozen=True)
class Component:
    index: int
    vertices: frozenset
    trivial: bool  # no cycle through the component
    period: int  # 0 sentinel for trivial components
    cyclic_parts: tuple = ()

    def __contains__(self, v: int) -> bool:
        return v in self.vertices


@dataclass(frozen=True)
class PeriodicOrbit:
    vertices: tuple  # (x_0, ..., x_{l-1}), closing edge x_{l-1} -> x_0
    labels: tuple


def scc_decompose(aut: GeodesicAutomaton) -> list[Component]:
    """Strongly connected components of the transition graph, returned in a
    deterministic order (sorted by least vertex)."""
    edges = np.array(
        [(u, v) for u, row in enumerate(aut.transitions) for _, v in row],
        dtype=np.int64,
    ).reshape(-1, 2)
    graph = scipy.sparse.csr_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
        shape=(aut.n_states, aut.n_states),
    )
    _, label = scipy.sparse.csgraph.connected_components(graph, connection="strong")
    sccs = [np.flatnonzero(label == c).tolist() for c in np.unique(label)]
    sccs.sort(key=min)
    out = []
    for i, members in enumerate(sccs):
        vs = frozenset(members)
        has_cycle = len(members) > 1 or any(
            v == members[0] for _, v in aut.transitions[members[0]]
        )
        if not has_cycle:
            out.append(Component(i, vs, trivial=True, period=0))
            continue
        p, parts = _period_and_parts(aut, vs)
        out.append(
            Component(i, vs, trivial=False, period=p, cyclic_parts=parts)
        )
    return out


def _period_and_parts(aut: GeodesicAutomaton, vertices: frozenset):
    root = min(vertices)
    level = {root: 0}
    frontier = [root]
    g = 0
    while frontier:
        nxt = []
        for u in frontier:
            for _, v in aut.transitions[u]:
                if v not in vertices:
                    continue
                if v in level:
                    g = math.gcd(g, level[u] + 1 - level[v])
                else:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    p = abs(g) if g else 1
    parts = tuple(
        frozenset(v for v, l in level.items() if l % p == j)
        for j in range(p)
    )
    return p, parts


def period(comp: Component) -> int:
    if comp.trivial:
        raise ShiftError("trivial component has no period")
    return comp.period


# -- growth ------------------------------------------------------------------

def component_growth(aut: GeodesicAutomaton, comp: Component) -> float:
    """Log spectral radius of the component's 0-1 matrix."""
    if comp.trivial:
        raise ShiftError("trivial component has no growth")
    from .thermo import leading_eigen, transfer_matrix

    adjacency = transfer_matrix(aut, comp.vertices, 1).matrix
    return math.log(abs(leading_eigen(adjacency).value))


def _growing_components(aut: GeodesicAutomaton) -> list[Component]:
    """The nontrivial components, those that carry a cycle."""
    return [c for c in scc_decompose(aut) if not c.trivial]


def word_maximal_components(aut: GeodesicAutomaton) -> list[Component]:
    comps = _growing_components(aut)
    if not comps:
        raise ShiftError("no nontrivial components")
    growths = [component_growth(aut, c) for c in comps]
    top = max(growths)
    return [c for c, g in zip(comps, growths) if g >= top - GROWTH_TIE]


def reachable_between(
    aut: GeodesicAutomaton, a: Component, b: Component
) -> bool:
    """Is any vertex of b reachable from a (outside of a itself)?"""
    seen = set(a.vertices)
    frontier = list(a.vertices)
    while frontier:
        u = frontier.pop()
        for _, v in aut.transitions[u]:
            if v in b.vertices:
                return True
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return False


@dataclass
class MaximalCrossCheck:
    ok: bool
    word_maximal: list[int]
    potential_maximal: list[int]
    disjoint: bool
    pressures: dict


def cross_check_maximal(
    aut: GeodesicAutomaton,
    potential,
    v_d: float,
    tol: float = 2e-6,
) -> MaximalCrossCheck:
    """The components maximizing plain word growth must coincide with those
    maximizing the pressure of -v_d * potential (whose maximum is 0), and
    distinct maximal components must not reach one another."""
    from .thermo import pressure

    comps = _growing_components(aut)
    wmax = sorted(c.index for c in word_maximal_components(aut))
    pressures = {
        c.index: pressure(aut, c, potential, v_d) for c in comps
    }
    top_p = max(pressures.values())
    pmax = sorted(
        c.index for c in comps if pressures[c.index] >= top_p - tol
    )
    by_index = {c.index: c for c in comps}
    disjoint = True
    for i in wmax:
        for j in wmax:
            if i != j and reachable_between(aut, by_index[i], by_index[j]):
                disjoint = False
    return MaximalCrossCheck(
        ok=(wmax == pmax) and disjoint,
        word_maximal=wmax,
        potential_maximal=pmax,
        disjoint=disjoint,
        pressures=pressures,
    )


# -- loops realizing conjugacy classes ---------------------------------------

@dataclass(frozen=True)
class LoopWitness:
    orbit: PeriodicOrbit
    N: int
    sign: int


def loops_realizing_class(
    aut: GeodesicAutomaton,
    comp: Component,
    c: ConjClass,
    N_max: int = 4,
    l_max: int = 32,
) -> Optional[LoopWitness]:
    """Find a periodic orbit in the component whose evaluation is conjugate
    to a power g^{+-N}, N <= N_max, orbit length <= l_max.  Searches in
    increasing N, positive sign first; returns the first witness.  A miss
    only means the bounded search failed, not that no loop exists.
    Conjugacy classes are computed on free groups only."""
    group = aut.group
    if not isinstance(group, FreeGroup):
        raise ShiftError(f"no conjugacy classes on a {group.family} group")
    if c.representative.length == 0 or c.is_torsion:
        raise ShiftError("torsion class has no realizing loop")
    for N in range(1, N_max + 1):
        for sign in (1, -1):
            base = c.representative.word if sign == 1 else invert_word(
                c.representative.word
            )
            powered = group.cyclic_reduce(base * N)
            if not powered or len(powered) > l_max:
                continue
            w = _find_label_cycle(aut, comp, powered)
            if w is not None:  # its labels are a rotation of powered
                return LoopWitness(w, N, sign)
    return None


def _find_label_cycle(
    aut: GeodesicAutomaton, comp: Component, word: Word
) -> Optional[PeriodicOrbit]:
    """A closed path in the component spelling some cyclic rotation of the
    word; rotations tried in order, start vertices in sorted order."""
    n = len(word)
    for r in range(n):
        rot = word[r:] + word[:r]
        for start in sorted(comp.vertices):
            v = start
            vertices = []
            ok = True
            for s in rot:
                vertices.append(v)
                nxt = aut.step(v, s)
                if nxt is None or nxt not in comp.vertices:
                    ok = False
                    break
                v = nxt
            if ok and v == start:
                return PeriodicOrbit(tuple(vertices), rot)
    return None


# -- arithmeticity ------------------------------------------------------------

def _real_gcd(a: float, b: float, tol: float) -> float:
    a, b = abs(a), abs(b)
    if a < b:
        a, b = b, a
    while b > tol:
        r = math.fmod(a, b)
        r = min(r, abs(b - r))  # fold values just under a multiple
        a, b = b, r
    return a


@dataclass
class ArithmeticityReport:
    verdict: str  # "lattice" | "non_arithmetic" | "inconclusive"
    gap: float  # estimated lattice gap (residual scale when non-arithmetic)
    max_residual: float
    n_orbits: int  # the closed paths of 1..l_max edges, each anchored once
    sample_values: list = field(default_factory=list)


def _orbit_sums(
    aut: GeodesicAutomaton, comp: Component, potential, l_max: int
) -> np.ndarray:
    """The Birkhoff sums of the potential around the closed paths of
    1..l_max edges in the component, each anchored at its least vertex a:
    the paths of one walk from a through the vertices >= a that end at a.
    Window i of a closed path of n edges, its edges i..i+k-1 around the
    cycle, is an entry of the compiled depth-k operator, found by index
    arithmetic; the windows are summed in order from a, as ``cycle_sum``
    sums them.  A level longer than ORBIT_LEVEL_CAP raises
    ResourceCapError before it is allocated."""
    from .thermo import TransferOperator

    op = TransferOperator(aut, comp.vertices, [potential])
    k, psi, mat = op.depth, op.psi[0], op.structure.matrix
    # the children of path i of level j of the operator's walk start at
    # child[j][i], the row pointers that the walk keeps for level j + 1
    child = [indptr for _, _, indptr in op.structure.walk[1:]]
    # rank[u, label]: the place of the edge among u's edges in the component,
    # which orders the windows out of a block ending at u (a negative label
    # indexes the row from its end)
    edges = aut._edges(comp.vertices)
    rank = np.zeros((aut.n_states, 2 * max(aut.group.alphabet) + 1), dtype=np.int64)
    rank[:, list(aut.group.alphabet)] = edges.slot - edges.first[:, None]
    sums, verts = [np.zeros(0)], sorted(comp.vertices)
    for pos, a in enumerate(verts):
        above = frozenset(verts[pos:])
        fan = aut._edges(above).degree
        levels = []
        for level in aut._levels([a], l_max, above):
            levels.append(level)
            n, size = level.length, int(fan[level.state].sum())
            if n < l_max and size > ORBIT_LEVEL_CAP:
                raise ResourceCapError(
                    f"the closed-path walk from state {a} would hold {size} "
                    f"paths of {n + 1} edges, cap {ORBIT_LEVEL_CAP}"
                )
            if n == 0:
                continue
            idx = np.flatnonzero(level.state == a)
            r = np.empty((len(idx), n), dtype=np.int64)  # edge ranks, from the end
            for m in range(n, 0, -1):
                parent = levels[m].parent[idx]
                r[:, m - 1] = rank[levels[m - 1].state[parent], levels[m].label[idx]]
                idx = parent
            block = np.full(len(r), pos)  # down to the block of edges 0..k-2
            for j in range(k - 1):
                block = child[j][block] + r[:, j % n]
            total = np.zeros(len(r))
            for i in range(n):
                entry = mat.indptr[block] + r[:, (i + k - 1) % n]
                total += psi[entry]
                block = mat.indices[entry]
            sums.append(total)
    return np.concatenate(sums)


def arithmeticity(
    aut: GeodesicAutomaton, comp: Component, potential, l_max: int = 6
) -> ArithmeticityReport:
    """Do the Birkhoff sums of the potential over periodic orbits lie in
    a common lattice a*Z?  The sums are those of every closed path of
    1..l_max edges (_orbit_sums), and ``n_orbits`` is their exact number.
    The gap estimate is an iterated real gcd of the orbit sums with
    tolerance; verdicts carry explicit thresholds."""
    sums = _orbit_sums(aut, comp, potential, l_max)
    n_orbits = len(sums)
    values = sorted({round(v, 14) for v in np.unique(sums).tolist()})
    values = [v for v in values if abs(v) > ORBIT_SUM_TOL]
    if len(values) < 2:
        return ArithmeticityReport("inconclusive", 0.0, 0.0, n_orbits)
    g = values[0]
    for v in values[1:]:
        g = _real_gcd(g, v, ORBIT_SUM_TOL)
        if g <= ORBIT_SUM_TOL:
            break
    sample = values[:12]
    if g > LATTICE_GAP:
        resid = max(
            abs(v - g * round(v / g)) for v in values
        )
        if resid <= max(100 * ORBIT_SUM_TOL, 1e-12 * max(values)):
            return ArithmeticityReport(
                "lattice", g, resid, n_orbits, sample
            )
    # no usable gap: the orbit sums generate a dense subgroup at this scale
    return ArithmeticityReport(
        "non_arithmetic", g, g, n_orbits, sample
    )
