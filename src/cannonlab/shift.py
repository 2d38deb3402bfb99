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

from .automaton import Edges, GeodesicAutomaton, _walk_edges
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
    deterministic order (sorted by least vertex); derived once per acceptor."""
    return list(aut._derived("components", _components))


def _components(aut: GeodesicAutomaton) -> list[Component]:
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
    """The growing components of the top word growth; derived once per
    acceptor."""
    return list(aut._derived("word_maximal", _word_maximal))


def _word_maximal(aut: GeodesicAutomaton) -> list[Component]:
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
    op=None,
) -> MaximalCrossCheck:
    """The components maximizing plain word growth must coincide with those
    maximizing the pressure of -v_d * potential (whose maximum is 0), and
    distinct maximal components must not reach one another.  A caller that
    has compiled the potential's operator on one component passes it as
    ``op``; the other components compile their own."""
    from .thermo import TransferOperator, pressure_terms

    comps = _growing_components(aut)
    wmax = sorted(c.index for c in word_maximal_components(aut))
    pressures = {
        c.index: pressure_terms(
            op if op is not None and op.vertices == c.vertices
            else TransferOperator(aut, c.vertices, [potential]), [-v_d])
        for c in comps
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
    word; rotations tried in order, start vertices in sorted order.  Every
    start vertex of a rotation steps at once through the component's edge
    table."""
    edges = aut._edges(comp.vertices)
    starts = np.array(sorted(comp.vertices), dtype=np.int64)
    for r in range(len(word)):
        rot = word[r:] + word[:r]
        path, alive = [starts], np.ones(len(starts), dtype=bool)
        for s in rot:
            edge = edges.slot[path[-1], aut.group._order[s]]
            alive &= edge >= 0
            path.append(starts.copy())  # a dead path marks time at its start
            path[-1][alive] = edges.target[edge[alive]]
        hit = np.flatnonzero(alive & (path[-1] == starts))
        if len(hit):
            return PeriodicOrbit(tuple(int(v[hit[0]]) for v in path[:-1]), rot)
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
    aut: GeodesicAutomaton, comp: Component, potential, l_max: int, op=None
) -> np.ndarray:
    """The Birkhoff sums of the potential around the closed paths of
    1..l_max edges in the component, each anchored at its least vertex a:
    the paths of a walk from a through the vertices >= a that end at a.
    One walk serves every anchor, and it drops each path that cannot get
    back to its anchor within l_max edges, which keeps the closed paths.
    Window i of a closed path of n edges, its edges i..i+k-1 around the
    cycle, is an entry of the compiled depth-k operator (``op``, or compiled
    here), found by index arithmetic; the windows are summed in order from
    a, as ``cycle_sum`` sums them, and the sums come anchor after anchor,
    each by length, then in walk order.  An anchor whose walk without the
    drops would hold more than ORBIT_LEVEL_CAP paths of one length raises
    ResourceCapError before the walk starts."""
    from .thermo import TransferOperator

    if op is None:
        op = TransferOperator(aut, comp.vertices, [potential])
    k, psi, mat = op.depth, op.psi[0], op.structure.matrix
    # the children of path i of level j of the operator's walk start at
    # child[j][i], the row pointers that the walk keeps for level j + 1
    child = [indptr for _, _, indptr in op.structure.walk[1:]]
    # rank[u, label]: the place of the edge among u's edges in the component,
    # which orders the windows out of a block ending at u (a negative label
    # indexes the row from its end)
    edges, size = aut._edges(comp.vertices), aut.n_states
    rank = np.zeros((size, 2 * max(aut.group.alphabet) + 1), dtype=np.int64)
    rank[:, list(aut.group.alphabet)] = edges.slot - edges.first[:, None]
    source = np.repeat(np.arange(size), edges.degree)
    verts = np.array(sorted(comp.vertices))
    anchors = np.arange(len(verts))
    # within[i, q]: q >= the anchor verts[i]; adjacency[q, v]: the edges from
    # q to v in the component; sizes[i, n]: the paths of n edges in the walk
    # from verts[i] without drops, exact in float64 up to 2^53, far above
    # the cap; hops[i, q]: the fewest edges from q back to verts[i] through
    # the vertices >= it, or l_max + 1 where that is more than l_max
    within = np.arange(size) >= verts[:, None]
    adjacency = np.zeros((size, size))
    np.add.at(adjacency, (source, edges.target), 1)
    paths = [within.astype(float)]
    hops = np.where(np.arange(size) == verts[:, None], 0, l_max + 1)
    for j in range(1, l_max + 1):
        paths.append((paths[-1] @ adjacency.T) * within)
        hops[((hops < j) @ adjacency.T > 0) & within & (hops > j)] = j
    sizes = np.array(paths)[:, anchors, verts].T
    over = np.argwhere(sizes > ORBIT_LEVEL_CAP)  # by anchor, then by length
    if len(over):
        i, n = over[0]
        raise ResourceCapError(
            f"the closed-path walk from state {verts[i]} would hold "
            f"{int(sizes[i, n])} paths of {n} edges, cap {ORBIT_LEVEL_CAP}"
        )
    # the walk runs on the states (i, b, q): at q, from verts[i], with b
    # edges left; it keeps an edge to v when hops[i, v] < b (and reads no slot)
    width = l_max + 1
    i, b, e = np.nonzero(hops[:, None, edges.target] < np.arange(width)[:, None])
    degree = np.bincount((i * width + b) * size + source[e], minlength=len(verts) * width * size)
    table = Edges(degree, np.cumsum(degree) - degree, edges.label[e],
                  (i * width + b - 1) * size + edges.target[e], None)
    levels, sums, owner = [], [np.zeros(0)], [anchors[:0]]
    for level in _walk_edges(table, (anchors * width + l_max) * size + verts, l_max):
        root = verts[level.state // (width * size)]
        levels.append(level._replace(state=level.state % size))
        n = level.length
        if n == 0:
            continue
        idx = np.flatnonzero(levels[n].state == root)
        r = np.empty((len(idx), n), dtype=np.int64)  # edge ranks, from the end
        for m in range(n, 0, -1):
            parent = levels[m].parent[idx]
            r[:, m - 1] = rank[levels[m - 1].state[parent], levels[m].label[idx]]
            idx = parent
        owner.append(idx)  # the anchor's place in verts, its block of 0 edges
        block = idx  # down to the block of edges 0..k-2
        for j in range(k - 1):
            block = child[j][block] + r[:, j % n]
        total = np.zeros(len(r))
        for j in range(n):
            entry = mat.indptr[block] + r[:, (j + k - 1) % n]
            total += psi[entry]
            block = mat.indices[entry]
        sums.append(total)
    return np.concatenate(sums)[np.argsort(np.concatenate(owner), kind="stable")]


def arithmeticity(
    aut: GeodesicAutomaton, comp: Component, potential, l_max: int = 6, op=None
) -> ArithmeticityReport:
    """Do the Birkhoff sums of the potential over periodic orbits lie in
    a common lattice a*Z?  The sums are those of every closed path of
    1..l_max edges (_orbit_sums, which takes the potential's compiled
    operator ``op`` if the caller has one), and ``n_orbits`` is their exact
    number.  The gap estimate is an iterated real gcd of the orbit sums
    with tolerance; verdicts carry explicit thresholds."""
    sums = _orbit_sums(aut, comp, potential, l_max, op)
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
