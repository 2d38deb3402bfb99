"""Shortlex acceptors for the supported groups.

Every supported group is free or small cancellation.  Its acceptor is
built from word differences: the subset construction over the competing
words that could spell a prefix's element shorter or shortlex-smaller,
minimized.  That the accepted words are exactly the shortlex geodesics is
not assumed: validate_bijection compares them, one array per length, with
the spheres that brute-force enumeration through the word problem grows.

Paths from the initial state spell shortlex geodesics, exactly one
accepted word per group element.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .groups import (Element, FreeGroup, GroupPresentation, ResourceCapError,
                     Word, invert_word)

IDENTITY_LABEL = 0  # letters are +-1..+-rank, so no acceptor edge carries it


class AutomatonError(Exception):
    pass


class Edges(NamedTuple):
    """An acceptor's edges as arrays.  The edges of state q are
    ``first[q]`` .. ``first[q] + degree[q] - 1``, in alphabet order, and
    ``slot[q, c]`` is q's edge by the letter ``alphabet[c]``, or -1 (the
    first one, should a broken acceptor have parallel edges by a letter)."""

    degree: np.ndarray
    first: np.ndarray
    label: np.ndarray
    target: np.ndarray
    slot: np.ndarray


class Level(NamedTuple):
    """The accepted words of one length, as arrays: word i is word
    ``parent[i]`` of the previous level followed by ``label[i]``, and its
    path ends at ``state[i]``.  Level 0 is the empty word."""

    length: int
    state: np.ndarray
    label: np.ndarray
    parent: np.ndarray


class Halves(NamedTuple):
    """The paths of 0..n_max edges from each state of some starts in turn,
    by halves.  A path of n edges is a prefix u of p = ceil(n/2) edges, a
    path of ``prefix[p]``, followed by a suffix of s = floor(n/2) edges from
    u's end state.  ``suffix`` walks every state in turn, so the suffixes of
    s edges from state q are rows ``first[s][q]`` .. ``first[s][q + 1] - 1``
    of ``suffix[s]``.  The walk of n edges lists, for each prefix in turn,
    its suffixes in order: walk order is prefix-major."""

    prefix: list
    suffix: list
    first: list

    def blocks(self, n: int, chunk: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The paths of n edges as blocks (rows, cols, at): row i of a
        block is prefix ``rows[i]`` of ``prefix[ceil(n/2)]`` followed by the
        suffixes ``cols[i]`` (or ``cols[0]``) of ``suffix[floor(n/2)]``,
        ``cols`` an index array of shape (len(rows), L) or (1, L), and
        path (i, j) of the block is path ``at[i] + j`` of the walk of n
        edges.  A level of at most ``chunk`` paths is one block per number
        of suffixes.  A larger one is cut by end state, at most ``chunk``
        paths or one prefix per block, so that all rows of a block share
        one run of suffixes (``cols`` of shape (1, L))."""
        state, first = self.prefix[(n + 1) // 2].state, self.first[n // 2]
        width = np.diff(first)[state]
        start = np.cumsum(width) - width
        if width.sum() <= chunk:
            for w in np.unique(width[width > 0]).tolist():
                rows = np.flatnonzero(width == w)
                yield rows, first[state[rows], None] + np.arange(w), start[rows]
            return
        order = np.argsort(state, kind="stable")  # the prefixes of each state, in walk order
        bounds = np.searchsorted(state[order], np.arange(len(first)))
        for q in range(len(first) - 1):
            rows, cols = order[bounds[q]:bounds[q + 1]], np.arange(first[q], first[q + 1])[None]
            step = max(chunk // max(cols.size, 1), 1)
            for lo in range(0, len(rows) if cols.size else 0, step):
                yield rows[lo:lo + step], cols, start[rows[lo:lo + step]]

    def fill(self, n: int, meets: Sequence, outs: Sequence, chunk: int) -> None:
        """Write the distances that each metric's meet (``MetricModel.meet``)
        gives the paths of n edges into its array of ``outs``, in walk
        order, block by block.  A block's rows go in as whole slices,
        through a view of each out array whose row k is out[k:k + width]."""
        windows: dict = {}
        for rows, cols, at in self.blocks(n, chunk):
            width = cols.shape[1]
            if width not in windows:
                windows[width] = [np.lib.stride_tricks.as_strided(
                    out, (len(out) - width + 1, width), out.strides * 2) for out in outs]
            for meet, window in zip(meets, windows[width]):
                window[at] = meet(n, rows, cols)

    def size(self, n: int) -> int:
        """The number of paths of n edges."""
        return int(np.diff(self.first[n // 2])[self.prefix[(n + 1) // 2].state].sum())


@dataclass(frozen=True)
class GeodesicAutomaton:
    group: GroupPresentation = field(repr=False, compare=False)
    n_states: int
    initial: int
    transitions: tuple  # tuple over states of tuple[(label, target), ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- basic structure ---------------------------------------------------

    def edges(self) -> list[tuple[int, int, int]]:
        """Sorted (from, to, label) list."""
        out = []
        for u, row in enumerate(self.transitions):
            for label, v in row:
                out.append((u, v, label))
        return sorted(out)

    def step(self, state: int, label: int) -> Optional[int]:
        for lab, v in self.transitions[state]:
            if lab == label:
                return v
        return None

    # -- language ----------------------------------------------------------

    def accepted_counts(
        self, n_max: int, vertices: Optional[frozenset] = None,
        cap: Optional[int] = None,
    ) -> list[int]:
        """Number of accepted words of each length 0..n_max, in exact
        integers; with ``vertices``, only words whose path stays in that set
        after the initial state.  More than ``cap`` words in all raise
        ResourceCapError."""
        counts = self._path_counts(n_max, vertices)[:, self.initial].tolist()
        if cap is not None and sum(counts) > cap:
            raise ResourceCapError(
                f"walk to length {n_max} would visit {sum(counts)} words, cap {cap}"
            )
        return counts

    def walk(
        self,
        n_max: int,
        vertices: Optional[frozenset] = None,
        cap: Optional[int] = None,
    ) -> Iterator[Level]:
        """The accepted words of length 0..n_max, restricted like
        ``accepted_counts``, one Level per length in shortlex order (for a
        shortlex acceptor, the order of ``group.sphere_words``).  The sizes
        are predicted before any array is allocated: a ball larger than
        ``cap`` raises ResourceCapError here, before the walk starts."""
        self.accepted_counts(n_max, vertices, cap)
        return self._levels([self.initial], n_max, vertices)

    def _derived(self, name: str, build):
        """build(self), made once and kept on the acceptor under ``name``:
        the tables and components that its (frozen) transitions determine."""
        if name not in self._memo:
            self._memo[name] = build(self)
        return self._memo[name]

    def _edge_rows(self) -> np.ndarray:
        """Every edge as a column (source, alphabet rank of the letter,
        letter, target), those of each state in alphabet order."""
        order = self.group._order
        return np.array([(q, order[s], s, v) for q, row in enumerate(self.transitions)
                         for s, v in sorted(row, key=lambda edge: order[edge[0]])],
                        dtype=np.int64).reshape(-1, 4).T

    def _edges(self, vertices: Optional[frozenset] = None) -> Edges:
        """The edges as arrays, those of each state in alphabet order,
        ending in ``vertices`` when that is given: a mask of the one table
        of ``_edge_rows``.  Each is made once per vertex set, kept on the
        acceptor and read-only."""
        if ("edges", vertices) in self._memo:
            return self._memo["edges", vertices]
        rows = self._derived("edge rows", type(self)._edge_rows)
        if vertices is not None:
            rows = rows[:, np.isin(rows[3], np.fromiter(vertices, dtype=np.int64))]
        source, rank, label, target = rows
        degree = np.bincount(source, minlength=self.n_states)
        slot = np.full((self.n_states, len(self.group.alphabet)), len(label))
        np.minimum.at(slot, (source, rank), np.arange(len(label)))  # the first of parallel edges
        slot[slot == len(label)] = -1
        edges = Edges(degree, np.cumsum(degree) - degree, label, target, slot)
        for array in edges:
            array.flags.writeable = False
        self._memo["edges", vertices] = edges
        return edges

    def _path_counts(self, n_max: int, vertices: Optional[frozenset] = None) -> np.ndarray:
        """counts[m, q]: the number of paths of m edges from state q,
        m = 0..n_max, edges restricted like ``accepted_counts``, in exact
        integers."""
        edges = self._edges(vertices)
        source = np.repeat(np.arange(self.n_states), edges.degree)
        counts = np.zeros((n_max + 1, self.n_states), dtype=object)
        counts[0] = 1
        for m in range(1, n_max + 1):
            np.add.at(counts[m], source, counts[m - 1][edges.target])
        return counts

    def _levels(
        self, starts: Sequence[int], n_max: int, vertices: Optional[frozenset]
    ) -> Iterator[Level]:
        """The paths of 0..n_max edges from each state of ``starts`` in turn,
        edges restricted like ``accepted_counts``; level 0 holds the starts."""
        return _walk_edges(self._edges(vertices), starts, n_max)

    def _halves(
        self, starts: Sequence[int], n_max: int, vertices: Optional[frozenset]
    ) -> Halves:
        """The paths of 0..n_max edges from each state of ``starts`` in
        turn, edges restricted like ``accepted_counts``, as Halves: the
        paths of up to ceil(n_max/2) edges from the starts and those of up
        to floor(n_max/2) edges from every state, on one edge table.  Each
        is made once per acceptor and kept."""
        key = ("halves", tuple(np.asarray(starts).tolist()), n_max, vertices)
        if key in self._memo:
            return self._memo[key]
        edges = self._edges(vertices)
        prefix = list(_walk_edges(edges, starts, (n_max + 1) // 2))
        suffix, first, states = [], [], np.arange(self.n_states)
        for level in _walk_edges(edges, states, n_max // 2):
            root = states if level.length == 0 else root[level.parent]
            suffix.append(level)
            first.append(np.searchsorted(root, np.arange(self.n_states + 1)))
        self._memo[key] = Halves(prefix, suffix, first)
        return self._memo[key]

    def accepted_words(self, n_max: int) -> Iterator[tuple[Word, int]]:
        """Yield (word, end_state) for every accepted word of length <= n_max."""
        stack = [((), self.initial)]
        while stack:
            word, state = stack.pop()
            yield word, state
            if len(word) == n_max:
                continue
            for label, v in self.transitions[state]:
                stack.append((word + (label,), v))

    def ev(self, labels: Sequence[int]) -> Element:
        """Evaluate a label path to its group element."""
        return self.group.element(labels)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """The automaton document, as ``automaton.json`` and the cache hold it."""
        return {
            "schema": "geodesic-automaton/4",
            "family": self.group.family,
            "generators": list(self.group.generator_names),
            "n_states": self.n_states,
            "initial": self.initial,
            "edges": [list(e) for e in self.edges()],
        }

    @staticmethod
    def from_dict(doc: dict, group: GroupPresentation) -> "GeodesicAutomaton":
        if doc.get("schema") != "geodesic-automaton/4":
            raise AutomatonError("unknown automaton schema")
        n = doc["n_states"]
        rows: list[list] = [[] for _ in range(n)]
        for u, v, label in doc["edges"]:
            rows[u].append((label, v))
        return GeodesicAutomaton(
            group=group,
            n_states=n,
            initial=doc["initial"],
            transitions=tuple(tuple(sorted(r)) for r in rows),
        )


def _walk_edges(edges: Edges, starts: Sequence[int], n_max: int) -> Iterator[Level]:
    """The paths of 0..n_max edges of an edge table from each state of
    ``starts`` in turn, one Level per length; level 0 holds the starts."""
    degree, first, edge_label, edge_target, _ = edges
    state = np.array(starts, dtype=np.int64)
    zero = np.zeros(len(state), dtype=np.int64)
    yield Level(0, state, zero, zero)
    for n in range(1, n_max + 1):
        fan = degree[state]
        parent = np.repeat(np.arange(len(state), dtype=np.int64), fan)
        # child i of a parent whose children start at position p takes
        # the parent's first edge plus i - p
        edge = np.repeat(first[state] - (np.cumsum(fan) - fan), fan)
        edge += np.arange(len(parent), dtype=np.int64)
        state, label = edge_target[edge], edge_label[edge]
        del fan, edge  # only the level's own arrays live across the yield
        yield Level(n, state, label, parent)


# -- construction ------------------------------------------------------------

def _minimize(rows: list[list], initial: int) -> tuple[list[list], int]:
    """Moore partition refinement (all states accepting, missing edges go
    to an implicit dead state), followed by canonical BFS renumbering."""
    n = len(rows)
    block = [0] * n
    n_blocks = 1
    while True:
        sigs = [
            tuple(sorted((label, block[t]) for label, t in rows[u]))
            for u in range(n)
        ]
        assign: dict = {}
        new_block = []
        for u in range(n):
            key = (block[u], sigs[u])
            b = assign.get(key)
            if b is None:
                b = len(assign)
                assign[key] = b
            new_block.append(b)
        if len(assign) == n_blocks:
            break
        block = new_block
        n_blocks = len(assign)
    members: dict[int, list[int]] = {}
    for u in range(n):
        members.setdefault(block[u], []).append(u)
    # canonical order: BFS from the initial block under sorted labels
    order: dict[int, int] = {block[initial]: 0}
    frontier = [block[initial]]
    block_rows: dict[int, list] = {}
    for b, us in members.items():
        merged = sorted({(label, block[t]) for label, t in rows[us[0]]})
        block_rows[b] = merged
    while frontier:
        nxt = []
        for b in frontier:
            for _, tb in sorted(block_rows[b]):
                if tb not in order:
                    order[tb] = len(order)
                    nxt.append(tb)
        frontier = nxt
    out_rows: list[list] = [[] for _ in range(len(order))]
    for b, i in order.items():
        out_rows[i] = [(label, order[tb]) for label, tb in block_rows[b]]
    return out_rows, 0


_STATE_CAP = 20000  # subset states searched before minimization
# how a competing word v compares with the word w read so far
_EQUAL, _SMALLER, _LARGER, _ENDED = 0, -1, 1, 2


def _differences(group) -> dict:
    """Each spelling of a word difference mapped to its name: the identity,
    the generators, and each subword u of a symmetrized relator r = u v,
    named by the shortlex-least of u and v^-1 (the same element)."""
    names = {(): (), **{(s,): (s,) for s in group.alphabet}}
    for r in group._rotations:
        for i in range(1, len(r)):
            names[r[:i]] = min(r[:i], invert_word(r[i:]), key=group.shortlex_key)
    return names


def _difference_steps(group) -> dict:
    """The flag-free step table of the word differences: ``steps[x][d]``
    is the set of pairs (y, name of x^-1 d y) over the letters y of v, and
    y = None once v has ended, wherever x^-1 d y is a named difference.
    x is a letter of w, or None once w has ended (then y is a letter).
    Names are looked up by spelling, so no step solves the word problem."""
    names = _differences(group)
    steps = {x: {d: set() for d in names.values()} for x in (None,) + group.alphabet}
    for spelling, d in names.items():
        for x in (None,) + group.alphabet:
            left = (spelling if x is None else spelling[1:] if spelling[:1] == (x,)
                    else (-x,) + spelling)
            for y in group.alphabet if x is None else (None,) + group.alphabet:
                word = (left if y is None else left[:-1] if left[-1:] == (-y,)
                        else left + (y,))
                if word in names:
                    steps[x][d].add((y, names[word]))
    return steps


def _build_by_differences(group) -> list[list]:
    """The shortlex word acceptor from word differences (Epstein et al.,
    Word Processing in Groups, 1992, ch. 2-3).  A state is the set of pairs
    (d, flag) that a competing word v can reach, where d = w^-1 v over the
    prefixes read and flag compares v with w.  On the letter x, (d, flag)
    moves along ``_difference_steps``: to x^-1 d y for each next letter y
    of v, or to x^-1 d once v has ended.  An edge is rejected when v
    reaches w's element smaller or ended.  More than _STATE_CAP states
    raise ResourceCapError before minimization."""
    order, steps = group._order, _difference_steps(group)
    flags = (_EQUAL, _SMALLER, _LARGER, _ENDED)
    moves = {x: {(d, f): set() for d in steps[x] for f in flags}
             for x in group.alphabet}  # x -> (d, flag) -> the pairs it moves to
    for x in group.alphabet:
        for d, pairs in steps[x].items():
            for y, new in pairs:
                if y is None:
                    for flag in flags:
                        moves[x][d, flag].add((new, _ENDED))
                else:  # an ended v reads no letter; else the first
                    # letter at which v and w differ decides
                    c = (order[y] > order[x]) - (order[y] < order[x])
                    for flag in (_EQUAL, _SMALLER, _LARGER):
                        moves[x][d, flag].add((new, flag or c))
    rejected = {((), _SMALLER), ((), _ENDED)}
    queue = [frozenset({((), _EQUAL)})]
    state_of, rows = {queue[0]: 0}, []
    for pairs in queue:
        rows.append([])
        for x in group.alphabet:
            nxt = frozenset().union(*map(moves[x].__getitem__, pairs))
            if nxt & rejected:
                continue
            if nxt not in state_of:
                if len(queue) == _STATE_CAP:
                    raise ResourceCapError(f"more than {_STATE_CAP} subset states")
                state_of[nxt] = len(queue)
                queue.append(nxt)
            rows[-1].append((x, state_of[nxt]))
    return rows


def build_shortlex_acceptor(
    presentation: GroupPresentation, r_cone=None
) -> GeodesicAutomaton:
    """The shortlex acceptor.  ``r_cone`` is ignored: no construction reads
    a cone radius, and the parameter stays only so that callers written
    as ``build_shortlex_acceptor(group, 1)`` keep working."""
    rows, initial = _minimize(_build_by_differences(presentation), 0)
    return GeodesicAutomaton(
        group=presentation,
        n_states=len(rows),
        initial=initial,
        transitions=tuple(tuple(sorted(r)) for r in rows),
    )


class Multiplier:
    """Right multiplication of accepted words by a generator, read off the
    word differences (Epstein et al. 1992, ch. 2: the fellow-traveller
    property of multipliers).  ``mult(w, s)`` lists the accepted words v
    whose prefix differences w_i^-1 v_i are all named and end at s, found
    by a synchronized walk over (state of v, difference) that reads w, v
    ended (padded) at any point, then one more letter of v with w padded.
    For an exact acceptor whose differences cover its multipliers, the
    list is the one normal form of w s."""

    def __init__(self, aut: GeodesicAutomaton):
        self.steps = _difference_steps(aut.group)
        self.edges = [dict(row) for row in aut.transitions]
        self.initial = aut.initial

    def __call__(self, word: Word, s: int) -> list[Word]:
        edges, steps = self.edges, self.steps
        # (state of v, or None once v has ended; difference; v so far)
        frontier = {(self.initial, (), ())}
        for x in word:
            frontier = {
                (None, d, v) if y is None else (edges[q][y], d, v + (y,))
                for q, d0, v in frontier
                for y, d in steps[x][d0]
                if y is None or q is not None and y in edges[q]
            }
        found = [v for _, d, v in frontier if d == (s,)]
        for q, d0, v in frontier:
            if q is not None:
                found += [v + (y,) for y, d in steps[None][d0]
                          if d == (s,) and y in edges[q]]
        return found


# -- validation --------------------------------------------------------------

@dataclass
class BijectionReport:
    ok: bool
    n_max: int
    accepted_counts: list[int]
    sphere_sizes: list[int]
    first_failure: Optional[dict] = None


def validate_bijection(
    aut: GeodesicAutomaton, n_max: int, cap: Optional[int] = None
) -> BijectionReport:
    """Check that accepted words biject with group elements up to length
    n_max: per-length counts match brute-force sphere sizes, and the
    accepted words of each length, in walk order, are exactly the rows of
    ``group.sphere_array``, the normal forms in shortlex order.  With a
    ``cap``, a ball of more than cap accepted words raises
    ResourceCapError before any sphere is grown."""
    group = aut.group
    counts = aut.accepted_counts(n_max)
    if cap is not None and sum(counts) > cap:
        raise ResourceCapError(f"ball of radius {n_max} exceeds cap {cap}")
    spheres = [len(group.sphere_array(n)) for n in range(n_max + 1)]
    for n, (c, s) in enumerate(zip(counts, spheres)):
        if c != s:
            return BijectionReport(
                False, n_max, counts, spheres,
                {"kind": "count_mismatch", "length": n,
                 "accepted": c, "expected": s},
            )
    # word i of level n is word parent[i] of level n - 1 times label[i],
    # and level n - 1 has already matched its sphere
    prev, levels = group.sphere_array(0), aut.walk(n_max)
    next(levels)  # the empty word
    for level in levels:
        sphere = group.sphere_array(level.length)
        words = np.column_stack([prev[level.parent], level.label.astype(sphere.dtype)])
        if not np.array_equal(words, sphere):  # name the level's first failure
            seen: set = set()
            for word in map(tuple, words.tolist()):
                nf = group.extend(word[:-1], word[-1])
                kind = ("non_geodesic_word" if len(nf) != len(word)
                        else "duplicate_element" if nf in seen else None)
                if kind is not None:
                    break
                seen.add(nf)
            else:  # distinct geodesics, but not the shortlex ones
                kind = "not_normal_form"
                word = tuple(words[(words != sphere).any(axis=1)][0].tolist())
            return BijectionReport(False, n_max, counts, spheres,
                                   {"kind": kind, "word": group.word_to_str(word)})
        prev = sphere
    return BijectionReport(True, n_max, counts, spheres)


def saturate(
    presentation: GroupPresentation, n_validate: int, cap: Optional[int] = None
) -> tuple[GeodesicAutomaton, BijectionReport]:
    """The shortlex acceptor and its bijection check to length n_validate,
    capped as in ``validate_bijection``; a failed check is reported, not
    raised."""
    aut = build_shortlex_acceptor(presentation)
    return aut, validate_bijection(aut, n_validate, cap)


def checked_acceptor(
    group: GroupPresentation, automaton: Optional[GeodesicAutomaton],
    n_max: int, cap: int, error: type,
) -> GeodesicAutomaton:
    """The acceptor whose walk enumerates the group's balls: the given one,
    else a free group's own (the reduced words, which is exact), else the
    shortlex acceptor checked against the word problem to length n_max,
    capped as in ``validate_bijection``.  A passing check is kept on the
    group with its radius and serves every ball up to that radius; a failed
    one raises ``error`` and is not kept, as does a given acceptor of
    another group."""
    if automaton is None:
        if isinstance(group, FreeGroup):
            return build_shortlex_acceptor(group)
        checked = group._checked_acceptor
        if checked is not None and checked[1] >= n_max:
            return checked[0]
        automaton, report = saturate(group, n_max, cap)
        if not report.ok:
            raise error(f"bijection check failed: {report.first_failure}")
        group._checked_acceptor = (automaton, n_max)
    if automaton.group is not group:
        raise error("balls are walked on a shortlex acceptor of the group")
    return automaton
