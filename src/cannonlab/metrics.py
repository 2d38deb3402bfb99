"""Left-invariant metrics on the supported groups.

Every metric is evaluated through d(o, g) on normal-form words; distances
between arbitrary points come from left invariance, d(x, y) = d(o, x^-1 y).
Kinds: word metric, scaled word metric, Green metric of a symmetric random
walk (closed form on free groups for the uniform walk, numeric absorbing
solve otherwise), hyperbolic-plane orbit metric of a Schottky matrix model,
and linear combinations of the above.

Each metric also evaluates whole levels of paths over the coding at once,
by halves (``meet``): it computes half data along the prefixes and along
the suffixes of ``automaton.Halves``, then meets a prefix with each of its
suffixes, for enumeration and transfer-operator assembly alike.
``dist_word`` is its one-word case, to the bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .automaton import GeodesicAutomaton, Halves, Multiplier, checked_acceptor
from .groups import (
    DEFAULT_SPHERE_CAP,
    ConjClass,
    Element,
    FreeGroup,
    GroupPresentation,
    SchottkyGroup,
    Word,
)


class MetricError(Exception):
    pass


@dataclass(frozen=True)
class WalkSpec:
    """Symmetric finitely supported step distribution on the generators."""

    probabilities: dict  # symbol -> positive real
    include_identity: float = 0.0

    def __post_init__(self):
        total = sum(self.probabilities.values()) + self.include_identity
        if abs(total - 1.0) > 1e-12:
            raise MetricError(f"step probabilities sum to {total}, not 1")
        for s, p in self.probabilities.items():
            if p <= 0:
                raise MetricError("step probabilities must be positive")
            if abs(self.probabilities.get(-s, -1.0) - p) > 1e-12:
                raise MetricError("walk must be symmetric: p(s) = p(s^-1)")

    @staticmethod
    def uniform(group: GroupPresentation) -> "WalkSpec":
        n = len(group.alphabet)
        return WalkSpec({s: 1.0 / n for s in group.alphabet})

    def is_uniform(self) -> bool:
        vals = list(self.probabilities.values())
        return self.include_identity == 0.0 and max(vals) - min(vals) < 1e-15


Meet = Callable[[int, np.ndarray, np.ndarray], np.ndarray]


class MetricModel:
    """Base evaluator of d(o, g), one word at a time (``dist_word``) or
    block by block of a walk's paths, by halves (``meet``)."""

    kind = "abstract"
    # distance per generator for a metric that is |g|_S times a constant,
    # None for any other metric
    radial_step: Optional[float] = None

    def __init__(self, group: GroupPresentation):
        self.group = group

    def _eval(self, word: Word) -> float:
        if self.radial_step is None:
            raise NotImplementedError
        return self.radial_step * len(word)

    def dist_word(self, word: Word) -> float:
        word = self.group.normal_form(word)
        return self._eval(word) if word else 0.0

    def dist(self, g: Element) -> float:
        return self.dist_word(g.word)

    def meet(self, halves: Halves) -> Meet:
        """The batched d(o, .), by halves: a function of a block (n, rows,
        cols) of ``Halves.blocks`` that returns the distances of its paths
        of n edges, prefix ``rows[i]`` of ``halves.prefix[ceil(n/2)]``
        followed by suffix ``cols[i, j]`` (or ``cols[0, j]``) of
        ``halves.suffix[floor(n/2)]``, as a (len(rows), cols.shape[1])
        array.  The paths must spell normal forms.  A metric computes its
        half data along the two walks once, here, and each call meets them.
        Radial metrics read step * n; every other metric defines its own
        meet."""
        step = self.radial_step
        if step is None:
            raise NotImplementedError
        return lambda n, rows, cols: np.full((len(rows), cols.shape[1]), step * n)


class WordMetric(MetricModel):
    kind = "word"
    radial_step = 1.0


class ScaledWordMetric(MetricModel):
    kind = "scaled_word"

    def __init__(self, group: GroupPresentation, factor: float):
        if factor <= 0:
            raise MetricError("scale factor must be positive")
        super().__init__(group)
        self.factor = self.radial_step = float(factor)


class GreenClosedForm(MetricModel):
    """Green metric of the uniform nearest-neighbor walk on a free group.

    The hitting probability of a neighbor on the (2k)-regular tree is
    1/(2k-1), so G(o,x)/G(o,o) = (2k-1)^{-|x|} and d_G = |x| log(2k-1).
    """

    kind = "green_closed_form"

    def __init__(self, group: FreeGroup):
        if not isinstance(group, FreeGroup):
            raise MetricError("closed-form Green metric needs a free group")
        super().__init__(group)
        self.log_base = self.radial_step = math.log(2 * group.rank - 1)


def _radial_green(rank: int, absorbing_radius: int) -> np.ndarray:
    """Occupation times u(n) of the sphere-level chain of the uniform walk
    on the 2*rank-regular tree, killed on exiting level absorbing_radius-1.

    Tree-automorphism invariance gives G(o,x) = u(|x|)/#S_{|x|}.
    """
    R = absorbing_radius
    q = 2 * rank
    down, up = 1.0 / q, (q - 1.0) / q
    main = np.ones(R)
    lower = np.zeros(R - 1)
    upper = np.zeros(R - 1)
    # (I - P^T) u = delta_0 with P the level-chain kernel
    upper[:] = -down          # mass flowing down from level n+1 to n
    lower[0] = -1.0           # level 0 always steps up
    lower[1:] = -up
    A = scipy.sparse.diags([lower, main, upper], [-1, 0, 1], format="csc")
    rhs = np.zeros(R)
    rhs[0] = 1.0
    return scipy.sparse.linalg.spsolve(A, rhs)


class _Ball:
    """The accepted words of length below ``radius`` at their walk
    positions: level after level in shortlex order, which is the order of
    ``group.ball_words``.  Word i of level n is at ``offset[n] + i``.  The
    walk is capped at DEFAULT_SPHERE_CAP words, before any array is
    allocated."""

    def __init__(self, aut: GeodesicAutomaton, radius: int):
        self.initial, self.group, self.edges = aut.initial, aut.group, aut._edges()
        self.levels = list(aut.walk(radius - 1, cap=DEFAULT_SPHERE_CAP))
        self.offset = np.cumsum([0] + [len(level.state) for level in self.levels])
        # the index in level n + 1 of each word's first child
        degree = self.edges.degree
        self.first = [np.cumsum(degree[lv.state]) - degree[lv.state] for lv in self.levels]

    def step(self, n: int, state, index, column):
        """The children of words ``index`` of level n, in ``state``, by the
        letters of rank ``column``, as (state, index in level n + 1), the
        arrays broadcast together.  The state is -1 where the acceptor has
        no such edge."""
        edge = self.edges.slot[state, column]
        child = self.first[n][index] + edge - self.edges.first[state]
        return np.where(edge >= 0, self.edges.target[edge], -1), child

    def walked(self, n: int, state, index, column):
        """``step`` along paths that the acceptor must accept."""
        state, index = self.step(n, state, index, column)
        if np.any(state < 0):
            raise MetricError("a path fed to the Green metric is not accepted "
                              "by the ball's acceptor")
        return state, index

    def word(self, n: int, i: int) -> Word:
        """Word i of level n, read back up its parents."""
        labels = []
        for level in self.levels[n:0:-1]:
            labels.append(int(level.label[i]))
            i = int(level.parent[i])
        return tuple(reversed(labels))

    def position(self, word: Word) -> int:
        """The walk position of a word shorter than the radius."""
        state, index = self.initial, 0
        for n, s in enumerate(word):
            state, index = self.step(n, state, index, self.group._order[s])
            if state < 0:
                raise MetricError(f"{word} is not accepted by the ball's acceptor")
        return int(self.offset[len(word)] + index)


def _killed_walk(
    group: GroupPresentation, walk: WalkSpec, absorbing_radius: int
) -> tuple[Optional[_Ball], Sequence[float]]:
    """G(o, .) for the walk killed on leaving the ball of radius
    absorbing_radius - 1, as (ball, u).  On a free group with the uniform
    walk, ball is None and u[n] is G on the n-sphere, in closed form.
    Otherwise u[i] is G at walk position i of the ``_Ball`` on the acceptor
    that ``checked_acceptor`` picks, from one solve of (I - P)^T u =
    delta_o with zero boundary outside the ball.  I - P is assembled by
    walk position, per level and letter s.  A step whose s cancels the last
    letter goes to the parent, one along an acceptor edge to the child (from
    the outer sphere it leaves the ball), and any other step, a rewrite, to
    the normal form that ``Multiplier`` finds, unless that lies outside the
    ball.  No step solves the word problem."""
    R = absorbing_radius
    if isinstance(group, FreeGroup) and walk.is_uniform():
        u = _radial_green(group.rank, R)
        q = 2 * group.rank
        # G is constant on spheres: u(n) over the size of the n-sphere
        return None, [float(u[n]) / (q * (q - 1) ** (n - 1) if n else 1) for n in range(R)]
    aut = checked_acceptor(group, None, R - 1, DEFAULT_SPHERE_CAP, MetricError)
    ball, multiply = _Ball(aut, R), None
    size = int(ball.offset[-1])
    rows, cols = [np.arange(size)], [np.arange(size)]
    vals = [np.full(size, 1.0 - walk.include_identity)]
    for n, level in enumerate(ball.levels):
        index = np.arange(len(level.state))
        here = ball.offset[n] + index
        for s, p in walk.probabilities.items():
            up = level.label == -s  # level 0 carries label 0
            target, child = ball.step(n, level.state, index, group._order[s])
            down = (target >= 0) & ~up
            r, k = [here[up]], [ball.offset[n - 1] + level.parent[up]]
            if n + 1 < R:
                r.append(here[down])
                k.append(ball.offset[n + 1] + child[down])
            for i in np.flatnonzero(~up & (target < 0)).tolist():
                multiply = multiply or Multiplier(aut)
                w = ball.word(n, i)
                found = multiply(w, s)
                if len(found) != 1:
                    raise MetricError(
                        f"{len(found)} words found for the normal form of "
                        f"{group.word_to_str(w + (s,))} from the word differences"
                    )
                if len(found[0]) < R:
                    r.append(here[i:i + 1])
                    k.append(np.array([ball.position(found[0])]))
            rows += r
            cols += k
            vals.append(np.full(sum(map(len, r)), -p))
    A = scipy.sparse.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )
    rhs = np.zeros(size)
    rhs[0] = 1.0
    # occupation measure solves (I - P)^T u = delta_o; P symmetric here
    u = scipy.sparse.linalg.spsolve(A.T, rhs)
    residual = np.linalg.norm(A.T @ u - rhs)
    if residual > 1e-8:
        raise MetricError(f"Green solve ill-conditioned, residual {residual:.2e}")
    return ball, u


def green_function(
    group: GroupPresentation,
    walk: WalkSpec,
    g: Element,
    absorbing_radius: int,
) -> float:
    """G(o, g) for the killed walk: solve (I - P)u = delta_o with zero
    boundary outside the ball of the given radius."""
    if len(g.word) >= absorbing_radius:
        raise MetricError("element outside the absorbing ball")
    ball, u = _killed_walk(group, walk, absorbing_radius)
    return float(u[len(g.word) if ball is None else ball.position(g.word)])


class GreenNumeric(MetricModel):
    """Green metric -log G(o, g) / G(o, o) of a killed walk.  The one solve
    made at construction serves every element: ``dist_word`` reads the
    distance at the word's walk position in the ball (at its length, in the
    closed form), and ``meet`` steps each path's state and position in the
    ball's acceptor along the letters of its prefix, then along those of
    its suffixes, so it builds no word.  The acceptor is the one ``count_ball`` picks for the radius
    absorbing_radius - 1 (``checked_acceptor``): a check kept on the group
    to that radius serves, so the build then solves no word problem."""

    kind = "green_numeric"

    def __init__(
        self,
        group: GroupPresentation,
        walk: Optional[WalkSpec] = None,
        absorbing_radius: int = 30,
        safety_margin: int = 10,
    ):
        super().__init__(group)
        self.walk = walk if walk is not None else WalkSpec.uniform(group)
        self.absorbing_radius = absorbing_radius
        self.safety_margin = safety_margin
        # the lookup covers lengths up to _reach
        self._reach = absorbing_radius - max(safety_margin, 1)
        self._ball, u = _killed_walk(group, self.walk, absorbing_radius)
        end = max(self._reach + 1, 0)
        end = end if self._ball is None else self._ball.offset[end]
        # math.log, not np.log: numpy's vector log differs from libm's in
        # the last bit on some machines, and the CLI artifacts carry these
        g_oo = float(u[0])
        self._dist = np.array([-math.log(g / g_oo) for g in np.asarray(u)[:end].tolist()])

    def _check(self, length: int) -> None:
        if length > self._reach:
            raise MetricError(
                "element too close to the absorbing boundary; "
                "increase absorbing_radius"
            )

    def _eval(self, word: Word) -> float:
        self._check(len(word))
        return float(self._dist[len(word) if self._ball is None else self._ball.position(word)])

    def meet(self, halves: Halves) -> Meet:
        ball, dist, ranks = self._ball, self._dist, self.group.letter_ranks
        if ball is not None:
            # each prefix's state and index in its level of the ball, per
            # level within reach, and each suffix's letter ranks (row m:
            # its letter m + 1), per level
            prefix, letters = [], [np.empty((0, len(halves.suffix[0].state)), np.int64)]
            for level in halves.prefix[:self._reach + 1]:
                if level.length:
                    state, index = (a[level.parent] for a in prefix[-1])
                    prefix.append(ball.walked(level.length - 1, state, index, ranks(level.label)))
                else:
                    size = len(level.state)
                    prefix.append((np.full(size, ball.initial), np.zeros(size, np.int64)))
            for level in halves.suffix[1:]:
                letters.append(np.vstack([letters[-1][:, level.parent], ranks(level.label)]))

        def green(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
            shape = (len(rows), cols.shape[1])
            if n == 0:
                return np.zeros(shape)
            self._check(n)
            if ball is None:
                return np.full(shape, dist[n])
            p = (n + 1) // 2
            state, index = (a[rows, None] for a in prefix[p])
            for m, column in enumerate(letters[n // 2][:, cols]):
                state, index = ball.walked(p + m, state, index, column)
            return dist[ball.offset[n] + index]

        return green


def _base_point_frame(z: complex) -> np.ndarray:
    """SL(2,R) matrix sending i to z in the upper half-plane."""
    y = math.sqrt(z.imag)
    return np.array([[y, z.real / y], [0.0, 1.0 / y]])


# a half whose q passes this is rescaled; the square stays finite, so two
# halves meet without overflow
_RESCALE = 1e150
_LOG_FAR = math.log(1e20)


def _orbit_step(m: tuple, gens: tuple, label, log_scale) -> tuple:
    """One letter of the running product M <- M g_label on the entries
    m = (a, b, c, d) of M, numpy arrays or scalars, with the same bits
    either way; ``gens[e][label]`` is entry e of the generator.  Returns
    the entries, the log scale and q = a^2 + b^2 + c^2 + d^2.  Where q
    passes _RESCALE, the entries are divided by sqrt(q) and its log is
    added to ``log_scale``."""
    (a, b, c, d), (ga, gb, gc, gd) = m, [g[label] for g in gens]
    a, b, c, d = a * ga + b * gc, a * gb + b * gd, c * ga + d * gc, c * gb + d * gd
    q = a * a + b * b + c * c + d * d
    # the largest q, in one reduction that is cheap on a scalar too
    if np.maximum.reduce(q, axis=None) > _RESCALE:
        top = np.where(q > _RESCALE, q, 1.0)
        root = np.sqrt(top)
        a, b, c, d, q = a / root, b / root, c / root, d / root, q / top
        log_scale = log_scale + np.log(root)
    return (a, b, c, d), log_scale, q


def _gram(a, b, c, d) -> tuple:
    """The entries 11, 12 and 22 of M^T M, M = [[a, b], [c, d]]; those of
    M M^T are ``_gram(a, c, b, d)``."""
    return a * a + c * c, a * b + c * d, b * b + d * d


def _distance(log_scale, a: tuple, b: tuple):
    """d of a product UV, elementwise, from A = U^T U and B = V V^T
    (``_gram``) and the sum of the halves' log scales: cosh d = q / 2
    times exp(2 log_scale), with q = ||UV||_F^2 = tr(AB) = A11 B11 +
    2 A12 B12 + A22 B22.  Past q = 1e20, acosh x = log 2x to rounding, so
    a rescaled product reads log q + 2 log_scale there; a rescaled one
    short of that (only cancellation between its halves could make one) is
    unscaled first."""
    q = a[0] * b[0] + 2.0 * a[1] * b[1] + a[2] * b[2]
    if np.maximum.reduce(log_scale, axis=None) > 0.0:
        log_q = np.log(q) + 2.0 * log_scale
        far = (log_scale > 0.0) & (log_q > _LOG_FAR)
        q = q * np.exp(2.0 * np.where(far, 0.0, log_scale))
        return np.where(far, log_q, np.arccosh(np.maximum(q / 2.0, 1.0)))
    return np.arccosh(np.maximum(q / 2.0, 1.0))


class FuchsianOrbit(MetricModel):
    """d(o, g) = hyperbolic distance from the base point to its image under
    the matrix representation, in the upper half-plane: cosh d =
    ||C^-1 M C||_F^2 / 2 for det-1 M and C: i -> base point, which avoids the
    cancellation of the Mobius image formula.  The generators are conjugated
    by C once, so the running products (``_orbit_step``) are C^-1 U C of a
    prefix and C^-1 V C of a suffix, both from the identity, and
    ``_distance`` reads that of the word UV from their Gram matrices: on the
    arrays of a walk's halves (``meet``) and on the scalars of one word
    (``_eval``, prefix ceil(n/2), suffix floor(n/2)) alike."""

    kind = "fuchsian_orbit"

    def __init__(self, group: SchottkyGroup, base_point: complex = 1j):
        if not isinstance(group, SchottkyGroup):
            raise MetricError("orbit metric needs a matrix model")
        if base_point.imag <= 0:
            raise MetricError("base point must lie in the upper half-plane")
        super().__init__(group)
        self.base_point = complex(base_point)
        self._frame = _base_point_frame(self.base_point)
        self._frame_inv = np.linalg.inv(self._frame)
        # entry e of C^-1 g C, g the generator of label s, at _gens[e][s + rank]
        r = group.rank
        gens = [group.matrix_of((s,)) if s else np.eye(2) for s in range(-r, r + 1)]
        gens = [self._frame_inv @ g @ self._frame for g in gens]
        self._gens = tuple(np.reshape(gens, (-1, 4)).T.copy())
        self._gen_lists = [g.tolist() for g in self._gens]

    def _product(self, word: Word) -> tuple:
        """The word's rescaled C^-1 M C entries, log_scale and q, on scalars."""
        m, log_scale, q, r = (1.0, 0.0, 0.0, 1.0), 0.0, 2.0, self.group.rank
        for s in word:
            m, log_scale, q = _orbit_step(m, self._gen_lists, s + r, log_scale)
        return m, log_scale, q

    def _eval(self, word: Word) -> float:
        p = (len(word) + 1) // 2
        (a, b, c, d), lu, _ = self._product(word[:p])
        (e, f, g, h), lv, _ = self._product(word[p:])
        return float(_distance(lu + lv, _gram(a, b, c, d), _gram(e, g, f, h)))

    def meet(self, halves: Halves) -> Meet:
        r = self.group.rank

        def grams(levels, transpose: bool) -> list:
            """Per level, the log scale and the Gram entries (of M^T M, or
            of M M^T when ``transpose``) of each path's running product M,
            multiplied out from the identity."""
            out, m, ls = [], None, None
            for level in levels:
                if level.length == 0:
                    one, zero = np.ones(len(level.state)), np.zeros(len(level.state))
                    m, ls = (one, zero, zero, one), zero
                else:
                    m, ls, _ = _orbit_step([e[level.parent] for e in m], self._gens,
                                           level.label + r, ls[level.parent])
                a, b, c, d = m
                out.append((ls, _gram(a, c, b, d) if transpose else _gram(a, b, c, d)))
            return out

        prefix, suffix = grams(halves.prefix, False), grams(halves.suffix, True)
        rescaled = any(np.any(ls > 0.0) for ls, _ in prefix + suffix)

        def fuchsian(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
            (lu, a), (lv, b) = prefix[(n + 1) // 2], suffix[n // 2]
            ls = lu[rows, None] + lv[cols] if rescaled else 0.0
            return _distance(ls, [e[rows, None] for e in a], [e[cols] for e in b])

        return fuchsian


class LinearCombination(MetricModel):
    """Positive linear combination of metrics on the same group."""

    kind = "linear_combination"

    def __init__(self, terms: Sequence[tuple[float, MetricModel]]):
        if not terms:
            raise MetricError("empty combination")
        group = terms[0][1].group
        for c, m in terms:
            if m.group is not group:
                raise MetricError("metrics live on different groups")
            if c < 0:
                raise MetricError("coefficients must be nonnegative")
        if all(c == 0 for c, _ in terms):
            raise MetricError("combination is identically zero")
        super().__init__(group)
        self.terms = list(terms)

    def _eval(self, word: Word) -> float:
        return sum(c * m.dist_word(word) for c, m in self.terms)

    def meet(self, halves: Halves) -> Meet:
        parts = [(c, m.meet(halves)) for c, m in self.terms]
        return lambda n, rows, cols: sum(c * part(n, rows, cols) for c, part in parts)


# -- derived quantities -----------------------------------------------------

@dataclass(frozen=True)
class TranslationLength:
    value: float
    method: str

    @property
    def is_torsion(self) -> bool:
        # class is torsion exactly when the translation length vanishes
        return self.value < 1e-11


def translation_length(metric: MetricModel, c: ConjClass) -> TranslationLength:
    """lim d(o, g^m)/m for the class representative, in closed form: the
    cyclic length times the step of a radial metric on a free group, or
    2 acosh(|tr|/2) for the Fuchsian orbit metric.  Any other metric has no
    closed form here and raises MetricError."""
    g = c.representative
    if g.length == 0:
        return TranslationLength(0.0, "identity")
    group = metric.group
    if metric.radial_step is not None and isinstance(group, FreeGroup):
        w = FreeGroup.cyclic_reduce(g.word)
        return TranslationLength(metric.radial_step * len(w), "cyclic_length")
    if isinstance(metric, FuchsianOrbit):
        (a, _, _, d), log_scale, _ = metric._product(FreeGroup.cyclic_reduce(g.word))
        half_tr = abs(a + d) * math.exp(log_scale) / 2.0
        if half_tr <= 1.0:
            return TranslationLength(0.0, "trace")
        return TranslationLength(2.0 * math.acosh(half_tr), "trace")
    raise MetricError(
        f"no closed-form translation length for the {metric.kind} metric "
        f"on a {group.family} group"
    )
