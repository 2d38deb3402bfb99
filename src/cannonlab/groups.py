"""Group presentations with a decidable word problem.

Supported families: free groups, C'(1/6) small cancellation groups
(Dehn's algorithm) and Schottky matrix groups (free, with a matrix
representation attached for geometric metrics).

Words are tuples of nonzero ints: generator i is ``+i`` (1-based), its
inverse ``-i``.  Shortlex order interleaves inverses: a < a^-1 < b < b^-1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

Word = tuple  # tuple[int, ...]

DEFAULT_SPHERE_CAP = 20_000_000
CLOSURE_CAP = 4096  # words in one normal form's half-exchange closure


class GroupError(Exception):
    pass


class SymbolError(GroupError):
    """A symbol outside the presentation's alphabet."""


class ResourceCapError(GroupError):
    """An enumeration would exceed its configured cap."""


class PresentationError(GroupError):
    """The presentation violates a family invariant (e.g. C'(1/6))."""


def free_reduce(word: Sequence[int]) -> Word:
    out: list[int] = []
    for s in word:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def invert_word(word: Sequence[int]) -> Word:
    return tuple(-s for s in reversed(word))


def _lcp(a: Sequence[int], b: Sequence[int]) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


@dataclass(frozen=True)
class Element:
    """A group element in canonical normal form."""

    group: "GroupPresentation" = field(repr=False)
    word: Word

    @property
    def length(self) -> int:
        return len(self.word)

    def __mul__(self, other: "Element") -> "Element":
        if self.group is not other.group:
            raise GroupError("elements belong to different presentations")
        return self.group.element(self.word + other.word)

    def inverse(self) -> "Element":
        return self.group.element(invert_word(self.word))

    def __str__(self) -> str:
        return self.group.word_to_str(self.word)


@dataclass(frozen=True)
class ConjClass:
    """A conjugacy class of a free group, keyed by its canonical
    representative (``FreeGroup.canonical_class``)."""

    representative: Element
    is_torsion: bool


class GroupPresentation:
    """Base class; concrete families implement ``_canonical``."""

    family = "abstract"

    def __init__(self, generator_names: Sequence[str]):
        if len(set(generator_names)) != len(generator_names):
            raise PresentationError("duplicate generator names")
        self.generator_names = tuple(generator_names)
        self.rank = len(generator_names)
        # shortlex alphabet order: a, a^-1, b, b^-1, ...
        self.alphabet: Word = tuple(
            s for i in range(1, self.rank + 1) for s in (i, -i)
        )
        self._order = {s: j for j, s in enumerate(self.alphabet)}
        # letters and their shortlex ranks fit this integer type
        self._letters = np.min_scalar_type(-2 * self.rank - 1)
        self._rank_of = np.zeros(2 * self.rank + 1, self._letters)  # at s + rank
        self._rank_of[np.add(self.alphabet, self.rank)] = list(self._order.values())
        self._spheres: list[np.ndarray] = [np.zeros((1, 0), self._letters)]
        # (shortlex acceptor, radius) of the widest passing bijection check
        # kept by automaton.checked_acceptor or a CLI run
        self._checked_acceptor: Optional[tuple] = None

    # -- orders and parsing ------------------------------------------------

    def shortlex_key(self, word: Word):
        order = self._order
        return (len(word), tuple(order[s] for s in word))

    def letter_ranks(self, letters: np.ndarray) -> np.ndarray:
        """The shortlex rank of each letter of an integer array, as in
        ``_order``."""
        return self._rank_of[letters + self.rank]

    def check_symbols(self, word: Sequence[int]) -> None:
        for s in word:
            if s not in self._order:
                raise SymbolError(f"symbol {s!r} outside alphabet")

    def parse_word(self, text: str) -> Word:
        """Parse 'abA' or 'a b a^-1' style words (uppercase = inverse).  A
        chunk that names a generator ('a1', 'A1') is that one letter."""
        lower = {n: i + 1 for i, n in enumerate(self.generator_names)}
        tokens: list[str] = []
        for chunk in text.replace(",", " ").split():
            if chunk.endswith("^-1"):
                tokens.append(chunk[:-3].upper())
            elif chunk.lower() in lower:
                tokens.append(chunk)
            else:
                tokens.extend(chunk)
        word = []
        for t in tokens:
            if t.lower() not in lower:
                raise SymbolError(f"unknown generator {t!r}")
            s = lower[t.lower()]
            word.append(-s if t.isupper() else s)
        return tuple(word)

    def word_to_str(self, word: Word) -> str:
        if not word:
            return "e"
        parts = []
        for s in word:
            name = self.generator_names[abs(s) - 1]
            parts.append(name.upper() if s < 0 else name)
        return "".join(parts)

    # -- normal forms ------------------------------------------------------

    def _canonical(self, word: Word) -> Word:
        raise NotImplementedError

    def normal_form(self, word: Sequence[int]) -> Word:
        return self._canonical(tuple(word))

    def element(self, word: Sequence[int]) -> Element:
        self.check_symbols(word)
        return Element(self, self.normal_form(word))

    def identity(self) -> Element:
        return Element(self, ())

    def extend(self, word: Word, s: int) -> Word:
        """Normal form of ``word * s``, where ``word`` must be a normal form."""
        return self.normal_form(word + (s,))

    # -- enumeration -------------------------------------------------------

    def _next_sphere(self, prev: np.ndarray) -> np.ndarray:
        """The normal forms of length n as rows, possibly repeated, in any
        order, from the sphere of length n - 1: each word times each letter
        but the one that cancels its last, through the word problem.  The
        spheres are kept as arrays, so no normal form is cached."""
        level = prev.shape[1] + 1
        nxt = set()
        for w in map(tuple, prev.tolist()):
            back = -w[-1] if w else 0  # w * back is level - 2 long
            for s in self.alphabet:
                if s == back:
                    continue
                nf = self._canonical(w + (s,))
                if len(nf) == level:
                    nxt.add(nf)
                elif len(nf) > level:
                    raise GroupError("normal form longer than BFS level; "
                                     "presentation machinery inconsistent")
        flat = np.fromiter(chain.from_iterable(nxt), self._letters, len(nxt) * level)
        return flat.reshape(len(nxt), level)

    def _grow_spheres(self, n: int, cap: int) -> None:
        while len(self._spheres) <= n:
            words = self._next_sphere(self._spheres[-1])
            words = words[np.lexsort(self.letter_ranks(words).T[::-1])]
            words = words[np.r_[True, (words[1:] != words[:-1]).any(axis=1)]]
            if len(words) > cap:
                raise ResourceCapError(f"sphere {len(self._spheres)} exceeds cap {cap}")
            words.flags.writeable = False
            self._spheres.append(words)

    def sphere_array(self, n: int, cap: int = DEFAULT_SPHERE_CAP) -> np.ndarray:
        """The normal forms of length n as the rows of a read-only (N, n)
        integer array, in shortlex order."""
        if n < 0:
            raise GroupError("radius must be nonnegative")
        self._grow_spheres(n, cap)
        return self._spheres[n]

    def sphere_words(self, n: int, cap: int = DEFAULT_SPHERE_CAP) -> list[Word]:
        return list(map(tuple, self.sphere_array(n, cap).tolist()))

    def ball_words(self, n: int, cap: int = DEFAULT_SPHERE_CAP) -> list[Word]:
        return [w for k in range(n + 1) for w in self.sphere_words(k, cap)]


class FreeGroup(GroupPresentation):
    family = "free"
    _rotations: tuple = ()  # no relators

    def __init__(self, rank: int, generator_names: Optional[Sequence[str]] = None):
        if rank < 2:
            raise PresentationError("free rank must be >= 2 (non-elementary)")
        if generator_names is None:
            generator_names = [chr(ord("a") + i) for i in range(rank)]
        if len(generator_names) != rank:
            raise PresentationError("generator_names must match rank")
        super().__init__(generator_names)

    def normal_form(self, word: Sequence[int]) -> Word:
        return free_reduce(word)

    def extend(self, word: Word, s: int) -> Word:
        """Normal form of ``word * s`` for a reduced ``word``."""
        return word[:-1] if word and word[-1] == -s else word + (s,)

    def _next_sphere(self, prev: np.ndarray) -> np.ndarray:
        """Free reduction on the whole sphere: each word times each letter
        but the inverse of its last, in shortlex order."""
        rows = np.repeat(prev, len(self.alphabet), axis=0)
        letters = np.tile(np.array(self.alphabet, self._letters), len(prev))
        keep = letters != -rows[:, -1] if prev.shape[1] else slice(None)
        return np.column_stack([rows[keep], letters[keep]])

    @staticmethod
    def cyclic_reduce(word: Word) -> Word:
        word = free_reduce(word)
        while len(word) >= 2 and word[0] == -word[-1]:
            word = word[1:-1]
        return word

    # -- conjugacy ---------------------------------------------------------

    def canonical_class(self, g: Element) -> ConjClass:
        """The class of g, represented by the shortlex-least rotation of its
        cyclic reduction."""
        w = self.cyclic_reduce(g.word)
        if not w:
            return ConjClass(self.identity(), is_torsion=True)
        rotations = [w[i:] + w[:i] for i in range(len(w))]
        rep = min(rotations, key=self.shortlex_key)
        return ConjClass(Element(self, rep), is_torsion=False)

    def enumerate_classes(self, n_max: int, cap: int = DEFAULT_SPHERE_CAP) -> list[ConjClass]:
        """The classes met in the ball of radius n_max, one per
        representative, in shortlex order."""
        seen: dict[Word, ConjClass] = {}
        for w in self.ball_words(n_max, cap):
            c = self.canonical_class(Element(self, w))
            seen.setdefault(c.representative.word, c)
        return sorted(seen.values(), key=lambda c: self.shortlex_key(c.representative.word))


class SmallCancellationGroup(GroupPresentation):
    """C'(1/6) presentation solved by Dehn's algorithm.

    Normal form: Dehn-shorten until no subword covers more than half of
    a symmetrized relator, then take the shortlex-least word in the
    closure under exact-half relator exchanges.
    """

    family = "small_cancellation"

    def __init__(self, generator_names: Sequence[str], relators: Sequence[str]):
        super().__init__(generator_names)
        self.relator_words: list[Word] = []
        rotations: set[Word] = set()
        for text in relators:
            r = FreeGroup.cyclic_reduce(self.parse_word(text))
            if not r:
                raise PresentationError("trivial relator")
            self.relator_words.append(r)
            for base in (r, invert_word(r)):
                for i in range(len(base)):
                    rotations.add(base[i:] + base[:i])
        self._rotations = sorted(rotations, key=self.shortlex_key)
        self._check_sixth()
        # gram prefilters, grouped by relator length
        self._gt_grams: dict[int, set] = {}
        self._eq_grams: dict[int, set] = {}
        for r in self._rotations:
            L = len(r)
            m = L // 2 + 1  # shortest "more than half" match
            self._gt_grams.setdefault(m, set()).add(r[:m])
            if L % 2 == 0:
                self._eq_grams.setdefault(L // 2, set()).add(r[: L // 2])

    def _check_sixth(self) -> None:
        for i, r1 in enumerate(self._rotations):
            for r2 in self._rotations[i + 1 :]:
                piece = _lcp(r1, r2)
                bound = min(len(r1), len(r2)) / 6.0
                if piece >= bound:
                    raise PresentationError(
                        f"C'(1/6) fails: piece of length {piece} in relator "
                        f"of length {min(len(r1), len(r2))}"
                    )

    # -- Dehn machinery ----------------------------------------------------

    def _has_gram(self, word: Word, grams: dict[int, set]) -> bool:
        for m, gset in grams.items():
            if len(word) < m:
                continue
            for i in range(len(word) - m + 1):
                if word[i : i + m] in gset:
                    return True
        return False

    def _find_long_match(self, word: Word):
        """The longest subword covering more than half a relator, the
        leftmost among equally long ones."""
        best = None
        for i in range(len(word)):
            for r in self._rotations:
                L = len(r)
                m = _lcp(word[i:], r)
                if 2 * m > L and (best is None or m > best[2]):
                    best = (i, r, m)
        return best

    def _dehn_shorten(self, word: Word) -> Word:
        word = free_reduce(word)
        while self._has_gram(word, self._gt_grams):
            best = self._find_long_match(word)
            if best is None:
                break
            i, r, m = best
            word = free_reduce(
                word[:i] + invert_word(r[m:]) + word[i + m :]
            )
        return word

    def _half_variants(self, word: Word) -> Iterable[Word]:
        for half, gset in self._eq_grams.items():
            if len(word) < half:
                continue
            for i in range(len(word) - half + 1):
                seg = word[i : i + half]
                if seg not in gset:
                    continue
                for r in self._rotations:
                    if len(r) == 2 * half and r[:half] == seg:
                        yield free_reduce(
                            word[:i] + invert_word(r[half:]) + word[i + half :]
                        )

    def _canonical(self, word: Word) -> Word:
        w = free_reduce(word)
        while True:
            w = self._dehn_shorten(w)
            # closure under equal-length half-relator exchanges
            seen = {w}
            queue = [w]
            shorter = None
            while queue:
                cur = queue.pop()
                for v in self._half_variants(cur):
                    if len(v) < len(cur):
                        shorter = v
                        queue = []
                        break
                    if v in seen:
                        continue
                    if self._has_gram(v, self._gt_grams):
                        shorter = self._dehn_shorten(v)
                        queue = []
                        break
                    seen.add(v)
                    queue.append(v)
                if len(seen) > CLOSURE_CAP:
                    raise ResourceCapError("normal-form closure exceeded cap")
            if shorter is not None:
                w = shorter
                continue
            return min(seen, key=self.shortlex_key)


def surface_group(genus: int = 2) -> SmallCancellationGroup:
    """Fundamental group of a closed orientable surface, standard presentation."""
    if genus < 2:
        raise PresentationError("genus must be >= 2 (non-elementary)")
    # single-letter names for genus 2, else a1,b1,a2,b2,...
    if genus == 2:
        names = ["a", "b", "c", "d"]
        relator = "a b A B c d C D"
    else:
        names = [f"{x}{i+1}" for i in range(genus) for x in "ab"]
        relator = " ".join(
            f"a{i+1} b{i+1} a{i+1}^-1 b{i+1}^-1" for i in range(genus)
        )
    return SmallCancellationGroup(names, [relator])


class SchottkyGroup(FreeGroup):
    """Free group of loxodromic Mobius maps in ping-pong (Schottky) position.

    Validation: every generator matrix is finite with |trace| > 2, and the
    isometric circles of the generators and their inverses are pairwise
    disjoint.
    """

    family = "matrix"

    def __init__(
        self,
        matrices: Sequence[np.ndarray],
        generator_names: Optional[Sequence[str]] = None,
    ):
        mats = [np.array(m, dtype=float) for m in matrices]  # a copy, scaled below
        super().__init__(len(mats), generator_names)
        for m in mats:
            if not np.isfinite(m).all():
                raise PresentationError("generator matrix must be finite")
            det = float(np.linalg.det(m))
            if det <= 0:
                raise PresentationError("generator matrix must have det > 0")
            m /= math.sqrt(det)
            if abs(np.trace(m)) <= 2.0 + 1e-12:
                raise PresentationError("generator is not loxodromic (|tr| <= 2)")
        self.matrices = mats
        self._check_schottky()

    def _isometric_circles(self):
        circles = []
        for m in self.matrices:
            for mat in (m, np.linalg.inv(m)):
                c, d = mat[1, 0], mat[1, 1]
                if abs(c) < 1e-12:
                    raise PresentationError(
                        "generator fixes infinity; choose a conjugated model"
                    )
                circles.append((-d / c, 1.0 / abs(c)))
        return circles

    def _check_schottky(self) -> None:
        circles = self._isometric_circles()
        for i in range(len(circles)):
            for j in range(i + 1, len(circles)):
                (c1, r1), (c2, r2) = circles[i], circles[j]
                if abs(c1 - c2) <= r1 + r2:
                    raise PresentationError(
                        "isometric circles overlap; not a Schottky configuration"
                    )

    def matrix_of(self, word: Word) -> np.ndarray:
        mat = np.eye(2)
        for s in reversed(word):
            gen = self.matrices[abs(s) - 1]
            mat = (np.linalg.inv(gen) if s < 0 else gen) @ mat
        return mat


def hyperbolic_isometry(axis: tuple[float, float], trace: float) -> np.ndarray:
    """SL(2,R) matrix with given trace > 2 translating along the geodesic
    with real endpoints ``axis``."""
    p, q = axis
    if abs(trace) <= 2:
        raise PresentationError("trace must exceed 2")
    lam = (trace + math.sqrt(trace * trace - 4.0)) / 2.0
    v = np.array([[p, q], [1.0, 1.0]])
    m = v @ np.diag([lam, 1.0 / lam]) @ np.linalg.inv(v)
    return m / math.sqrt(np.linalg.det(m))


def standard_schottky(traces: Sequence[float] = (3.0, 5.0)) -> SchottkyGroup:
    """Two-generator Schottky group used across the examples and tests."""
    axes = [(-1.0, 1.0), (4.0, 8.0), (-6.0, -3.0), (12.0, 20.0)]
    mats = [
        hyperbolic_isometry(axes[i], t) for i, t in enumerate(traces)
    ]
    return SchottkyGroup(mats)
