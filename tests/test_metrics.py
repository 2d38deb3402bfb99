"""Metrics as distance models: closed forms, numeric solves."""
import math
import sys
from fractions import Fraction

import numpy as np
import scipy.sparse.linalg
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cannonlab import automaton, counting, groups, metrics

words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10).map(tuple)


def test_word_metric_is_reduced_length(free2):
    wm = metrics.WordMetric(free2)
    assert wm.dist_word((1, -1)) == 0.0
    assert wm.dist_word((1, 2, 1)) == 3.0
    x, y = free2.element((1,)), free2.element((2,))
    assert wm.dist_word(groups.invert_word(x.word) + y.word) == 2.0


def test_scaled_word_metric(free2):
    sm = metrics.ScaledWordMetric(free2, 0.25)
    assert sm.dist_word((1, 2)) == 0.5


def test_green_closed_form_matches_tree_formula(free2):
    gm = metrics.GreenClosedForm(free2)
    for n in range(5):
        w = tuple([1, 2] * n)[:n]
        assert abs(gm.dist_word(w) - n * math.log(3)) < 1e-12


def test_green_function_radial_values(free2):
    walk = metrics.WalkSpec.uniform(free2)
    o = free2.identity()
    g_oo = metrics.green_function(free2, walk, o, 30)
    assert abs(g_oo - 1.5) < 1e-6
    x = free2.element((1, 2))
    g_ox = metrics.green_function(free2, walk, x, 30)
    assert abs(g_ox - 1.5 / 9.0) < 1e-6


def test_green_numeric_agrees_with_closed_form(free2):
    gm = metrics.GreenClosedForm(free2)
    gn = metrics.GreenNumeric(free2)
    for w in [(1,), (1, 2), (1, 2, -1), (2, 2, 2, 2)]:
        assert abs(gn.dist_word(w) - gm.dist_word(w)) < 1e-6


def test_walk_spec_requires_symmetry(free2):
    with pytest.raises(metrics.MetricError):
        metrics.WalkSpec({1: 0.6, -1: 0.1, 2: 0.15, -2: 0.15})
    with pytest.raises(metrics.MetricError):
        metrics.WalkSpec({1: 0.3, -1: 0.3, 2: 0.3, -2: 0.3})
    assert metrics.WalkSpec.uniform(free2).is_uniform()


@given(words)
@settings(max_examples=40)
def test_fuchsian_distance_is_symmetric_under_inversion(w):
    sch = groups.standard_schottky()
    fo = metrics.FuchsianOrbit(sch)
    assert abs(fo.dist_word(w) - fo.dist_word(groups.invert_word(w))) < 1e-8


def test_fuchsian_distance_closed_form_on_generator(schottky, fuchsian):
    # d(o, g o) = acosh(||C^-1 M C||_F^2 / 2) for the det-1 matrix
    m = schottky.matrices[0]
    frame_inv, frame = fuchsian._frame_inv, fuchsian._frame
    conj = frame_inv @ m @ frame
    expect = math.acosh(float(np.sum(conj * conj)) / 2.0)
    assert abs(fuchsian.dist_word((1,)) - expect) < 1e-12


def _exact_cosh(matrix, base_point):
    """cosh d(z, Mz) = 1 + |z(cz + d) - (az + b)|^2 / (2 y^2), in exact
    rationals, for M = [[a, b], [c, d]] of det 1 and z = x + iy."""
    (a, b), (c, d) = matrix
    x, y = Fraction(base_point.real), Fraction(base_point.imag)
    # z (cz + d) - (az + b) = (c z^2 + (d - a) z - b), z^2 = x^2 - y^2 + 2ixy
    re = c * (x * x - y * y) + (d - a) * x - b
    im = c * 2 * x * y + (d - a) * y
    return 1 + (re * re + im * im) / (2 * y * y)


@pytest.mark.parametrize("base_point", [1j, complex(0.2, 2.1)])
def test_fuchsian_distance_matches_exact_rationals(schottky, base_point):
    # M multiplied out in Fractions from the float generator entries, so
    # that only the metric's own rounding is measured; this catches a
    # conjugation by C where C^-1 is meant, which is invisible at i
    f = metrics.FuchsianOrbit(schottky, base_point)
    gens = {s: [[Fraction(v) for v in row] for row in schottky.matrix_of((s,)).tolist()]
            for s in schottky.alphabet}
    exact = {(): [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]}
    for w in schottky.ball_words(6)[1:]:  # sphere 6: two halves of 3 letters
        (a, b), (c, d) = exact[w[:-1]]
        (ga, gb), (gc, gd) = gens[w[-1]]
        exact[w] = [[a * ga + b * gc, a * gb + b * gd], [c * ga + d * gc, c * gb + d * gd]]
        want = math.acosh(float(_exact_cosh(exact[w], base_point)))
        assert abs(f.dist_word(w) - want) <= 1e-13 * want, w


def test_fuchsian_long_words_stay_finite(schottky, fuchsian):
    w = tuple([1, 2, -1, 2] * 20)
    d = fuchsian.dist_word(w)
    assert 100.0 < d < 600.0
    # the scaled product path agrees with the plain product C^-1 M C on
    # medium words, at i (where C = I) and off it
    w2 = w[:20]
    for f in (fuchsian, metrics.FuchsianOrbit(schottky, complex(0.2, 2.1))):
        m, log_scale, _ = f._product(w2)
        plain = f._frame_inv @ schottky.matrix_of(w2) @ f._frame
        assert np.allclose(np.reshape(m, (2, 2)) * math.exp(log_scale), plain)


def test_fuchsian_triangle_inequality_on_samples(schottky, fuchsian):
    rng = np.random.default_rng(0)
    ws = schottky.ball_words(4)
    for _ in range(200):
        i, j = rng.integers(0, len(ws), size=2)
        x, y = schottky.element(ws[i]), schottky.element(ws[j])
        assert fuchsian.dist_word(groups.invert_word(x.word) + y.word) <= (
            fuchsian.dist(x) + fuchsian.dist(y) + 1e-9
        )


def test_linear_combination_is_entrywise(free2):
    wm = metrics.WordMetric(free2)
    gm = metrics.GreenClosedForm(free2)
    lc = metrics.LinearCombination([(2.0, wm), (1.0, gm)])
    w = (1, 2, 1)
    assert abs(lc.dist_word(w) - (2.0 * 3 + 3 * math.log(3))) < 1e-12
    with pytest.raises(metrics.MetricError):
        metrics.LinearCombination([])
    with pytest.raises(metrics.MetricError):
        metrics.LinearCombination([(-1.0, wm)])


def test_translation_length_closed_forms(free2, schottky, fuchsian):
    wm = metrics.WordMetric(free2)
    c = free2.canonical_class(free2.element((1, 2, -1)))
    t = metrics.translation_length(wm, c)
    assert t.value == 1.0 and not t.is_torsion
    ident = free2.canonical_class(free2.identity())
    assert metrics.translation_length(wm, ident).is_torsion
    # matrix model: 2 acosh(|tr| / 2)
    cs = schottky.canonical_class(schottky.element((1,)))
    ts = metrics.translation_length(fuchsian, cs)
    assert abs(ts.value - 2.0 * math.acosh(1.5)) < 1e-9


def test_translation_length_off_i_is_the_trace(schottky, fuchsian):
    # read off the conjugated product, so the trace must not depend on
    # the base point
    off_i = metrics.FuchsianOrbit(schottky, complex(0.2, 2.1))
    for w in [(1,), (1, 2), (1, -2, -2), (2, 1, -2, 1, 1)]:
        c = schottky.canonical_class(schottky.element(w))
        want = 2.0 * math.acosh(abs(np.trace(schottky.matrix_of(c.representative.word))) / 2.0)
        got = metrics.translation_length(off_i, c).value
        assert abs(got - want) <= 1e-12 * want
        assert abs(got - metrics.translation_length(fuchsian, c).value) <= 1e-12 * want


def test_translation_length_green_scales_word(free2):
    gm = metrics.GreenClosedForm(free2)
    c = free2.canonical_class(free2.element((1, 2)))
    t = metrics.translation_length(gm, c)
    assert abs(t.value - 2.0 * math.log(3)) < 1e-9


def test_translation_length_without_a_closed_form_raises(genus2):
    c = groups.ConjClass(genus2.element((1, 2)), is_torsion=False)
    with pytest.raises(metrics.MetricError, match="word metric on a small_cancellation"):
        metrics.translation_length(metrics.WordMetric(genus2), c)


def test_green_numeric_is_one_solve(genus2, monkeypatch):
    solves = []
    spsolve = scipy.sparse.linalg.spsolve
    monkeypatch.setattr(
        scipy.sparse.linalg,
        "spsolve",
        lambda *args, **kw: solves.append(1) or spsolve(*args, **kw),
    )
    green = metrics.GreenNumeric(genus2, absorbing_radius=5, safety_margin=3)
    dists = [green.dist_word(w) for w in genus2.ball_words(2)]
    assert len(dists) == 65 and len(solves) == 1


@pytest.mark.parametrize("case", ["genus2", "free2_nonuniform"])
def test_green_numeric_lookup_matches_green_function(case, genus2, free2):
    if case == "genus2":
        group, walk, radius, margin, ball = genus2, None, 5, 3, 2
    else:
        group, radius, margin, ball = free2, 6, 2, 4
        walk = metrics.WalkSpec({1: 0.35, -1: 0.35, 2: 0.15, -2: 0.15})
    green = metrics.GreenNumeric(group, walk, absorbing_radius=radius, safety_margin=margin)
    g_oo = metrics.green_function(group, green.walk, group.identity(), radius)
    for w in group.ball_words(ball):
        g = metrics.green_function(group, green.walk, group.element(w), radius)
        assert abs(green.dist_word(w) + math.log(g / g_oo)) <= 1e-12
    far = group.sphere_words(ball + 1)[0]
    with pytest.raises(metrics.MetricError, match="absorbing boundary"):
        green.dist_word(far)


# -- distances by halves --------------------------------------------------------

def _levels_with_words(aut, n_max):
    """The levels of the acceptor's walk, each with its words rebuilt."""
    words = []
    for level in aut.walk(n_max):
        words = [
            words[p] + (s,) for p, s in zip(level.parent.tolist(), level.label.tolist())
        ] if level.length else [()]
        yield level, words


KERNEL_CASES = {
    # case: fixture getter -> (metric, automaton whose walk feeds it, radius)
    "word": lambda fx: (metrics.WordMetric(fx("free2")), fx("free2_aut"), 8),
    "scaled_word": lambda fx: (
        metrics.ScaledWordMetric(fx("free2"), 0.37), fx("free2_aut"), 8),
    "green_closed_form": lambda fx: (
        metrics.GreenClosedForm(fx("free2")), fx("free2_aut"), 8),
    "fuchsian_at_i": lambda fx: (fx("fuchsian"), fx("schottky_aut"), 8),
    "fuchsian_off_i": lambda fx: (
        metrics.FuchsianOrbit(fx("schottky"), complex(0.2, 2.1)), fx("schottky_aut"), 8),
    "word_plus_fuchsian": lambda fx: (
        metrics.LinearCombination(
            [(0.6, metrics.WordMetric(fx("schottky"))), (0.4, fx("fuchsian"))]),
        fx("schottky_aut"), 8),
    "green_numeric": lambda fx: (
        metrics.GreenNumeric(fx("genus2"), absorbing_radius=5, safety_margin=3),
        fx("genus2_aut"), 2),
}


def _level_distances(metric, halves, n_max, chunk=1 << 14):
    """The distances of the paths of 0..n_max edges, level by level, from
    the metric's meet on ``halves``."""
    meet = metric.meet(halves)
    for n in range(n_max + 1):
        d = np.empty(halves.size(n))
        halves.fill(n, [meet], [d], chunk)
        yield d


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_level_kernel_equals_dist_word_bitwise(case, request):
    """Each level's distances, by halves through the metric's meet, are the
    dist_word of the level's words, in walk order, bit for bit."""
    metric, aut, n_max = KERNEL_CASES[case](request.getfixturevalue)
    halves = aut._halves([aut.initial], n_max, None)
    levels = zip(_levels_with_words(aut, n_max), _level_distances(metric, halves, n_max))
    for (level, words), got in levels:
        want = np.array([metric.dist_word(w) for w in words])
        assert np.array_equal(got, want), level.length


def _one_word_halves(word):
    """The halves of one path spelling ``word`` from state 0: its prefix of
    ceil(n/2) letters and, as the only suffix from state 0, the rest."""
    p, one = (len(word) + 1) // 2, np.zeros(1, dtype=np.int64)

    def chain(letters):
        return [automaton.Level(m, one, np.array(letters[m - 1:m] or [0]), one)
                for m in range(len(letters) + 1)]

    return automaton.Halves(chain(word[:p]), chain(word[p:]),
                            [np.array([0, 1])] * (len(word) - p + 1))


def _meet_one(metric, word):
    """d(o, word) from the metric's meet on the halves of the one word."""
    return list(_level_distances(metric, _one_word_halves(word), len(word)))[-1][0]


def _exact_log_norm(schottky, word):
    """log ||M||_F^2 of the word's product, multiplied out in Fractions
    from matrix_of's generator entries, so no overflow and no rounding."""
    gens = {s: [[Fraction(v) for v in row] for row in schottky.matrix_of((s,)).tolist()]
            for s in set(word)}
    (a, b), (c, d) = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for s in word:
        (ga, gb), (gc, gd) = gens[s]
        a, b, c, d = a * ga + b * gc, a * gb + b * gd, c * ga + d * gc, c * gb + d * gd
    q = a * a + b * b + c * c + d * d
    return math.log(q.numerator) - math.log(q.denominator)


RESCALE_WORDS = {
    # case: (word, whether its prefix and its suffix are rescaled)
    "both_halves_past_the_threshold": ((2,) * 220, (True, True)),
    "halves_below_1e200_product_past_1e308": ((2,) * 236, (True, True)),
    "halves_just_below_the_threshold": ((2,) * 216, (False, False)),
    "rescaled_prefix_only": ((2,) * 113 + (1,) * 112, (True, False)),
    "rescaled_suffix_only": ((1,) * 112 + (2,) * 112, (False, True)),
    "length_150": ((2, 1) * 75, (False, False)),
    "length_151": ((2, 1) * 75 + (2,), (False, False)),
    "length_301": ((2, 1) * 150 + (2,), (True, True)),
    "length_302": ((2, 1) * 151, (True, True)),
}


@pytest.mark.parametrize("case", list(RESCALE_WORDS))
def test_fuchsian_halves_rescale_without_overflow(schottky, fuchsian, case):
    """A half is rescaled past metrics._RESCALE, whose square stays finite,
    so two halves meet without overflow, and a rescaled product reads
    log 2x + 2 log_scale.  At base point i and these lengths, d =
    acosh(||M||_F^2 / 2) = log ||M||_F^2 to rounding."""
    word, rescaled = RESCALE_WORDS[case]
    p = (len(word) + 1) // 2
    assert 2.0 * metrics._RESCALE ** 2 < sys.float_info.max
    assert (fuchsian._product(word[:p])[1] > 0.0,
            fuchsian._product(word[p:])[1] > 0.0) == rescaled
    got = fuchsian.dist_word(word)
    assert _meet_one(fuchsian, word) == got
    assert abs(got - _exact_log_norm(schottky, word)) <= 1e-12 * got


def test_a_rescaled_product_short_of_the_log_range_is_unscaled():
    # q = 2 at log scale 5: the true q / 2 is e^10, where acosh x and
    # log 2x still differ by about 5e-10
    got = metrics._distance(5.0, (1.0, 0.0, 1.0), (1.0, 0.0, 1.0))
    assert got == np.arccosh(np.exp(10.0))
    assert abs(got - (math.log(2.0) + 10.0)) > 1e-10


def test_fuchsian_kernel_rescales_like_the_scalar_path(schottky):
    """Every prefix of a 301-letter word, by halves, is its dist_word bit for
    bit, through the rescales of both halves."""
    f = metrics.FuchsianOrbit(schottky)
    word = (2, 1) * 150 + (2,)
    got = [_meet_one(f, word[:n]) for n in range(0, len(word) + 1, 7)]
    want = [f.dist_word(word[:n]) for n in range(0, len(word) + 1, 7)]
    assert np.array_equal(got, want)
    # the entries passed the threshold, so both halves were rescaled
    assert f._product(word[:151])[1] > 0.0 and f._product(word[151:])[1] > 0.0


# -- the Green metric from the acceptor's walk ---------------------------------

def _no_word_problem(group):
    def forbidden(word):
        raise AssertionError("Dehn normal form during a Green build")

    group._canonical = forbidden


def _keep_check(group, aut, radius):
    """Hand the group an acceptor as if checked to radius, as a CLI run
    does after its bijection check."""
    group._checked_acceptor = (aut, radius)


def test_green_build_from_a_kept_acceptor_solves_no_word_problem():
    genus2 = groups.surface_group(2)
    _keep_check(genus2, automaton.build_shortlex_acceptor(genus2), 5)
    _no_word_problem(genus2)
    green = metrics.GreenNumeric(genus2, absorbing_radius=6, safety_margin=1)
    assert len(green._dist) == 22289


def test_the_green_cap_fires_before_any_sphere_grows():
    genus2 = groups.surface_group(2)
    _no_word_problem(genus2)
    # the default absorbing radius 30: the check to radius 29 is refused
    # from the acceptor's counts alone, as is a walk of a kept acceptor
    with pytest.raises(groups.ResourceCapError, match="radius 29 exceeds cap"):
        metrics.GreenNumeric(genus2)
    _keep_check(genus2, automaton.build_shortlex_acceptor(genus2), 29)
    with pytest.raises(groups.ResourceCapError, match="walk to length 29"):
        metrics.GreenNumeric(genus2)


def test_a_green_ball_on_a_failed_check_raises(monkeypatch):
    genus2 = groups.surface_group(2)
    # the generators alone as differences: every reduced word is accepted,
    # so the check to radius 4 fails and is not kept
    monkeypatch.setattr(
        automaton, "_differences",
        lambda g: {w: w for w in [()] + [(s,) for s in g.alphabet]},
    )
    with pytest.raises(metrics.MetricError, match="bijection check failed"):
        metrics.GreenNumeric(genus2, absorbing_radius=5, safety_margin=1)
    assert genus2._checked_acceptor is None


def _reference_green(group, walk, radius):
    """u as the killed walk was solved before walk positions: the ball from
    ``ball_words``, a dict of its words and one ``extend`` per step."""
    ball = group.ball_words(radius - 1)
    index = {w: i for i, w in enumerate(ball)}
    rows, cols, vals = [], [], []
    for w, i in index.items():
        rows.append(i)
        cols.append(i)
        vals.append(1.0 - walk.include_identity)
        for s, p in walk.probabilities.items():
            j = index.get(group.extend(w, s))
            if j is not None:
                rows.append(i)
                cols.append(j)
                vals.append(-p)
    A = scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(len(ball), len(ball)))
    rhs = np.zeros(len(ball))
    rhs[0] = 1.0
    return scipy.sparse.linalg.spsolve(A.T, rhs)


GREEN_REFERENCE_CASES = {  # case: (group, walk, absorbing radii)
    "genus2": (lambda: groups.surface_group(2), None, (6, 5)),
    "free2_nonuniform": (
        lambda: groups.FreeGroup(2),
        metrics.WalkSpec({1: 0.35, -1: 0.35, 2: 0.15, -2: 0.15}), (6,)),
    "aaBBaaBB": (lambda: groups.SmallCancellationGroup("ab", ["aaBBaaBB"]), None, (5,)),
}


@pytest.mark.parametrize("case", list(GREEN_REFERENCE_CASES))
def test_green_from_walk_positions_equals_the_word_built_solve(case):
    make, walk, radii = GREEN_REFERENCE_CASES[case]
    group = make()  # the radius-5 reference reuses the radius-6 normal forms
    aut = automaton.build_shortlex_acceptor(group)
    _keep_check(group, aut, max(radii))
    for radius in radii:
        green = metrics.GreenNumeric(group, walk, radius, safety_margin=1)
        _, u = metrics._killed_walk(group, green.walk, radius)
        want = _reference_green(group, green.walk, radius)
        assert np.array_equal(u, want), radius
        # every distance, by halves on the acceptor
        got = np.concatenate(counting.sphere_distance_arrays(green, radius - 1, automaton=aut))
        assert np.array_equal(got, [-math.log(g / want[0]) for g in want.tolist()])


@pytest.mark.parametrize("relator_or_genus, n_max, n_rewrites", [
    (2, 5, 448), (3, 5, 12), ("aaBBaaBB", 6, 144), ("ABabAABabA", 7, 180),
])
def test_the_rewrite_walk_is_the_word_problem_on_every_rewrite(
    relator_or_genus, n_max, n_rewrites
):
    group = (groups.surface_group(relator_or_genus) if isinstance(relator_or_genus, int)
             else groups.SmallCancellationGroup("ab", [relator_or_genus]))
    aut = automaton.build_shortlex_acceptor(group)
    ball, multiply = metrics._Ball(aut, n_max + 1), automaton.Multiplier(aut)
    rewrites = [
        (ball.word(n, i), s)
        for n, level in enumerate(ball.levels) for s in group.alphabet
        for i in np.flatnonzero(
            (level.label != -s) & (ball.edges.slot[level.state, group._order[s]] < 0)
        ).tolist()
    ]
    assert len(rewrites) == n_rewrites
    for w, s in rewrites:
        assert multiply(w, s) == [group.extend(w, s)], (w, s)


def test_a_rewrite_outside_the_differences_raises(monkeypatch):
    genus2 = groups.surface_group(2)
    _keep_check(genus2, automaton.build_shortlex_acceptor(genus2), 4)
    monkeypatch.setattr(
        automaton, "_differences",
        lambda g: {w: w for w in [()] + [(s,) for s in g.alphabet]},
    )
    with pytest.raises(metrics.MetricError, match="0 words found for the normal form"):
        metrics.GreenNumeric(genus2, absorbing_radius=5, safety_margin=1)


@pytest.mark.parametrize("block", [2, 8])
def test_green_kernel_on_a_block_walk_equals_dist_word_bitwise(
    block, genus2, genus2_aut, monkeypatch
):
    # blocks of at most 2 or 8 words: a prefix with more suffixes than
    # that is a block of its own, and the prefixes of one state come in
    # several blocks
    monkeypatch.setattr(counting, "_CHUNK", block)
    monkeypatch.setattr(genus2, "_checked_acceptor", (genus2_aut, 4))
    green = metrics.GreenNumeric(genus2, absorbing_radius=5, safety_margin=2)
    spheres = counting.sphere_distance_arrays(green, 3, automaton=genus2_aut)
    for (level, words), got in zip(_levels_with_words(genus2_aut, 3), spheres):
        want = np.array([green.dist_word(w) for w in words])
        assert np.array_equal(got, want), level.length
