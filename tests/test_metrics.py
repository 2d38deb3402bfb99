"""Metrics as distance models: closed forms, numeric solves."""
import math

import numpy as np
import scipy.sparse.linalg
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cannonlab import automaton, groups, metrics

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


def test_fuchsian_long_words_stay_finite(fuchsian):
    w = tuple([1, 2, -1, 2] * 20)
    d = fuchsian.dist_word(w)
    assert 100.0 < d < 600.0
    # scaled product path agrees with the plain product on medium words
    w2 = w[:20]
    m, log_scale = fuchsian._product(w2)
    plain = fuchsian.group.matrix_of(w2)
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


# -- level kernels -------------------------------------------------------------

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


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_level_kernel_equals_dist_word_bitwise(case, request):
    metric, aut, n_max = KERNEL_CASES[case](request.getfixturevalue)
    kernel = metric.level_kernel()
    for level, words in _levels_with_words(aut, n_max):
        want = np.array([metric.dist_word(w) for w in words])
        assert np.array_equal(kernel(level), want), level.length


def test_fuchsian_kernel_rescales_like_the_scalar_path(schottky):
    f = metrics.FuchsianOrbit(schottky)
    word = (2, 1) * 75
    kernel = f.level_kernel()
    one = np.zeros(1, dtype=np.int64)
    got = [float(kernel(automaton.Level(0, one, one, one))[0])]
    for n, s in enumerate(word, start=1):
        got.append(float(kernel(automaton.Level(n, one, np.array([s]), one))[0]))
    want = [f.dist_word(word[:n]) for n in range(len(word) + 1)]
    assert np.array_equal(got, want)
    # the entries passed 1e100, so the product was rescaled on the way
    assert f._product(word)[1] > 0.0
    # unscaled, the entries stay far below overflow; at base point i and
    # this size, d = acosh(||M||_F^2 / 2) = log ||M||_F^2 to rounding
    plain = schottky.matrix_of(word)
    assert abs(got[-1] - math.log(float(np.sum(plain * plain)))) <= 1e-12 * got[-1]
