"""Orbital counting: ball reports, asymptotic fits, Poincare series, pairs."""
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.stats

from cannonlab import automaton, counting, groups, metrics, thermo


def test_tree_ball_counts(free2):
    wm = metrics.WordMetric(free2)
    rep = counting.count_ball(wm, 6)
    assert rep.sphere_sizes == [1, 4, 12, 36, 108, 324, 972]
    # strict convention: only the origin lies strictly inside T = 1
    assert rep.count(0.5) == 1
    assert rep.count(1.0) == 1
    assert rep.count(1.0 + 1e-9) == 5
    assert rep.count(6.0 + 1e-9) == 1 + sum(4 * 3 ** (n - 1) for n in range(1, 7))
    assert rep.t_cov == 6.0


def test_green_ball_is_rescaled_word_ball(free2, log3):
    wm = metrics.WordMetric(free2)
    gm = metrics.GreenClosedForm(free2)
    rw = counting.count_ball(wm, 5)
    rg = counting.count_ball(gm, 5)
    for t in (0.7, 1.3, 2.9, 4.2):
        assert rg.count(t * log3 + 1e-12) == rw.count(t + 1e-12)


def test_fuchsian_arrays_align_with_word_spheres(schottky, fuchsian):
    arrays = counting.sphere_distance_arrays(fuchsian, 4)
    for n, a in enumerate(arrays):
        words = schottky.sphere_words(n)
        assert len(a) == len(words)
    # spot check: sorted distances at n = 2 match elementwise evaluation
    direct = sorted(fuchsian.dist_word(w) for w in schottky.sphere_words(2))
    assert np.allclose(np.sort(arrays[2]), direct)


def test_sphere_cap_propagates(free2):
    wm = metrics.WordMetric(free2)
    with pytest.raises(groups.ResourceCapError):
        counting.count_ball(wm, 12, cap=10000)


def test_synthetic_fit_recovers_parameters():
    c_true, delta_true = 2.0, 0.5
    t = np.linspace(2.0, 30.0, 20000)
    n = np.floor(c_true * np.exp(delta_true * t)).astype(int)
    keep = np.concatenate([[True], np.diff(n) > 0])
    rep = counting.report_from_step_function(t[keep], n[keep])
    fit = counting.fit_asymptotic(rep)
    assert abs(fit.c - c_true) / c_true < 0.01
    assert abs(fit.delta - delta_true) / delta_true < 0.01
    assert not fit.oscillation


def test_synthetic_error_term_recovers_kappa():
    c_true, delta_true, kappa = 2.0, 0.5, 2.0
    t = np.linspace(2.0, 30.0, 20000)
    n = np.floor(c_true * np.exp(delta_true * t) * (1 + t ** -kappa)).astype(int)
    keep = np.concatenate([[True], np.diff(n) > 0])
    rep = counting.report_from_step_function(t[keep], n[keep])
    counting.fit_asymptotic(rep, delta_hint=delta_true)
    kf = counting.error_term_fit(rep, c_true, delta_true)
    assert kf.status == "ok"
    assert abs(kf.kappa - kappa) / kappa < 0.1


def test_arithmetic_counts_raise_oscillation_flag(free2, log3):
    wm = metrics.WordMetric(free2)
    rep = counting.count_ball(wm, 10)
    fit = counting.fit_asymptotic(rep, delta_hint=log3)
    assert fit.oscillation
    with pytest.raises(counting.CountingError):
        counting.error_term_fit(rep, fit.c, fit.delta)


def test_poincare_direct_equals_operator(free2_aut, free2, log3):
    wm = metrics.WordMetric(free2)
    comp = counting.word_maximal_components(free2_aut)
    res = counting.poincare_compare(free2_aut, wm, log3 + 0.1, 10, comps=comp)
    assert res.max_rel_mismatch < 1e-12
    assert not res.diverging
    # all accepted words run through the maximal component: no extra mass
    assert np.max(np.abs(res.beta_content)) < 1e-12


def test_poincare_diverges_at_critical_exponent(free2_aut, free2, log3):
    wm = metrics.WordMetric(free2)
    res = counting.poincare_compare(free2_aut, wm, log3, 10)
    # eta partial sums grow linearly: each sphere contributes (4/3) exactly
    inc = res.direct_sphere_sums[1:]
    assert np.allclose(inc, 4.0 / 3.0)


def test_poincare_divergence_detected_below_exponent(free2_aut, free2, log3):
    wm = metrics.WordMetric(free2)
    res = counting.poincare_compare(free2_aut, wm, 0.5, 10)
    assert res.diverging
    assert res.abscissa_estimate is not None
    assert abs(res.abscissa_estimate - log3) < 0.1


def test_correlate_degenerate_for_identical_metrics(free2):
    wm = metrics.WordMetric(free2)
    rep = counting.correlate(wm, wm, 0.5, 6)
    assert rep.status == "degenerate"
    assert rep.count(3.5) == 1 + 4 + 12 + 36


def test_correlate_count_is_monotone(schottky, fuchsian):
    wm = metrics.ScaledWordMetric(schottky, math.log(3.0))
    vf = 0.3389913015004224
    fn = metrics.LinearCombination([(vf, fuchsian)])
    rep = counting.correlate(wm, fn, 0.5, 8)
    ts = np.linspace(0.5, rep.t_cov, 25)
    counts = [rep.count(t) for t in ts]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] > 0
    # widening the window can only add pairs
    assert rep.count(5.0, eps=1.0) >= rep.count(5.0, eps=0.5)


def test_correlate_underpowered_on_tiny_ball(schottky, fuchsian):
    wm = metrics.ScaledWordMetric(schottky, math.log(3.0))
    vf = 0.3389913015004224
    fn = metrics.LinearCombination([(vf, fuchsian)])
    rep = counting.correlate(wm, fn, 0.05, 3)
    assert rep.status in ("underpowered", "degenerate")
    assert rep.fitted_exponent is None


def test_correlate_validates_inputs(free2, schottky, fuchsian):
    wm = metrics.WordMetric(free2)
    with pytest.raises(counting.CountingError):
        counting.correlate(wm, wm, -1.0, 4)
    with pytest.raises(counting.CountingError):
        counting.correlate(wm, fuchsian, 0.5, 4)


def test_report_serialization_round_trip(free2, log3):
    wm = metrics.WordMetric(free2)
    rep = counting.count_ball(wm, 8)
    counting.fit_asymptotic(rep, delta_hint=log3)
    doc = json.loads(rep.to_json())
    assert doc["schema"] == "count-report/1"
    assert doc["ball_size"] == len(rep.distances)
    assert doc["fit"]["oscillation"] is True
    csv = rep.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "T,N,residual"
    assert len(lines) == counting.GRID_POINTS + 1


def test_correlation_serialization(free2):
    wm = metrics.WordMetric(free2)
    rep = counting.correlate(wm, wm, 0.5, 5)
    doc = json.loads(rep.to_json())
    assert doc["schema"] == "correlation-report/1"
    assert doc["status"] == "degenerate"
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "T,M"


def test_step_function_validation():
    with pytest.raises(counting.CountingError):
        counting.report_from_step_function([1.0, 1.0], [1, 2])
    with pytest.raises(counting.CountingError):
        counting.report_from_step_function([1.0, 2.0], [3, 2])


def test_restricted_poincare_sums_for_an_orbit_metric(schottky_aut, schottky_comp, fuchsian):
    s, n_max = 0.5, 6
    res = counting.poincare_compare(
        schottky_aut, fuchsian, s, n_max, comps=[schottky_comp]
    )
    # brute force: accepted words whose path stays in the component
    terms = [[] for _ in range(n_max + 1)]
    for word, _ in schottky_aut.accepted_words(n_max):
        u, inside = schottky_aut.initial, True
        for label in word:
            u = schottky_aut.step(u, label)
            inside = inside and u in schottky_comp.vertices
        if word and inside:
            terms[len(word)].append(math.exp(-s * fuchsian.dist_word(word)))
    got = res.restricted_direct[schottky_comp.index]
    for n in range(1, n_max + 1):
        want = math.fsum(terms[n])
        assert abs(got[n] - want) <= 1e-12 * want


def test_correlate_arrays_stay_element_aligned(schottky, fuchsian):
    other = metrics.FuchsianOrbit(schottky, complex(0.3, 2.0))
    mix = metrics.LinearCombination(
        [(0.6, fuchsian), (0.4, other), (0.2, metrics.WordMetric(schottky))]
    )
    rep = counting.correlate(mix, fuchsian, 0.5, 5)
    words = schottky.ball_words(5)  # shortlex order, sphere by sphere
    assert len(rep.d_values) == len(words)
    want_d = np.array([mix.dist_word(w) for w in words])
    want_star = np.array([fuchsian.dist_word(w) for w in words])
    assert np.max(np.abs(rep.d_values - want_d)) < 1e-12 * np.max(want_d)
    assert np.max(np.abs(rep.dstar_values - want_star)) < 1e-12 * np.max(want_star)


def test_enumeration_runs_without_the_word_problem(log3, monkeypatch):
    free2 = groups.FreeGroup(2)
    free2_aut = automaton.build_shortlex_acceptor(free2, 1)
    schottky = groups.standard_schottky()
    d = metrics.FuchsianOrbit(schottky)
    d_star = metrics.FuchsianOrbit(schottky, complex(0.3, 2.0))
    wm = metrics.WordMetric(free2)

    def forbidden(*args):
        raise AssertionError("per-element word problem on an enumeration path")

    monkeypatch.setattr(metrics.MetricModel, "dist_word", forbidden)
    monkeypatch.setattr(groups.GroupPresentation, "normal_form", forbidden)
    monkeypatch.setattr(groups.FreeGroup, "normal_form", forbidden)
    res = counting.poincare_compare(free2_aut, wm, log3 + 0.1, 8)
    assert res.max_rel_mismatch < 1e-12
    # nor does building an acceptor from word differences
    assert automaton.build_shortlex_acceptor(groups.surface_group(2)).n_states == 36
    assert len(counting.count_ball(d, 8).distances) == 1 + 2 * (3 ** 8 - 1)
    assert len(counting.correlate(d, d_star, 0.5, 8).d_values) == 1 + 2 * (3 ** 8 - 1)


def test_fuchsian_distances_need_only_generator_matrices(schottky_aut, schottky_comp, monkeypatch):
    matrix_of = groups.SchottkyGroup.matrix_of

    def one_letter(self, word):
        assert len(word) == 1, "matrix of a word longer than one letter"
        return matrix_of(self, word)

    def forbidden(*args):
        raise AssertionError("per-word distance on a batched path")

    walks = []
    halves = automaton.GeodesicAutomaton._halves
    monkeypatch.setattr(groups.SchottkyGroup, "matrix_of", one_letter)
    monkeypatch.setattr(metrics.MetricModel, "dist_word", forbidden)
    monkeypatch.setattr(
        automaton.GeodesicAutomaton,
        "_halves",
        lambda self, *args: walks.append(args) or halves(self, *args),
    )
    schottky = schottky_aut.group
    d = metrics.FuchsianOrbit(schottky)
    d_star = metrics.FuchsianOrbit(schottky, complex(0.3, 2.0))
    op = thermo.TransferOperator(
        schottky_aut, schottky_comp.vertices, [thermo.cylinder_potential(d, 7)]
    )
    assert op.psi.shape == (1, 4 * 3 ** 7)
    ball = 1 + 2 * (3 ** 8 - 1)
    assert len(counting.count_ball(d, 8).distances) == ball
    walks.clear()
    assert len(counting.correlate(d, d_star, 0.5, 8).d_values) == ball
    assert len(walks) == 1


def test_caps_fire_before_any_distance(free2_aut, free2_comp, free2, fuchsian, genus2, monkeypatch):
    started = []
    for name in ("_levels", "_halves"):
        walk = getattr(automaton.GeodesicAutomaton, name)
        monkeypatch.setattr(
            automaton.GeodesicAutomaton, name,
            lambda self, *args, walk=walk: started.append(args) or walk(self, *args),
        )
    ball = 1 + 2 * (3 ** 11 - 1)  # |B(11)| in F2
    with pytest.raises(groups.ResourceCapError, match=f"visit {ball} words, cap 1000"):
        counting.poincare_compare(
            free2_aut, metrics.WordMetric(free2), 1.5, 11, comps=[free2_comp], cap=1000
        )
    with pytest.raises(groups.ResourceCapError, match=f"visit {ball} words, cap 1000"):
        counting.count_ball(fuchsian, 11, cap=1000)
    # without an acceptor, the check to the radius is capped before any sphere
    monkeypatch.setattr(groups.GroupPresentation, "sphere_words", None)
    with pytest.raises(groups.ResourceCapError, match="radius 11 exceeds cap 1000"):
        counting.count_ball(metrics.WordMetric(genus2), 11, cap=1000)
    assert started == []


def sphere_word_reference(metric, n_max):
    """d(o,x) sphere by sphere without the coding: one ``dist_word`` per
    normal form of ``sphere_words``, in its shortlex order."""
    return [
        np.array([metric.dist_word(w) for w in metric.group.sphere_words(n)])
        for n in range(n_max + 1)
    ]


def test_genus2_ball_through_the_acceptor_equals_sphere_words(genus2, genus2_aut, monkeypatch):
    wm = metrics.WordMetric(genus2)
    spheres = sphere_word_reference(wm, 5)
    green = metrics.GreenNumeric(genus2, absorbing_radius=5, safety_margin=3)
    green_spheres = sphere_word_reference(green, 2)

    def forbidden(*args, **kwargs):
        raise AssertionError("sphere_words on the acceptor path")

    monkeypatch.setattr(groups.GroupPresentation, "sphere_words", forbidden)
    walked = counting.count_ball(wm, 5, automaton=genus2_aut)
    assert walked.sphere_sizes == [len(a) for a in spheres] == [1, 8, 56, 392, 2736, 19096]
    assert np.array_equal(walked.distances, np.sort(np.concatenate(spheres)))
    assert walked.t_cov == spheres[5].min()
    # both enumerations list each sphere in shortlex order
    green_walked = counting.sphere_distance_arrays(green, 2, automaton=genus2_aut)
    assert len(green_walked) == len(green_spheres) == 3
    for a, b in zip(green_walked, green_spheres):
        assert np.array_equal(a, b)


def test_a_ball_without_an_acceptor_walks_one_validated_to_its_radius(monkeypatch):
    genus2 = groups.surface_group(2)  # no check kept from another test
    wm = metrics.WordMetric(genus2)
    green = metrics.GreenNumeric(genus2, absorbing_radius=5, safety_margin=3)
    want_word, want_green = sphere_word_reference(wm, 2), sphere_word_reference(green, 2)
    # forget the Green build's check to radius 4, so the count makes its own
    genus2._checked_acceptor = None
    calls, saturate = [], automaton.saturate
    monkeypatch.setattr(
        automaton, "saturate", lambda *args: calls.append(args) or saturate(*args)
    )
    ball = counting.count_ball(green, 2)
    assert len(calls) == 1 and calls[0][:2] == (genus2, 2)
    assert np.array_equal(ball.distances, np.sort(np.concatenate(want_green)))
    rep = counting.correlate(wm, green, 0.5, 2)
    assert len(calls) == 1  # the passing check to radius 2 is kept
    assert np.array_equal(rep.d_values, np.concatenate(want_word))
    assert np.array_equal(rep.dstar_values, np.concatenate(want_green))
    # with only the generators as differences the acceptor takes every
    # reduced word: more words than elements from length 4 on, so the check
    # to radius 4 fails and nothing is counted
    monkeypatch.setattr(
        automaton, "_differences",
        lambda g: {w: w for w in [()] + [(s,) for s in g.alphabet]},
    )
    with pytest.raises(counting.CountingError, match="count_mismatch"):
        counting.count_ball(wm, 4)
    with pytest.raises(counting.CountingError, match="count_mismatch"):
        counting.correlate(wm, green, 0.5, 4)


def test_a_free_group_builds_its_acceptor_once(monkeypatch):
    group = groups.standard_schottky()  # no acceptor kept from another test
    calls, build = [], automaton.build_shortlex_acceptor
    monkeypatch.setattr(
        automaton, "build_shortlex_acceptor",
        lambda *args: calls.append(1) or build(*args),
    )
    word, fuchsian = metrics.WordMetric(group), metrics.FuchsianOrbit(group)
    first = counting.count_ball(word, 4)
    again = counting.count_ball(fuchsian, 6)
    rep = counting.correlate(word, fuchsian, 0.5, 5)
    assert len(calls) == 1
    aut = build(group)
    assert np.array_equal(first.distances, counting.count_ball(word, 4, automaton=aut).distances)
    assert len(again.distances) == len(rep.d_values) + 4 * 3 ** 5
    # the group keeps no reference cycle: it is freed with its last user
    ref = weakref.ref(group)
    del group, word, fuchsian, aut
    assert ref() is None


def test_balls_are_walked_on_a_shortlex_acceptor_of_the_group(free2_aut):
    other_free2 = groups.FreeGroup(2)
    with pytest.raises(counting.CountingError):
        counting.count_ball(metrics.WordMetric(other_free2), 3, automaton=free2_aut)


@pytest.mark.parametrize("n", [2, 3, 4000])
def test_linregress_is_scipy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for trial in range(20):
        x = np.sort(rng.uniform(-5.0, 5.0, n)) if trial % 2 else np.arange(1, n + 1)
        y = rng.uniform(-3.0, 3.0) * x + rng.normal(size=n)
        ref = scipy.stats.linregress(x, y)
        assert counting._linregress(x, y) == (ref.slope, ref.intercept, ref.stderr)


def test_linregress_of_constant_y_has_nan_stderr():
    x, y = np.arange(1.0, 6.0), np.full(5, 2.0)
    slope, intercept, stderr = counting._linregress(x, y)
    ref = scipy.stats.linregress(x, y)
    assert (slope, intercept) == (ref.slope, ref.intercept) == (0.0, 2.0)
    assert math.isnan(stderr) and math.isnan(ref.stderr)


BLOCK_CASES = {
    # case: fixture getter -> (metrics, shortlex acceptor, radius)
    "word": lambda fx: ([metrics.WordMetric(fx("free2"))], fx("free2_aut"), 6),
    "green_closed_form": lambda fx: (
        [metrics.GreenClosedForm(fx("free2"))], fx("free2_aut"), 6),
    "fuchsian_two_base_points": lambda fx: (
        [fx("fuchsian"), metrics.FuchsianOrbit(fx("schottky"), complex(0.2, 2.1))],
        fx("schottky_aut"), 6),
    "word_plus_fuchsian": lambda fx: (
        [metrics.LinearCombination(
            [(0.6, metrics.WordMetric(fx("schottky"))), (0.4, fx("fuchsian"))])],
        fx("schottky_aut"), 6),
    "green_numeric": lambda fx: (
        [metrics.GreenNumeric(fx("genus2"), absorbing_radius=5, safety_margin=3)],
        fx("genus2_aut"), 2),
}


@pytest.mark.parametrize("block", [1, 2, 7])
@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_block_walk_gives_the_one_block_spheres_bit_for_bit(
    case, block, request, monkeypatch
):
    """Spheres filled from the halves in blocks of at most ``block`` words
    (or one prefix) are, bit for bit, those filled in one block per state,
    which are the ``dist_word`` of the sphere words; one walk of the halves
    serves every metric of a ball."""
    metric_list, aut, n_max = BLOCK_CASES[case](request.getfixturevalue)
    monkeypatch.setattr(counting, "_CHUNK", 1 << 62)
    whole = [
        counting.sphere_distance_arrays(m, n_max, automaton=aut) for m in metric_list
    ]
    for metric, want in zip(metric_list, whole):
        for a, b in zip(want, sphere_word_reference(metric, n_max)):
            assert np.array_equal(a, b)
    walks, blocks = [], []
    halves, split = automaton.GeodesicAutomaton._halves, automaton.Halves.blocks
    monkeypatch.setattr(
        automaton.GeodesicAutomaton,
        "_halves",
        lambda self, *args: walks.append(args) or halves(self, *args),
    )
    monkeypatch.setattr(
        automaton.Halves, "blocks",
        lambda self, n, chunk: (blocks.append((len(rows), cols.shape[1]))
                                or (rows, cols, at) for rows, cols, at in split(self, n, chunk)),
    )
    monkeypatch.setattr(counting, "_CHUNK", block)
    for metric, want in zip(metric_list, whole):
        walks.clear()
        got = counting.sphere_distance_arrays(metric, n_max, automaton=aut)
        assert len(walks) == 1
        assert [len(a) for a in got] == [len(a) for a in want]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    # a block of more than ``block`` words is a single prefix with its suffixes
    assert len(blocks) > n_max + 1
    assert all(rows * width <= block or rows == 1 for rows, width in blocks)
    if len(metric_list) == 2:
        # one walk of the halves feeds both metrics
        walks.clear()
        rep = counting.correlate(*metric_list, 0.5, n_max, automaton=aut)
        assert len(walks) == 1
        assert np.array_equal(rep.d_values, np.concatenate(whole[0]))
        assert np.array_equal(rep.dstar_values, np.concatenate(whole[1]))


def test_restricted_poincare_sums_do_not_depend_on_the_block(
    schottky_aut, schottky_comp, fuchsian, monkeypatch
):
    def compare(block):
        monkeypatch.setattr(counting, "_CHUNK", block)
        return counting.poincare_compare(
            schottky_aut, fuchsian, 0.5, 6, comps=[schottky_comp]
        )

    whole, blocks = compare(1 << 62), compare(3)
    assert np.array_equal(whole.direct_sphere_sums, blocks.direct_sphere_sums)
    i = schottky_comp.index
    assert np.array_equal(whole.restricted_direct[i], blocks.restricted_direct[i])


def test_a_ball_multiplies_no_word_beyond_its_halves(monkeypatch):
    """The radius-12 Fuchsian ball multiplies the rows of its two half
    tables, 1,457 prefixes from the initial state and 5,829 suffixes from
    every state, and not one product per word of its 1,062,881; no walk
    goes past the six edges of those tables."""
    rows, levels = [], []
    step, walk = metrics._orbit_step, automaton._walk_edges
    monkeypatch.setattr(
        metrics, "_orbit_step",
        lambda m, gens, label, ls: rows.append(np.size(label)) or step(m, gens, label, ls),
    )
    monkeypatch.setattr(
        automaton, "_walk_edges",
        lambda *args: (levels.append(level) or level for level in walk(*args)),
    )
    fuchsian = metrics.FuchsianOrbit(groups.standard_schottky())
    assert len(counting.count_ball(fuchsian, 12).distances) == 1 + 2 * (3 ** 12 - 1)
    assert sum(rows) <= 1457 + 5829
    assert max(level.length for level in levels) == 6
    assert sum(len(level.state) for level in levels) == 1457 + 5829


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ball_memory_is_bounded_by_the_result(schottky, fuchsian):
    """The halves are small and the spheres are filled one block at a
    time, so the traced peak stays within three times the bytes of the
    result."""
    rep, peak = _traced_peak(lambda: counting.count_ball(fuchsian, 12))
    assert len(rep.distances) == 1 + 2 * (3 ** 12 - 1)
    assert peak <= 3 * rep.distances.nbytes
    other = metrics.FuchsianOrbit(schottky, complex(0.2, 2.1))
    corr, peak = _traced_peak(lambda: counting.correlate(fuchsian, other, 0.5, 12))
    assert peak <= 3 * (corr.d_values.nbytes + corr.dstar_values.nbytes)


def test_a_passing_check_serves_every_ball_up_to_its_radius(monkeypatch):
    genus2 = groups.surface_group(2)
    wm = metrics.WordMetric(genus2)
    calls, validate = [], automaton.validate_bijection
    monkeypatch.setattr(
        automaton, "validate_bijection",
        lambda aut, n, *args: calls.append(n) or validate(aut, n, *args),
    )
    first = counting.count_ball(wm, 4)
    assert counting.count_ball(wm, 4).sphere_sizes == first.sphere_sizes
    assert counting.count_ball(wm, 3).sphere_sizes == first.sphere_sizes[:4]
    assert calls == [4]
    counting.count_ball(wm, 5)  # beyond the radius checked: checked again
    assert calls == [4, 5]
