"""Presentations, normal forms and conjugacy."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cannonlab import automaton, groups

letters = st.sampled_from([1, -1, 2, -2])
raw_words = st.lists(letters, max_size=12).map(tuple)


def test_free_reduce_cancels_adjacent_inverses():
    assert groups.free_reduce((1, -1)) == ()
    assert groups.free_reduce((1, 2, -2, -1, 1)) == (1,)
    assert groups.free_reduce(()) == ()


@given(raw_words)
def test_free_reduce_is_idempotent(w):
    once = groups.free_reduce(w)
    assert groups.free_reduce(once) == once


@given(raw_words)
def test_inverse_composes_to_identity(w):
    f2 = groups.FreeGroup(2)
    g = f2.element(w)
    assert (g * g.inverse()).word == ()


@given(raw_words, raw_words, raw_words)
@settings(max_examples=60)
def test_multiplication_is_associative(a, b, c):
    f2 = groups.FreeGroup(2)
    x, y, z = f2.element(a), f2.element(b), f2.element(c)
    assert ((x * y) * z).word == (x * (y * z)).word


def test_parse_and_print_round_trip(free2):
    w = free2.parse_word("a b A B")
    assert w == (1, 2, -1, -2)
    assert free2.word_to_str(w) == "abAB"
    assert free2.parse_word("abAB") == w
    with pytest.raises(groups.SymbolError):
        free2.parse_word("a q")


def test_free_sphere_sizes_follow_tree_formula(free2):
    for n in range(8):
        expect = 1 if n == 0 else 4 * 3 ** (n - 1)
        assert len(free2.sphere_words(n)) == expect


def test_sphere_cap_is_enforced(free2):
    with pytest.raises(groups.ResourceCapError):
        groups.FreeGroup(2).sphere_words(9, cap=1000)
    g = groups.FreeGroup(2)  # the cap bounds each sphere's size, 4 3^5 at 6
    assert len(g.sphere_words(6, cap=972)) == 972
    with pytest.raises(groups.ResourceCapError):
        g.sphere_words(7, cap=972)


def test_shortlex_order_interleaves_inverses(free2):
    ordered = sorted(free2.sphere_words(1), key=free2.shortlex_key)
    assert ordered == [(1,), (-1,), (2,), (-2,)]


def test_surface_group_sphere_sizes(genus2):
    # independent count: free-product spheres minus half-relator merges
    expect = [1, 8, 56, 392, 2736, 19096]
    spheres = [genus2.sphere_words(n) for n in range(6)]
    assert [len(s) for s in spheres] == expect
    for s in spheres:
        assert s == sorted(s, key=genus2.shortlex_key)


@pytest.mark.parametrize("rank, radius", [(2, 6), (3, 4)])
def test_free_spheres_equal_the_reduced_words(rank, radius):
    g = groups.FreeGroup(rank)
    for n in range(radius + 1):
        reduced = {
            w for w in itertools.product(g.alphabet, repeat=n)
            if groups.free_reduce(w) == w
        }
        assert g.sphere_words(n) == sorted(reduced, key=g.shortlex_key)


def test_genus_3_spheres_are_in_shortlex_order():
    g = groups.surface_group(3)
    for n in range(3):
        s = g.sphere_words(n)
        assert s == sorted(s, key=g.shortlex_key)
        assert len(set(s)) == len(s)


def test_free_families_keep_no_per_word_caches():
    for g in (groups.FreeGroup(2), groups.standard_schottky()):
        g.sphere_words(8)
        aut = automaton.build_shortlex_acceptor(g, 2)
        assert automaton.validate_bijection(aut, 8).ok
        g.ball_words(5)


def test_genus2_spheres_keep_no_per_word_caches():
    genus2 = groups.surface_group(2)
    assert automaton.saturate(genus2, 5)[1].ok


@pytest.mark.parametrize(
    "make", [lambda: groups.FreeGroup(2), groups.standard_schottky, groups.surface_group],
    ids=["F2", "schottky", "genus2"],
)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_extend_is_the_normal_form_of_the_product(make, data):
    g = make()
    w = g.normal_form(data.draw(st.lists(st.sampled_from(g.alphabet), max_size=12)))
    s = data.draw(st.sampled_from(g.alphabet))
    assert g.extend(w, s) == g.normal_form(w + (s,))


def test_surface_relator_is_trivial(genus2):
    r = genus2.parse_word("a b A B c d C D")
    assert genus2.normal_form(r) == ()


def test_surface_group_of_genus_3_reads_multi_letter_generators():
    g = groups.surface_group(3)  # generators a1, b1, ..., b3
    assert g.rank == 6
    (relator,) = g.relator_words
    assert len(relator) == 12
    assert g.normal_form(relator) == ()
    assert len(g.sphere_words(1)) == 12
    assert g.parse_word("a1 B2 b3^-1") == (1, -4, -6)


def test_dehn_reduction_shortens_long_relator_pieces(genus2):
    r = genus2.parse_word("a b A B c d C D")
    w = r[:5]  # more than half of the relator
    nf = genus2.normal_form(w)
    assert len(nf) == len(r) - len(w)


def test_small_cancellation_rejects_bad_presentation():
    with pytest.raises(groups.PresentationError):
        groups.SmallCancellationGroup(["a", "b"], ["a b A B"])  # commutator: C'(1/6) fails


def test_conjugacy_class_of_cyclic_permutation(free2):
    g = free2.element((1, 2, -1))
    c = free2.canonical_class(g)
    assert c.representative.word == (2,)
    h = free2.element((2, 1, 1, -2))
    d = free2.canonical_class(h)
    assert d.representative.word == (1, 1)


def test_enumerate_classes_has_unique_representatives(free2):
    classes = free2.enumerate_classes(4)
    reps = [c.representative.word for c in classes]
    assert len(reps) == len(set(reps))
    for c in classes:
        assert c.representative.word == free2.canonical_class(
            c.representative
        ).representative.word


def test_schottky_generators_are_loxodromic(schottky):
    for m in schottky.matrices:
        assert abs(np.trace(m)) > 2.0
        assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_schottky_matrix_of_word_multiplies(schottky):
    m = schottky.matrix_of((1, 2))
    assert np.allclose(m, schottky.matrices[0] @ schottky.matrices[1])
    inv = schottky.matrix_of((-1,))
    assert np.allclose(inv @ schottky.matrices[0], np.eye(2))


def test_overlapping_schottky_configuration_is_rejected():
    m = groups.hyperbolic_isometry((-1.0, 1.0), 3.0)
    m2 = groups.hyperbolic_isometry((-1.1, 0.9), 3.0)
    with pytest.raises(groups.PresentationError):
        groups.SchottkyGroup([m, m2])


def test_schottky_group_normalizes_a_copy_of_the_callers_matrices(schottky):
    mats = [2.0 * m for m in schottky.matrices]
    group = groups.SchottkyGroup(mats)
    for m, given, unit in zip(group.matrices, mats, schottky.matrices):
        assert np.allclose(m, unit) and np.allclose(given, 2.0 * unit)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "infinity"])
def test_non_finite_schottky_matrix_is_rejected(schottky, value):
    # every later check is a comparison that NaN passes
    mats = [m.copy() for m in schottky.matrices]
    mats[1][0, 1] = value
    with pytest.raises(groups.PresentationError, match="finite"):
        groups.SchottkyGroup(mats)


def test_hyperbolic_isometry_trace_and_axis():
    m = groups.hyperbolic_isometry((4.0, 8.0), 5.0)
    assert abs(np.trace(m) - 5.0) < 1e-12
    # axis endpoints are fixed points of the Mobius action
    for p in (4.0, 8.0):
        assert abs((m[0, 0] * p + m[0, 1]) / (m[1, 0] * p + m[1, 1]) - p) < 1e-9
