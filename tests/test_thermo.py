"""Transfer operators: pressures, growth rates, Gibbs data, Manhattan curves."""
import cmath
import dataclasses
import gc
import json
import math
import weakref

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg

from cannonlab import automaton, cli, counting, groups, metrics, shift, thermo


def test_pressure_closed_form_for_word_potential(free2_aut, free2_comp, free2, log3):
    pot = thermo.cylinder_potential(metrics.WordMetric(free2), 1)
    for s in (0.0, 0.5, 1.0, log3):
        assert abs(thermo.pressure(free2_aut, free2_comp, pot, s) - (log3 - s)) < 1e-12


def test_growth_rate_word_is_log3(free2_aut, free2_comp, free2, log3):
    pot = thermo.cylinder_potential(metrics.WordMetric(free2), 1)
    v = thermo.growth_rate(free2_aut, free2_comp, pot)
    assert abs(v - log3) < 1e-9


def test_root_leaves_no_cycle_holding_the_operator(
    free2_aut, free2_comp, free2, log3, monkeypatch
):
    compiled = []

    class Recorded(thermo.TransferOperator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            compiled.append(weakref.ref(self))

    monkeypatch.setattr(thermo, "TransferOperator", Recorded)
    pot = thermo.cylinder_potential(metrics.WordMetric(free2), 1)
    gc.disable()
    try:
        v = thermo.growth_rate(free2_aut, free2_comp, pot)
        # freed by reference counting alone, with the cyclic collector off
        assert len(compiled) == 1 and compiled[0]() is None
    finally:
        gc.enable()
    assert abs(v - log3) < 1e-9


def test_growth_rate_green_is_one(free2_aut, free2_comp, free2):
    pot = thermo.cylinder_potential(metrics.GreenClosedForm(free2), 1)
    v = thermo.growth_rate(free2_aut, free2_comp, pot)
    assert abs(v - 1.0) < 1e-9


def test_growth_rate_scaled_word(free2_aut, free2_comp, free2, log3):
    c = 0.37
    pot = thermo.cylinder_potential(metrics.ScaledWordMetric(free2, c), 1)
    v = thermo.growth_rate(free2_aut, free2_comp, pot, bracket=(0.0, 8.0))
    assert abs(v - log3 / c) < 1e-9


def test_truncation_error_vanishes_at_depth_one_for_word(free2_aut, free2_comp, free2):
    pot = thermo.cylinder_potential(metrics.WordMetric(free2), 1)
    assert thermo.truncation_error(free2_aut, free2_comp, pot) == 0.0


def test_truncation_error_decays_for_fuchsian(schottky_aut, schottky_comp, fuchsian):
    errs = [
        thermo.truncation_error(
            schottky_aut, schottky_comp, thermo.cylinder_potential(fuchsian, k)
        )
        for k in (2, 4, 6)
    ]
    assert errs[0] > errs[1] > errs[2] > 0.0


def test_truncation_error_is_the_maximum_over_all_windows(
    schottky_aut, schottky_comp, fuchsian
):
    # depth 7: 26244 windows of 8 edges; the largest difference is not
    # among the first 2000 in DFS order
    k = 7
    pot = thermo.cylinder_potential(fuchsian, k)
    deeper = pot.at_depth(k + 1)
    paths = [(v, ()) for v in schottky_comp.vertices]
    for _ in range(k + 1):
        paths = [
            (w, labels + (a,))
            for u, labels in paths
            for a, w in schottky_aut.transitions[u]
            if a != automaton.IDENTITY_LABEL and w in schottky_comp.vertices
        ]
    assert len(paths) == 4 * 3 ** (k + 1)
    brute = max(abs(deeper.value(w) - pot.value(w[:k])) for _, w in paths)
    assert thermo.truncation_error(schottky_aut, schottky_comp, pot) == brute


def _walk_paths(op, length):
    """The (start vertex, label word) of each path of ``length`` edges in
    the operator's walk, in walk order: its blocks at length depth - 1, its
    windows at length depth."""
    for level, _, _ in op.structure.walk[: length + 1]:
        if level.length == 0:
            start, words = level.state, [()] * len(level.state)
        else:
            start = start[level.parent]
            words = [words[p] + (a,) for p, a in
                     zip(level.parent.tolist(), level.label.tolist())]
    return list(zip(start.tolist(), words))


def _windows(op):
    return [w for _, w in _walk_paths(op, op.depth)]


@pytest.mark.parametrize("k", [1, 4, 7])
def test_operator_psi_is_value_on_every_window(k, schottky, schottky_aut, schottky_comp, fuchsian):
    off_i = metrics.FuchsianOrbit(schottky, complex(0.2, 2.1))
    for metric in (fuchsian, off_i):
        pot = thermo.cylinder_potential(metric, k)
        op = thermo.TransferOperator(schottky_aut, schottky_comp.vertices, [pot])
        # a fresh potential, whose table no operator has seen
        fresh = thermo.cylinder_potential(metric, k)
        want = [fresh.value(w) for w in _windows(op)]
        assert np.array_equal(op.psi[0], want)


def test_operator_psi_mixes_depths_through_window_prefixes(
    schottky, schottky_aut, schottky_comp, fuchsian
):
    word = thermo.cylinder_potential(metrics.WordMetric(schottky), 1)
    orbit = thermo.cylinder_potential(fuchsian, 4)
    op = thermo.TransferOperator(schottky_aut, schottky_comp.vertices, [word, orbit])
    assert op.depth == 4
    windows = _windows(op)
    word, orbit = word.at_depth(1), orbit.at_depth(4)  # empty tables
    assert np.array_equal(op.psi[0], [word.value(w[:1]) for w in windows])
    assert np.array_equal(op.psi[1], [orbit.value(w) for w in windows])


def test_gibbs_data_for_constant_potential(free2_aut, free2_comp, free2, log3):
    pot = thermo.cylinder_potential(metrics.WordMetric(free2), 1)
    gd = thermo.gibbs_data(free2_aut, free2_comp, pot, log3)
    assert abs(gd.eigenvalue - 1.0) < 1e-12
    assert abs(gd.pressure) < 1e-12
    # four letter blocks, equal mass each
    assert np.allclose(gd.stationary, 0.25)
    lo, hi = thermo.gibbs_ratio_check(free2_aut, free2_comp, gd, pot, depth_test=5)
    # constant potential: the ratio is the same for every cylinder
    assert lo > 0.0
    assert abs(hi / lo - 1.0) < 1e-8


def test_gibbs_ratio_bounded_for_fuchsian(schottky_aut, schottky_comp, fuchsian):
    pot = thermo.cylinder_potential(fuchsian, 2)
    v = thermo.growth_rate(schottky_aut, schottky_comp, pot, bracket=(0.05, 2.0))
    gd = thermo.gibbs_data(schottky_aut, schottky_comp, pot, v)
    lo, hi = thermo.gibbs_ratio_check(schottky_aut, schottky_comp, gd, pot, depth_test=5)
    assert 0.0 < lo <= hi
    assert hi / lo < 50.0


def test_manhattan_pair_interpolates_word_and_green(free2_aut, free2_comp, free2, log3):
    pw = thermo.cylinder_potential(metrics.WordMetric(free2), 1)
    pg = thermo.cylinder_potential(metrics.GreenClosedForm(free2), 1)
    # P(-s d - t dG) = log3 - s - t log3, so theta(t) = (1 - t) log3
    for t in (0.0, 0.25, 0.75, 1.0):
        s = thermo.manhattan_pair(free2_aut, free2_comp, pw, pg, t)
        assert abs(s - (1.0 - t) * log3) < 1e-8


def test_correlation_exponent_degenerate_for_similar_metrics(
    free2_aut, free2_comp, free2, log3
):
    # word normalized by log3 equals the closed-form Green metric exactly
    pn = thermo.cylinder_potential(metrics.ScaledWordMetric(free2, log3), 1)
    pg = thermo.cylinder_potential(metrics.GreenClosedForm(free2), 1)
    res = thermo.correlation_exponent(free2_aut, free2_comp, pn, pg)
    assert res.degenerate
    assert res.alpha == 1.0


@pytest.fixture(scope="module")
def normalized_pair(schottky_aut, schottky_comp, schottky, fuchsian):
    """Growth-normalized word and depth-4 Fuchsian potentials."""
    pw = thermo.cylinder_potential(metrics.WordMetric(schottky), 1)
    pf = thermo.cylinder_potential(fuchsian, 4)
    vw = thermo.growth_rate(schottky_aut, schottky_comp, pw)
    vf = thermo.growth_rate(schottky_aut, schottky_comp, pf, bracket=(0.05, 2.0))
    pwn = thermo.cylinder_potential(metrics.ScaledWordMetric(schottky, vw), 1)
    pfn = thermo.cylinder_potential(
        metrics.LinearCombination([(vf, fuchsian)]), 4
    )
    return pwn, pfn


def test_equilibrium_integrals_of_constant_potentials(
    free2_aut, free2_comp, free2, log3
):
    pw = thermo.cylinder_potential(metrics.WordMetric(free2), 1)
    pg = thermo.cylinder_potential(metrics.GreenClosedForm(free2), 1)
    op = thermo.TransferOperator(free2_aut, free2_comp.vertices, [pw, pg])
    for c in ([-log3, 0.0], [-0.3, -0.5]):
        gd = thermo.perron(op, c)
        assert np.allclose(gd.integrals(), [1.0, log3], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("t", [0.3, 0.7])
def test_manhattan_slope_matches_central_difference(
    schottky_aut, schottky_comp, normalized_pair, t
):
    pwn, pfn = normalized_pair
    op = thermo.TransferOperator(schottky_aut, schottky_comp.vertices, [pwn, pfn])

    def theta(x):
        return thermo.manhattan_pair(
            schottky_aut, schottky_comp, pwn, pfn, x, op=op
        )

    int_d, int_dstar = thermo.perron(op, [-theta(t), -t]).integrals()
    h = 1e-4
    central = (theta(t + h) - theta(t - h)) / (2 * h)
    assert abs(-int_dstar / int_d - central) < 1e-6


def test_correlation_exponent_strictly_below_one(
    schottky_aut, schottky_comp, normalized_pair
):
    pwn, pfn = normalized_pair
    res = thermo.correlation_exponent(schottky_aut, schottky_comp, pwn, pfn)
    assert not res.degenerate
    assert 0.0 < res.xi < 1.0
    assert 0.0 < res.alpha < 1.0
    assert abs(res.alpha - (res.xi + res.theta_at_xi)) < 1e-12


def test_correlation_exponent_of_the_criterion_13_pair():
    group = groups.standard_schottky((3.0, 30.0))
    aut = automaton.build_shortlex_acceptor(group, 1)
    comp = shift.word_maximal_components(aut)[0]
    fo = metrics.FuchsianOrbit(group)
    vw = thermo.growth_rate(aut, comp, thermo.cylinder_potential(metrics.WordMetric(group), 1))
    vf = thermo.growth_rate(
        aut, comp, thermo.cylinder_potential(fo, 6), bracket=(0.05, 2.0)
    )
    ce = thermo.correlation_exponent(
        aut,
        comp,
        thermo.cylinder_potential(metrics.ScaledWordMetric(group, vw), 1),
        thermo.cylinder_potential(metrics.LinearCombination([(vf, fo)]), 6),
    )
    assert abs(ce.alpha - 0.97144292216) < 1e-8


def test_spectral_scan_distinguishes_lattice_points(free2_aut, free2_comp, free2, log3):
    pot = thermo.cylinder_potential(metrics.GreenClosedForm(free2), 1)
    lattice_t = 2 * math.pi / log3
    pts = thermo.spectral_scan(
        free2_aut, free2_comp, pot, 1.0, [lattice_t, 0.5 * lattice_t]
    )
    on, off = pts
    assert on.exact and off.exact
    # constant-length potential: the radius never drops, only the phase moves
    assert abs(on.rho - 1.0) < 1e-9
    assert abs(off.rho - 1.0) < 1e-9
    assert on.unit_distance < 1e-9
    assert off.unit_distance > 0.1


def test_mixing_verdicts(free2_aut, free2_comp, free2, schottky_aut, schottky_comp, fuchsian):
    pw = thermo.cylinder_potential(metrics.WordMetric(free2), 1)
    rep = thermo.mixing_check(free2_aut, free2_comp, pw)
    assert rep.verdict == "not_weak_mixing"
    assert abs(rep.lattice_gap - 1.0) < 1e-9
    pf = thermo.cylinder_potential(fuchsian, 4)
    rep2 = thermo.mixing_check(schottky_aut, schottky_comp, pf)
    assert rep2.verdict == "weak_mixing"
    assert rep2.lattice_gap is None


def test_pressure_rejects_trivial_component(free2_aut, free2):
    from cannonlab import shift

    comps = shift.scc_decompose(free2_aut)
    trivial = next(c for c in comps if c.trivial)
    pot = thermo.cylinder_potential(metrics.WordMetric(free2), 1)
    with pytest.raises((thermo.ThermoError, shift.ShiftError, ValueError)):
        thermo.pressure(free2_aut, trivial, pot, 1.0)


# -- compiled operators and the spectral routine -----------------------------

def _reference_matrix(aut, vertices, potentials, c, depth):
    """The operator assembled from its definition, densely: blocks are the
    (depth-1)-edge paths in sorted order, a window appends one label and
    weighs exp(sum_i c_i psi_i(window)), where identity labels weigh
    nothing.  Returns (blocks, matrix)."""
    paths = [(v, (), (v,)) for v in vertices]
    for _ in range(depth - 1):
        paths = [
            (v0, labels + (a,), verts + (w,))
            for v0, labels, verts in paths
            for a, w in aut.transitions[verts[-1]]
            if w in vertices
        ]
    paths.sort(key=lambda p: p[:2])
    index = {(v0, labels): i for i, (v0, labels, _) in enumerate(paths)}
    mat = np.zeros((len(paths), len(paths)), dtype=complex)
    for i, (v0, labels, verts) in enumerate(paths):
        for a, w in aut.transitions[verts[-1]]:
            if w not in vertices:
                continue
            window = labels + (a,)
            j = index[(verts[1], window[1:]) if labels else (w, ())]
            mat[i, j] += cmath.exp(sum(
                ci * p.value(tuple(x for x in window[: p.depth]
                                   if x != automaton.IDENTITY_LABEL))
                for ci, p in zip(c, potentials)
            ))
    return [p[:2] for p in paths], mat


def _parallel_edge_automaton(free2):
    """Two states joined by parallel edges with different labels, so that
    depth-1 blocks receive several windows in one matrix entry."""
    return automaton.GeodesicAutomaton(
        group=free2,
        n_states=2,
        initial=0,
        transitions=(((1, 1), (2, 1)), ((-2, 0), (1, 0), (2, 1))),
    )


@pytest.mark.parametrize("c", [(-0.37, 0.21), (-0.37 - 2.5j, 0.21 + 0.8j)])
def test_transfer_operator_matches_assembly_from_definition(
    c, free2, free2_aut, free2_comp, schottky, schottky_aut, schottky_comp,
    fuchsian,
):
    word = thermo.cylinder_potential(metrics.WordMetric(schottky), 1)
    cases = [(schottky_aut, schottky_comp.vertices, [], 1)]
    for depth in (1, 4, 6):
        pot = thermo.cylinder_potential(fuchsian, depth)
        cases.append((schottky_aut, schottky_comp.vertices, [pot], depth))
        cases.append((schottky_aut, schottky_comp.vertices, [word, pot], depth))
    parallel = _parallel_edge_automaton(free2)
    green = thermo.cylinder_potential(metrics.GreenClosedForm(free2), 1)
    for depth in (1, 2):
        cases.append((parallel, frozenset({0, 1}), [green], depth))
    # the operator of poincare_compare: the component plus the start state
    cases.append((
        free2_aut,
        free2_comp.vertices | {free2_aut.initial},
        [thermo.cylinder_potential(metrics.WordMetric(free2), 1)],
        1,
    ))
    for aut, vertices, pots, depth in cases:
        op = thermo.TransferOperator(aut, vertices, pots, depth=depth)
        coeffs = list(c[: len(pots)])
        blocks, want = _reference_matrix(aut, vertices, pots, coeffs, depth)
        got = op.matrix(coeffs)
        # the walk orders blocks by start vertex, then shortlex
        walked = _walk_paths(op, depth - 1)
        assert sorted(walked) == blocks
        perm = [blocks.index(b) for b in walked]
        assert got.dtype == (complex if isinstance(c[0], complex) and pots else float)
        assert np.allclose(
            got.toarray(), want[np.ix_(perm, perm)], rtol=1e-13, atol=0.0
        )
    # the parallel-edge automaton puts two windows into one matrix entry
    par = thermo.TransferOperator(parallel, frozenset({0, 1}), [green], depth=1)
    assert len(_windows(par)) > np.count_nonzero(par.matrix([1.0]).toarray())


@pytest.mark.parametrize("s", [math.log(3), math.log(3) + 0.1])
def test_poincare_operator_route_equals_the_augmented_operator(free2, free2_aut, s):
    """(A^n 1_{V - init})(init) on the component plus the start state equals
    (A^{n+1} chi_0)(init) on the automaton with a 0-state, entered by an
    identity-labelled edge from every state but the initial one and left by
    none, so that a path reads n word edges and then drops to 0 once."""
    n_max = 8
    metric = metrics.WordMetric(free2)
    pot = thermo.cylinder_potential(metric, 1)
    zero = free2_aut.n_states
    aug = dataclasses.replace(
        free2_aut,
        n_states=zero + 1,
        transitions=tuple(
            row + ((automaton.IDENTITY_LABEL, zero),) if u != free2_aut.initial else row
            for u, row in enumerate(free2_aut.transitions)
        ) + ((),),
    )
    pc = counting.poincare_compare(free2_aut, metric, s, n_max)
    for comp in shift.word_maximal_components(free2_aut):
        blocks, ref = _reference_matrix(
            aug, comp.vertices | {aug.initial, zero}, [pot], [-s], 1
        )
        ref = scipy.sparse.csr_matrix(ref.real)
        vec = np.zeros(len(blocks))
        vec[blocks.index((zero, ()))] = 1.0
        start = blocks.index((aug.initial, ()))
        want = np.zeros(n_max + 1)
        vec = ref @ vec
        for n in range(1, n_max + 1):
            vec = ref @ vec
            want[n] = vec[start]
        assert np.array_equal(pc.restricted_operator[comp.index], want)


def test_operators_are_built_without_stepping_the_automaton(
    schottky_aut, schottky_comp, fuchsian, monkeypatch
):
    def forbidden(*args):
        raise AssertionError("GeodesicAutomaton.step called")

    monkeypatch.setattr(automaton.GeodesicAutomaton, "step", forbidden)
    for depth in (1, 4, 7):
        pot = thermo.cylinder_potential(fuchsian, depth)
        op = thermo.TransferOperator(schottky_aut, schottky_comp.vertices, [pot])
        assert op.psi.shape == (1, op.structure.matrix.nnz)
    pot = thermo.cylinder_potential(fuchsian, 4)
    gd = thermo.gibbs_data(schottky_aut, schottky_comp, pot, 0.5)
    lo, hi = thermo.gibbs_ratio_check(schottky_aut, schottky_comp, gd, pot, depth_test=6)
    assert 0.0 < lo <= hi


@pytest.fixture(scope="module")
def fuchsian_depth6(schottky_aut, schottky_comp, fuchsian):
    pot = thermo.cylinder_potential(fuchsian, 6)
    v = thermo.growth_rate(schottky_aut, schottky_comp, pot)
    return thermo.TransferOperator(schottky_aut, schottky_comp.vertices, [pot]), v


@pytest.mark.parametrize("t", [0.0, 15.74, 28.8])
def test_leading_eigen_matches_dense_eig(fuchsian_depth6, t):
    op, v = fuchsian_depth6
    mat = op.matrix([-v] if t == 0.0 else [-(v + 1j * t)])
    assert mat.shape[0] >= thermo.DENSE_BELOW  # the ARPACK path
    w, vr = np.linalg.eig(mat.toarray())
    order = np.argsort(-np.abs(w))
    lead = w[order[0]]
    if t == 28.8:
        # a near tie: |lambda_2| / |lambda_1| = 0.9986
        assert abs(w[order[1]]) / abs(lead) > 0.99
    eig = thermo.leading_eigen(mat, left=True)
    assert abs(eig.value - lead) <= 1e-12 * abs(lead)
    assert eig.residual <= 1e-12
    x = vr[:, order[0]]
    x = x / x[np.argmax(np.abs(x))]
    assert np.allclose(eig.right / eig.right[np.argmax(np.abs(eig.right))], x,
                       rtol=0.0, atol=1e-10)
    assert np.linalg.norm(mat.T @ eig.left - eig.value * eig.left) <= 1e-12 * abs(lead)


def test_leading_eigen_is_bitwise_repeatable(fuchsian_depth6, free2_aut, free2_comp):
    op, v = fuchsian_depth6
    small = thermo.TransferOperator(free2_aut, free2_comp.vertices, [], depth=1)
    for mat in (op.matrix([-(v + 15.74j)]), op.matrix([-v]), small.matrix([])):
        a = thermo.leading_eigen(mat, left=True)
        b = thermo.leading_eigen(mat, left=True)
        assert a.value == b.value
        assert np.array_equal(a.right, b.right) and np.array_equal(a.left, b.left)


def test_arpack_failure_is_a_thermo_error_and_exit_5(
    fuchsian_depth6, monkeypatch, tmp_path
):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("injected", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
    op, v = fuchsian_depth6
    with pytest.raises(thermo.ThermoError, match="did not converge"):
        thermo.leading_eigen(op.matrix([-v]))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "group": {"family": "schottky", "traces": [3.0, 5.0]},
        "metrics": [{"kind": "fuchsian_orbit"}],
        "thermo": {"depth": 4},
    }))
    out = tmp_path / "out"
    assert cli.main(["growth", "--config", str(cfg), "--out", str(out)]) == 5
    assert not (out / "growth.json").exists()


def test_unconverged_eigenpair_fails_the_residual_check(fuchsian_depth6, monkeypatch):
    op, v = fuchsian_depth6
    mat = op.matrix([-v])

    def wrong_pair(a, k, which, v0):
        return np.array([1.0 + 1e-6]), v0[:, None] / np.linalg.norm(v0)

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", wrong_pair)
    with pytest.raises(thermo.ThermoError, match="residual"):
        thermo.leading_eigen(mat)


def test_leading_eigen_tie_rule():
    def sparse(rows):
        return scipy.sparse.csr_matrix(np.array(rows, dtype=complex))

    # dense path: among tied moduli, the largest real part, then imaginary part
    swap = scipy.sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert thermo.leading_eigen(swap).value == pytest.approx(1.0, abs=1e-15)
    cycle = scipy.sparse.csr_matrix(np.roll(np.eye(3), 1, axis=1))
    assert thermo.leading_eigen(cycle).value == pytest.approx(1.0, abs=1e-15)
    rotation = sparse([[0, -2, 0], [2, 0, 0], [0, 0, -2]])  # 2i, -2i, -2
    assert thermo.leading_eigen(rotation).value == pytest.approx(2j, abs=1e-15)
    # ARPACK path on a period-3 matrix (three eigenvalues of top modulus):
    # the member it returns repeats exactly and has the top modulus
    n = 300
    rows = np.repeat(np.arange(n), 3)
    cols = (rows + np.tile([1, 4, 7], n)) % n  # every edge moves to the next class mod 3
    vals = 1.0 + (rows % 5) / 10.0
    periodic = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    rho = np.max(np.abs(np.linalg.eigvals(periodic.toarray())))
    first = thermo.leading_eigen(periodic)
    assert abs(abs(first.value) - rho) <= 1e-12 * rho
    assert thermo.leading_eigen(periodic).value == first.value


def _bipartite_automaton(m):
    """A hand-made acceptor over F2 whose states 1..2m form one component
    of period 2: odd-side states step to even-side ones and back, with two
    or three edges each, so the ones vector is not a Perron vector."""
    free2 = groups.FreeGroup(2)
    x, y = (lambda i: 1 + i % m), (lambda j: 1 + m + j % m)
    rows = [[(1, x(0))]]
    for i in range(m):
        rows.append([(1, y(i)), (2, y(7 * i))] + [(-1, y(i + 5))] * (i % 3 == 0))
    for j in range(m):
        rows.append([(1, x(j)), (-2, x(3 * j + 1))] + [(2, x(j + 11))] * (j % 4 == 1))
    return automaton.GeodesicAutomaton(
        group=free2, n_states=2 * m + 1, initial=0,
        transitions=tuple(tuple(sorted(r)) for r in rows),
    )


def test_perron_data_on_a_period_2_component_with_80_blocks():
    aut = _bipartite_automaton(40)
    (comp,) = [c for c in shift.scc_decompose(aut) if not c.trivial]
    assert comp.period == 2 and len(comp.vertices) == 80
    pot = thermo.cylinder_potential(metrics.WordMetric(aut.group), 1)
    op = thermo.TransferOperator(aut, comp.vertices, [pot])
    mat = op.matrix([-1.0])
    assert op.structure.n == 80 >= thermo.DENSE_BELOW
    rho = np.max(np.abs(np.linalg.eigvals(mat.toarray())))
    # the case the shifted solve is for: ARPACK converges to -rho here
    assert thermo.leading_eigen(mat).value.real < 0
    gd = thermo.perron(op, [-1.0])
    assert abs(gd.eigenvalue - rho) <= 1e-12 * rho
    assert np.min(gd.right) > 0 and np.min(gd.left) > 0
    for a, x in ((mat, gd.right), (mat.T, gd.left)):
        assert np.linalg.norm(a @ x - gd.eigenvalue * x) <= 1e-10 * rho * np.linalg.norm(x)
    assert gd.stationary.sum() == pytest.approx(1.0, abs=1e-14)
    # the word metric adds one per edge under any measure
    assert gd.integrals() == pytest.approx([1.0], abs=1e-12)


def _counting_eig(monkeypatch):
    """The calls of np.linalg.eig from here on."""
    calls, eig = [], np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(1) or eig(a))
    return calls


def _dense_path_matrices(schottky_aut, schottky_comp, schottky, fuchsian, genus2_aut, genus2):
    """302 matrices below DENSE_BELOW: the 36-block word + Fuchsian pair on a
    12 x 25 grid of real coefficients, in grid order, then the pair at one
    complex point and the 35-block genus-2 word operator."""
    word = thermo.cylinder_potential(metrics.WordMetric(schottky), 1)
    pair = thermo.TransferOperator(
        schottky_aut, schottky_comp.vertices, [word, thermo.cylinder_potential(fuchsian, 3)]
    )
    assert pair.structure.n == 36 < thermo.DENSE_BELOW
    mats = [pair.matrix([-s, -t]) for s in np.linspace(-1.0, 2.0, 12)
            for t in np.linspace(-1.0, 1.5, 25)]
    comp = shift.word_maximal_components(genus2_aut)[0]
    genus2_word = thermo.TransferOperator(
        genus2_aut, comp.vertices, [thermo.cylinder_potential(metrics.WordMetric(genus2), 1)]
    )
    return mats + [pair.matrix([-(0.4 + 3.7j), -0.6]), genus2_word.matrix([-0.8])]


def test_dense_leading_eigen_is_the_tie_rule_pick_of_eig_bitwise(
    schottky_aut, schottky_comp, schottky, fuchsian, genus2_aut, genus2, monkeypatch
):
    """The dense path takes its eigenvalue from eigvals and its vector from
    one solve; the value is the bits that eig and the tie rule give, and eig
    itself does not run."""
    mats = _dense_path_matrices(
        schottky_aut, schottky_comp, schottky, fuchsian, genus2_aut, genus2
    )
    eig = np.linalg.eig
    calls = _counting_eig(monkeypatch)
    for mat in mats:
        got = thermo.leading_eigen(mat)
        w = eig(mat.toarray())[0]
        assert got.value == complex(w[thermo._tie_rule(w)])
        assert got.residual <= thermo.RESIDUAL_TOL
    assert calls == []


def test_a_singular_shift_falls_back_to_eig(free2_aut, free2_comp, monkeypatch):
    # the 0-1 matrix of the complete graph on four vertices: eigvals gives
    # its top eigenvalue 3 exactly, and A - 3 I is singular in the solve
    complete = scipy.sparse.csr_matrix(np.ones((4, 4)) - np.eye(4))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(complete.toarray() - 3.0 * np.eye(4), np.ones(4))
    calls = _counting_eig(monkeypatch)
    eig = thermo.leading_eigen(complete, left=True)
    # eig gives the right vector; the left one is solved one ulp above 3
    assert eig.value == 3.0 and len(calls) == 1
    assert eig.residual <= thermo.RESIDUAL_TOL
    assert np.allclose(eig.right, 0.5, rtol=0, atol=1e-14)
    assert np.allclose(eig.left, 0.5, rtol=0, atol=1e-14)
    # the F2 0-1 matrix: eigvals gives 2.999999999999999, whose shift the
    # solve handles, so eig does not run
    calls.clear()
    adjacency = thermo.TransferOperator(free2_aut, free2_comp.vertices, [], depth=1).matrix([])
    assert abs(thermo.leading_eigen(adjacency).value - 3.0) <= 1e-15 and calls == []


def test_the_solve_passes_where_lapacks_vector_missed(monkeypatch):
    # the badly scaled 4x4 matrix of the next test at s = 4: entries from
    # 7e-20 to 4.5e-4, where eig's back-transformed vector misses the check
    group = groups.standard_schottky((3.0, 30.0))
    aut = automaton.build_shortlex_acceptor(group)
    comp = shift.word_maximal_components(aut)[0]
    pot = thermo.cylinder_potential(metrics.FuchsianOrbit(group), 1)
    mat = thermo.TransferOperator(aut, comp.vertices, [pot]).matrix([-4.0])
    w, vr = np.linalg.eig(mat.toarray())
    i = thermo._tie_rule(w)
    x = thermo._unit(vr[:, i])
    assert np.linalg.norm(mat @ x - w[i] * x) > thermo.RESIDUAL_TOL * abs(w[i])
    calls = _counting_eig(monkeypatch)
    eig = thermo.leading_eigen(mat)
    assert eig.value == w[i] and eig.residual <= thermo.RESIDUAL_TOL and calls == []


def test_badly_scaled_dense_operator_passes_the_residual_check(tmp_path):
    # at s = 4 the 4x4 matrix has entries from 7e-20 to 4.5e-4 and a tied
    # top eigenvalue; LAPACK's vector misses the residual check
    group = groups.standard_schottky((3.0, 30.0))
    aut = automaton.build_shortlex_acceptor(group, 1)
    comp = shift.word_maximal_components(aut)[0]
    pot = thermo.cylinder_potential(metrics.FuchsianOrbit(group), 1)
    assert abs(thermo.growth_rate(aut, comp, pot) - 0.20284560534) < 1e-9
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "group": {"family": "schottky", "traces": [3, 30]},
        "metrics": [{"kind": "fuchsian_orbit"}],
        "thermo": {"depth": 1},
    }))
    assert cli.main(["growth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_warm_perron_path_agrees_with_the_cold_path(
    schottky_aut, schottky_comp, schottky, fuchsian, genus2_aut, genus2
):
    """Each matrix starts from the cold Perron vector of the one before it
    (the ones vector where the size changes): the 302 dense-path matrices
    and the 108-block depth-4 Fuchsian operator on a grid around its growth
    rate.  Where Noda's iteration runs, lambda agrees with the cold path to
    4e-15, the vector is positive, and the Collatz-Wielandt bracket of that
    vector holds lambda; where it declines, the call is the cold path bit
    for bit."""
    depth4 = thermo.TransferOperator(
        schottky_aut, schottky_comp.vertices, [thermo.cylinder_potential(fuchsian, 4)]
    )
    assert depth4.structure.n == 108 < thermo.PERRON_BELOW
    mats = _dense_path_matrices(
        schottky_aut, schottky_comp, schottky, fuchsian, genus2_aut, genus2
    ) + [depth4.matrix([-s]) for s in np.linspace(0.2, 0.5, 31)]
    prev, ran = None, {36: 0, 35: 0, 108: 0}
    for mat in mats:
        n = mat.shape[0]
        start = prev if prev is not None and len(prev) == n else np.ones(n)
        cold, warm = thermo.leading_eigen(mat), thermo.leading_eigen(mat, start=start)
        if thermo._noda(mat, start) is None:
            assert warm.value == cold.value and np.array_equal(warm.right, cold.right)
        else:
            ran[n] += 1
            x = warm.right
            assert abs(warm.value - cold.value) <= 4e-15 * abs(cold.value)
            assert x.dtype == float and np.all(x > 0)
            ratio = (mat.toarray() @ x) / x
            assert ratio.min() <= warm.value.real <= ratio.max()
            assert warm.value.imag == 0 and warm.residual <= thermo.RESIDUAL_TOL
        prev = cold.right
    # all but the grid's far corners, where the entries span many decades,
    # and the first 108-block matrix, whose ones start is far from its
    # Perron vector
    assert ran[36] > 250 and ran[35] == 1 and ran[108] == 30


def test_warm_perron_path_takes_the_perron_root_of_a_periodic_component():
    """On the period-2, 80-block component ARPACK converges to -rho; Noda's
    iteration returns +rho with positive h and nu."""
    aut = _bipartite_automaton(40)
    (comp,) = [c for c in shift.scc_decompose(aut) if not c.trivial]
    pot = thermo.cylinder_potential(metrics.WordMetric(aut.group), 1)
    mat = thermo.TransferOperator(aut, comp.vertices, [pot]).matrix([-1.0])
    assert mat.shape[0] == 80 and thermo.DENSE_BELOW <= 80 < thermo.PERRON_BELOW
    rho = np.max(np.abs(np.linalg.eigvals(mat.toarray())))
    assert thermo.leading_eigen(mat).value.real < 0
    eig = thermo.leading_eigen(mat, left=True, start=np.ones(80))
    assert eig.value.imag == 0 and abs(eig.value.real - rho) <= 1e-12 * rho
    assert np.all(eig.right > 0) and np.all(eig.left > 0)
    for a, x in ((mat, eig.right), (mat.T, eig.left)):
        assert np.linalg.norm(a @ x - eig.value * x) <= thermo.RESIDUAL_TOL * rho


def test_warm_perron_path_declines_to_the_cold_bits(schottky_aut, schottky_comp, fuchsian):
    """The badly scaled 4x4 operator at s = 4, whose states 1 and 2 are
    coupled only by entries 1e-16 times their row sums, a start with a zero
    entry, and a start whose Collatz-Wielandt bracket is more than half its
    upper end wide each give the cold path's bits."""
    group = groups.standard_schottky((3.0, 30.0))
    aut = automaton.build_shortlex_acceptor(group)
    comp = shift.word_maximal_components(aut)[0]
    op = thermo.TransferOperator(
        aut, comp.vertices, [thermo.cylinder_potential(metrics.FuchsianOrbit(group), 1)]
    )
    # the start that a growth root brings to s = 4: the vector at s = 0
    small = (op.matrix([-4.0]), thermo.leading_eigen(op.matrix([0.0])).right)
    depth4 = thermo.TransferOperator(
        schottky_aut, schottky_comp.vertices, [thermo.cylinder_potential(fuchsian, 4)]
    )
    mat = depth4.matrix([-0.34])
    zero = thermo.leading_eigen(mat).right.real.copy()
    zero[7] = 0.0
    ratio = (mat @ np.ones(108)) / np.ones(108)
    assert ratio.max() - ratio.min() > ratio.max() / 2
    for mat, start in (small, (mat, zero), (mat, np.ones(108))):
        assert thermo._noda(mat, start) is None
        cold = thermo.leading_eigen(mat, left=True)
        warm = thermo.leading_eigen(mat, left=True, start=start)
        assert warm.value == cold.value and warm.residual == cold.residual
        assert np.array_equal(warm.right, cold.right) and np.array_equal(warm.left, cold.left)


def test_warm_roots_bound_the_solver_calls(
    schottky, schottky_aut, schottky_comp, fuchsian, monkeypatch
):
    """The depth-4 correlation exponent makes one ARPACK run per root (the
    cold first evaluation), and no left vector runs eigs or eigvals; a
    warm root's bits depend on the operator alone."""
    op = thermo.TransferOperator(
        schottky_aut, schottky_comp.vertices, [thermo.cylinder_potential(fuchsian, 4)]
    )
    v_f = thermo.growth_rate(schottky_aut, schottky_comp, None, op=op)
    assert thermo.growth_rate(schottky_aut, schottky_comp, None, op=op) == v_f
    v_w = thermo.growth_rate(
        schottky_aut, schottky_comp, thermo.cylinder_potential(metrics.WordMetric(schottky), 1)
    )
    pw = thermo.cylinder_potential(metrics.ScaledWordMetric(schottky, v_w), 1)
    pf = thermo.cylinder_potential(metrics.LinearCombination([(v_f, fuchsian)]), 4)
    calls, left = {"eigs": 0, "eigvals": 0}, [False]
    eigs, eigvals, with_left = scipy.sparse.linalg.eigs, np.linalg.eigvals, thermo._with_left

    def counted(name, solve):
        def run(*args, **kwargs):
            assert not left[0], f"a left vector ran {name}"
            calls[name] += 1
            return solve(*args, **kwargs)
        return run

    def marked(*args):
        left[0] = True
        try:
            return with_left(*args)
        finally:
            left[0] = False

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", counted("eigs", eigs))
    monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", eigvals))
    monkeypatch.setattr(thermo, "_with_left", marked)
    ce = thermo.correlation_exponent(schottky_aut, schottky_comp, pw, pf)
    assert not ce.degenerate and 0.0 < ce.alpha < 1.0
    assert calls["eigs"] <= 11 and calls["eigvals"] == 0


def test_roots_reuse_the_bracket_end_values(monkeypatch):
    """Brent's method takes f at both bracket ends from the sign check: each
    root makes exactly the evaluations of a bare brentq run, two fewer than
    the sign check plus brentq."""
    group = groups.standard_schottky((3.0, 30.0))  # the criterion-13 pair
    aut = automaton.build_shortlex_acceptor(group, 1)
    comp = shift.word_maximal_components(aut)[0]
    fo = metrics.FuchsianOrbit(group)
    pot_f = thermo.cylinder_potential(fo, 6)
    tol = dict(xtol=1e-14, rtol=8.9e-16, full_output=True)

    pressure_terms = thermo.pressure_terms
    op = thermo.TransferOperator(aut, comp.vertices, [pot_f])
    warm = thermo.WarmStart()  # the root's own warm state, as in growth_rate
    v_ref, r = scipy.optimize.brentq(
        lambda s: pressure_terms(op, [-s], warm=warm), 0.05, 2.0, **tol
    )
    calls = []
    monkeypatch.setattr(
        thermo, "pressure_terms",
        lambda *a, **k: calls.append(1) or pressure_terms(*a, **k),
    )
    v_f = thermo.growth_rate(aut, comp, pot_f, bracket=(0.05, 2.0))
    monkeypatch.undo()
    assert v_f == v_ref and len(calls) == r.function_calls

    v_w = thermo.growth_rate(
        aut, comp, thermo.cylinder_potential(metrics.WordMetric(group), 1)
    )
    pw = thermo.cylinder_potential(metrics.ScaledWordMetric(group, v_w), 1)
    pf = thermo.cylinder_potential(metrics.LinearCombination([(v_f, fo)]), 6)
    pair = thermo.TransferOperator(aut, comp.vertices, [pw, pf])
    perron = thermo.perron

    def slope_plus_one(t):
        # the Perron data start from the eigenpair of the warm root, as in
        # correlation_exponent
        pairs = {}
        theta = thermo.manhattan_pair(aut, comp, pw, pf, t, op=pair, pairs=pairs)
        int_d, int_dstar = perron(pair, [-theta, -t], pairs[-theta, -t]).integrals()
        return 1.0 - int_dstar / int_d

    xi_ref, r = scipy.optimize.brentq(slope_plus_one, 0.05, 0.95, **tol)
    calls = []
    monkeypatch.setattr(
        thermo, "perron", lambda *a: calls.append(1) or perron(*a)
    )
    ce = thermo.correlation_exponent(aut, comp, pw, pf)
    assert ce.xi == xi_ref and len(calls) == r.function_calls


def _smooth_family(rng, i):
    """A seeded smooth function with one simple zero r, and r."""
    r, a, c = rng.uniform(-2, 2), rng.uniform(0.1, 5), rng.uniform(0.01, 3)
    forms = [
        lambda x: (x - r) * (c + a * (x - r) ** 2),
        lambda x: math.expm1(a * (x - r)),
        lambda x: math.tanh(a * (x - r)) + 0.05 * (x - r),
        lambda x: c * math.atan(x - r) + (x - r) ** 5,
        lambda x: math.sinh(x - r) + a * (x - r) ** 3,
    ]
    return forms[i % len(forms)], r


def _counting(f):
    calls = []
    return (lambda x: calls.append(x) or f(x)), calls


def test_root_is_brentq_bit_for_bit():
    """The Brent loop of _root returns brentq's root with brentq's number
    of evaluations: on seeded smooth functions, on brackets with the zero
    at either end, and on brackets that must be widened first."""
    tol = dict(xtol=1e-14, rtol=8.9e-16, full_output=True)
    rng = np.random.default_rng(12)
    for i in range(240):
        f, r = _smooth_family(rng, i)
        lo, hi = r - rng.uniform(0.01, 3), r + rng.uniform(0.01, 3)
        if i % 20 == 0:
            lo = r  # f(lo) is exactly 0
        if i % 20 == 10:
            hi = r
        g, calls = _counting(f)
        ref, res = scipy.optimize.brentq(f, lo, hi, **tol)
        assert thermo._root(g, lo, hi) == ref
        assert len(calls) == res.function_calls
    # [0, 1] misses the zero at 3.5 and widens twice, to [-4, 5]
    def f(x):
        return math.expm1(0.7 * (x - 3.5))

    g, calls = _counting(f)
    ref, res = scipy.optimize.brentq(f, -4.0, 5.0, **tol)
    assert thermo._root(g, 0.0, 1.0) == ref
    assert calls[:6] == [0.0, 1.0, -1.0, 2.0, -4.0, 5.0]
    assert len(calls) == 4 + res.function_calls
    with pytest.raises(thermo.ThermoError, match="bracketing"):
        thermo._root(lambda x: 1.0 + x * x, 0.0, 1.0)


def test_root_raises_thermo_error_on_nan():
    def f(x):
        return math.nan if 0.2 < x < 0.8 else x - 0.5

    with pytest.raises(ValueError, match="NaN"):
        scipy.optimize.brentq(f, 0.0, 1.0)
    with pytest.raises(thermo.ThermoError, match="NaN"):
        thermo._root(f, 0.0, 1.0)


def test_root_raises_thermo_error_without_convergence():
    def f(x):
        return (x - 0.3) ** 3

    with pytest.raises(RuntimeError, match="converge"):
        scipy.optimize.brentq(f, 0.0, 1.0, xtol=1e-14, rtol=8.9e-16)
    g, calls = _counting(f)
    with pytest.raises(thermo.ThermoError, match="did not converge"):
        thermo._root(g, 0.0, 1.0)
    assert len(calls) == 102
