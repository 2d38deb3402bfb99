"""Subshift structure: components, loops, lattice behavior."""
import numpy as np
import pytest

from cannonlab import automaton, groups, metrics, shift, thermo


def test_scc_decomposition_of_free_acceptor(free2_aut):
    comps = shift.scc_decompose(free2_aut)
    nontrivial = [c for c in comps if not c.trivial]
    # initial state is transient; the four letter states form one recurrent part
    assert len(nontrivial) == 1
    assert len(nontrivial[0].vertices) == 4
    trivial = [c for c in comps if c.trivial]
    assert all(c.period == 0 for c in trivial)
    with pytest.raises(shift.ShiftError):
        shift.period(trivial[0])


def test_recurrent_component_is_aperiodic(free2_comp):
    assert shift.period(free2_comp) == 1
    assert len(free2_comp.cyclic_parts) == 1
    assert free2_comp.cyclic_parts[0] == free2_comp.vertices


def test_component_growth_matches_branching(free2_aut, free2_comp, log3):
    g = shift.component_growth(free2_aut, free2_comp)
    assert abs(g - log3) < 1e-10


def test_word_maximal_components_unique(free2_aut, genus2_aut):
    assert len(shift.word_maximal_components(free2_aut)) == 1
    assert len(shift.word_maximal_components(genus2_aut)) == 1


def test_cross_check_maximal_on_free_acceptor(free2_aut, free2, log3):
    pot = thermo.cylinder_potential(metrics.WordMetric(free2), 1)
    res = shift.cross_check_maximal(free2_aut, pot, log3)
    assert res.ok
    assert res.word_maximal == res.potential_maximal
    assert res.disjoint
    top = max(res.pressures.values())
    assert abs(top) < 1e-9


def test_maximal_components_that_reach_each_other_fail_the_check(free2):
    """Two components of growth log 2, the first reaching the second: both
    are maximal for words and for the potential, but not disjoint."""
    aut = automaton.GeodesicAutomaton(free2, 3, 0, (
        ((1, 1),),
        ((1, 1), (2, 1), (-1, 2)),
        ((-1, 2), (-2, 2)),
    ))
    pot = thermo.cylinder_potential(metrics.WordMetric(free2), 1)
    res = shift.cross_check_maximal(aut, pot, np.log(2.0))
    assert res.word_maximal == res.potential_maximal == [1, 2]
    assert not res.disjoint and not res.ok


def test_loops_realizing_class_needs_a_free_group(genus2_aut, genus2):
    comp = shift.word_maximal_components(genus2_aut)[0]
    c = groups.ConjClass(genus2.element((1, 2)), is_torsion=False)
    with pytest.raises(shift.ShiftError, match="small_cancellation"):
        shift.loops_realizing_class(genus2_aut, comp, c)


def test_loops_realize_small_classes(free2_aut, free2_comp, free2):
    for w in [(1,), (1, 2), (1, 1, 2, -1)]:
        c = free2.canonical_class(free2.element(w))
        wit = shift.loops_realizing_class(free2_aut, free2_comp, c)
        assert wit is not None
        got = free2.canonical_class(free2.element(wit.orbit.labels))
        base = c.representative.word * wit.N
        if wit.sign < 0:
            base = groups.invert_word(base)
        want = free2.canonical_class(free2.element(base))
        assert got.representative.word == want.representative.word


def test_torsion_class_has_no_loop(free2_aut, free2_comp, free2):
    c = free2.canonical_class(free2.identity())
    with pytest.raises(shift.ShiftError):
        shift.loops_realizing_class(free2_aut, free2_comp, c)


def _anchored_closed_path_counts(aut, comp, l_max):
    """Closed paths anchored at their least vertex, per length: the diagonal
    entries of powers of the adjacency restricted to vertices >= anchor."""
    import numpy as np

    verts = sorted(comp.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    adj = np.zeros((len(verts), len(verts)))
    for u in verts:
        for label, w in aut.transitions[u]:
            if w in comp.vertices:
                adj[pos[u], pos[w]] += 1.0
    return [
        sum(
            int(round(np.linalg.matrix_power(adj[a:, a:], l)[0, 0]))
            for a in range(len(verts))
        )
        for l in range(1, l_max + 1)
    ]


def test_enumerate_cycles_counts_match_matrix_oracle(
    free2_aut, free2, genus2_aut, genus2
):
    for aut, group, l_max in ((free2_aut, free2, 4), (genus2_aut, genus2, 6)):
        comp = shift.word_maximal_components(aut)[0]
        pot = thermo.cylinder_potential(metrics.WordMetric(group), 1)
        totals = [0] + [
            shift.arithmeticity(aut, comp, pot, l_max=l).n_orbits
            for l in range(1, l_max + 1)
        ]
        by_len = [b - a for a, b in zip(totals, totals[1:])]
        assert by_len == _anchored_closed_path_counts(aut, comp, l_max)
    assert by_len == [8, 32, 143, 782, 4560, 27726]


def _brute_force_closed_words(aut, comp, l_max):
    """Label words of the closed paths of 1..l_max edges through vertices
    >= their anchor, by trying every letter after every word that stays
    in them."""
    step = [dict(row) for row in aut.transitions]
    out = []
    for anchor in sorted(comp.vertices):
        stack = [((), anchor)]
        while stack:
            word, v = stack.pop()
            if word and v == anchor:
                out.append(word)
            if len(word) < l_max:
                for s in aut.group.alphabet:
                    w = step[v].get(s)
                    if w is not None and w in comp.vertices and w >= anchor:
                        stack.append((word + (s,), w))
    return out


@pytest.mark.parametrize(
    "case, kind, depth",
    [
        ("free2", "word", 1),
        ("free2", "green_closed_form", 1),
        ("schottky", "fuchsian_orbit", 1),
        ("schottky", "fuchsian_orbit", 4),
        ("schottky", "fuchsian_orbit", 6),
        ("genus2", "word", 1),
        ("genus2", "word", 4),
    ],
)
def test_orbit_sums_equal_cycle_sums_bitwise(request, case, kind, depth):
    aut = request.getfixturevalue(f"{case}_aut")
    group = request.getfixturevalue(case)
    comp = shift.word_maximal_components(aut)[0]
    metric = {
        "word": metrics.WordMetric,
        "green_closed_form": metrics.GreenClosedForm,
        "fuchsian_orbit": metrics.FuchsianOrbit,
    }[kind](group)
    sums = shift._orbit_sums(
        aut, comp, thermo.cylinder_potential(metric, depth), 6
    )
    # a potential of its own, so that no operator's psi fills its table
    ref = thermo.cylinder_potential(metric, depth)
    want = [ref.cycle_sum(w) for w in _brute_force_closed_words(aut, comp, 6)]
    assert len(want) == len(sums) == {"genus2": 33251}.get(case, len(want)) > 0
    assert sorted(sums.tolist()) == sorted(want)


def _unpruned_orbit_sums(aut, comp, op, l_max):
    """The reference walk of ``_orbit_sums``: for each anchor a in turn, all
    the paths of 1..l_max edges from a through the vertices >= a, and the
    sums of those that end at a, level after level, in walk order."""
    k, psi, mat = op.depth, op.psi[0], op.structure.matrix
    child = [indptr for _, _, indptr in op.structure.walk[1:]]
    edges = aut._edges(comp.vertices)
    rank = np.zeros((aut.n_states, 2 * max(aut.group.alphabet) + 1), dtype=np.int64)
    rank[:, list(aut.group.alphabet)] = edges.slot - edges.first[:, None]
    sums, verts = [np.zeros(0)], sorted(comp.vertices)
    for pos, a in enumerate(verts):
        levels = list(aut._levels([a], l_max, frozenset(verts[pos:])))
        for n, level in enumerate(levels[1:], 1):
            idx = np.flatnonzero(level.state == a)
            r = np.empty((len(idx), n), dtype=np.int64)  # edge ranks, from the end
            for m in range(n, 0, -1):
                parent = levels[m].parent[idx]
                r[:, m - 1] = rank[levels[m - 1].state[parent], levels[m].label[idx]]
                idx = parent
            block = np.full(len(r), pos)
            for j in range(k - 1):
                block = child[j][block] + r[:, j % n]
            total = np.zeros(len(r))
            for i in range(n):
                entry = mat.indptr[block] + r[:, (i + k - 1) % n]
                total += psi[entry]
                block = mat.indices[entry]
            sums.append(total)
    return np.concatenate(sums)


@pytest.mark.parametrize(
    "case, kind, depth, l_max",
    [
        ("free2", "word", 1, 6),
        ("schottky", "fuchsian_orbit", 4, 6),
        ("schottky", "fuchsian_orbit", 6, 3),
        ("genus2", "word", 1, 6),
        ("genus2", "word", 4, 5),
    ],
)
def test_pruned_orbit_walk_is_the_unpruned_walk_bitwise(request, case, kind, depth, l_max):
    """Dropping the paths that cannot close in time changes neither the
    closed paths, nor their sums, nor their order."""
    aut = request.getfixturevalue(f"{case}_aut")
    group = request.getfixturevalue(case)
    comp = shift.word_maximal_components(aut)[0]
    metric = {"word": metrics.WordMetric, "fuchsian_orbit": metrics.FuchsianOrbit}[kind](group)
    pot = thermo.cylinder_potential(metric, depth)
    op = thermo.TransferOperator(aut, comp.vertices, [pot])
    got = shift._orbit_sums(aut, comp, pot, l_max, op)
    want = _unpruned_orbit_sums(aut, comp, op, l_max)
    assert len(got) == len(want) > 0
    assert got.tobytes() == want.tobytes()


def test_genus2_orbit_sums_do_not_depend_on_depth(genus2_aut, genus2):
    comp = shift.word_maximal_components(genus2_aut)[0]
    reps = [
        shift.arithmeticity(
            genus2_aut, comp,
            thermo.cylinder_potential(metrics.WordMetric(genus2), k),
        )
        for k in (1, 4)
    ]
    for rep in reps:
        assert rep.n_orbits == 33251
        assert rep.verdict == "lattice"
        assert rep.gap == 1.0
    assert reps[0].sample_values == reps[1].sample_values


def test_orbit_walk_level_cap_fires_before_allocation(
    genus2_aut, genus2, monkeypatch
):
    comp = shift.word_maximal_components(genus2_aut)[0]
    pot = thermo.cylinder_potential(metrics.WordMetric(genus2), 1)
    monkeypatch.setattr(shift, "ORBIT_LEVEL_CAP", 100_000)
    with pytest.raises(groups.ResourceCapError, match="cap 100000"):
        shift.arithmeticity(genus2_aut, comp, pot, l_max=6)
    # five edges stay under the cap
    assert shift.arithmeticity(genus2_aut, comp, pot, l_max=5).n_orbits == 5525


def test_word_potential_is_lattice(free2_aut, free2_comp, free2):
    pot = thermo.cylinder_potential(metrics.WordMetric(free2), 1)
    rep = shift.arithmeticity(free2_aut, free2_comp, pot)
    assert rep.verdict == "lattice"
    assert abs(rep.gap - 1.0) < 1e-9
    assert rep.max_residual < 1e-9


def test_green_potential_lattice_gap_is_log3(free2_aut, free2_comp, free2, log3):
    pot = thermo.cylinder_potential(metrics.GreenClosedForm(free2), 1)
    rep = shift.arithmeticity(free2_aut, free2_comp, pot)
    assert rep.verdict == "lattice"
    assert abs(rep.gap - log3) < 1e-8


def test_fuchsian_potential_is_non_arithmetic(schottky_aut, schottky_comp, fuchsian):
    pot = thermo.cylinder_potential(fuchsian, 4)
    rep = shift.arithmeticity(schottky_aut, schottky_comp, pot)
    assert rep.verdict == "non_arithmetic"
    assert rep.gap <= 1e-4


@pytest.mark.parametrize("case", ["genus3_word", "schottky_fuchsian"])
def test_arithmeticity_values_are_deduplicated_before_rounding(
    case, schottky_aut, schottky_comp, fuchsian, monkeypatch
):
    """Rounding the distinct orbit sums gives the set that rounding every
    sum gives, so the lattice values and the verdict are unchanged."""
    if case == "genus3_word":
        genus3 = groups.surface_group(3)
        aut = automaton.build_shortlex_acceptor(genus3, 2)
        comp = shift.word_maximal_components(aut)[0]
        pot = thermo.cylinder_potential(metrics.WordMetric(genus3), 1)
    else:
        aut, comp = schottky_aut, schottky_comp
        pot = thermo.cylinder_potential(fuchsian, 4)
    seen = []
    orbit_sums = shift._orbit_sums
    monkeypatch.setattr(
        shift, "_orbit_sums", lambda *a: seen.append(orbit_sums(*a)) or seen[-1]
    )
    rep = shift.arithmeticity(aut, comp, pot)
    (sums,) = seen
    old = sorted({round(v, 14) for v in sums.tolist()})
    assert sorted({round(v, 14) for v in np.unique(sums).tolist()}) == old
    assert rep.sample_values == [v for v in old if abs(v) > 1e-8][:12]
