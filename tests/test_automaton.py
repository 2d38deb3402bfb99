"""Geodesic acceptors: construction, validation, serialization."""
import dataclasses
import json

import pytest

from cannonlab import automaton, cli, groups, metrics, shift, thermo


def test_free_group_acceptor_has_five_states(free2_aut):
    assert free2_aut.n_states == 5


def test_accepted_counts_match_sphere_sizes(free2_aut):
    counts = free2_aut.accepted_counts(8)
    assert counts == [1] + [4 * 3 ** (n - 1) for n in range(1, 9)]


def test_accepted_words_evaluate_to_distinct_elements(free2_aut):
    seen = set()
    for word, _ in free2_aut.accepted_words(4):
        g = free2_aut.ev(word)
        assert len(g.word) == len(word)
        assert g.word not in seen
        seen.add(g.word)
    assert len(seen) == 1 + 4 + 12 + 36 + 108


def test_validate_bijection_passes_on_free_group(free2_aut):
    report = automaton.validate_bijection(free2_aut, 6)
    assert report.ok
    assert report.first_failure is None


def test_validate_bijection_detects_dropped_edge(free2_aut):
    u, v, label = free2_aut.edges()[3]
    rows = [tuple(e for e in row if e != (label, v)) if w == u else row
            for w, row in enumerate(free2_aut.transitions)]
    broken = dataclasses.replace(free2_aut, transitions=tuple(rows))
    report = automaton.validate_bijection(broken, 4)
    assert not report.ok
    assert report.first_failure["kind"] == "count_mismatch"


def _relabel(aut, state, old, new):
    """Copy with the ``old``-labelled edge leaving ``state`` relabelled
    ``new``; no state's out-degree changes, so the counts still match."""
    rows = [list(r) for r in aut.transitions]
    (target,) = [v for label, v in rows[state] if label == old]
    rows[state].remove((old, target))
    rows[state].append((new, target))
    return dataclasses.replace(
        aut, transitions=tuple(tuple(sorted(r)) for r in rows)
    )


def test_validate_bijection_names_the_shortest_non_geodesic_word(free2_aut):
    after_a = free2_aut.step(free2_aut.initial, 1)
    broken = _relabel(free2_aut, after_a, 2, -1)  # the edge b after a reads A
    report = automaton.validate_bijection(broken, 4)
    assert report.accepted_counts == report.sphere_sizes
    assert not report.ok
    assert report.first_failure == {"kind": "non_geodesic_word", "word": "aA"}


def test_validate_bijection_names_the_shortest_duplicate(free2_aut):
    after_a = free2_aut.step(free2_aut.initial, 1)
    broken = _relabel(free2_aut, after_a, -2, 2)  # two edges b after a
    report = automaton.validate_bijection(broken, 4)
    assert report.accepted_counts == report.sphere_sizes
    assert not report.ok
    assert report.first_failure == {"kind": "duplicate_element", "word": "ab"}


def test_validate_bijection_on_a_free_group_solves_no_word_problem(monkeypatch):
    free2 = groups.FreeGroup(2)
    aut = automaton.build_shortlex_acceptor(free2)

    def forbidden(*args):
        raise AssertionError("word problem solved during the check")

    monkeypatch.setattr(groups.FreeGroup, "extend", forbidden)
    monkeypatch.setattr(groups.FreeGroup, "normal_form", forbidden)
    assert automaton.validate_bijection(aut, 10).ok


def test_validate_bijection_names_an_accepted_word_that_is_not_the_normal_form():
    # abAB = dcDC in genus 2; a word problem that picks dcDC leaves the
    # counts and the distinctness of the accepted words intact
    genus2 = groups.surface_group(2)
    aut = automaton.build_shortlex_acceptor(genus2)
    canonical, picked = genus2._canonical, genus2.parse_word("dcDC")
    genus2._canonical = lambda w: (
        picked if canonical(w) == genus2.parse_word("abAB") else canonical(w)
    )
    report = automaton.validate_bijection(aut, 4)
    assert report.accepted_counts == report.sphere_sizes
    assert not report.ok
    assert report.first_failure == {"kind": "not_normal_form", "word": "abAB"}


def test_surface_acceptor_validates(genus2_aut):
    report = automaton.validate_bijection(genus2_aut, 4)
    assert report.ok


def _cannon_series(genus, n_max):
    """The growth series of the genus-g surface group in its standard
    presentation (Cannon; Floyd & Plotnick, Invent. Math. 88, 1987) to
    order n_max: (1 + 2x + ... + 2x^(2g-1) + x^2g) over
    (1 - (4g-2)x - ... - (4g-2)x^(2g-1) + x^2g)."""
    num = [1] + [2] * (2 * genus - 1) + [1]
    den = [1] + [-(4 * genus - 2)] * (2 * genus - 1) + [1]
    out = []
    for k in range(n_max + 1):
        out.append((num[k] if k < len(num) else 0) - sum(
            den[j] * out[k - j] for j in range(1, min(k, 2 * genus) + 1)))
    return out


@pytest.mark.parametrize("genus,n_states", [(2, 36), (3, 90), (4, 196)])
def test_surface_acceptor_counts_match_the_growth_series(genus, n_states):
    # the counts obey a recurrence of order n_states and the series one of
    # order 2g, so agreement to n_states + 2g + 1 is agreement at every radius
    aut = automaton.build_shortlex_acceptor(groups.surface_group(genus))
    assert aut.n_states == n_states
    n_max = n_states + 2 * genus + 1
    assert aut.accepted_counts(n_max) == _cannon_series(genus, n_max)


@pytest.mark.parametrize("relator,n_max", [("aaBBaaBB", 7), ("ABabAABabA", 9)])
def test_two_generator_acceptors_validate(relator, n_max):
    group = groups.SmallCancellationGroup(["a", "b"], [relator])
    report = automaton.validate_bijection(automaton.build_shortlex_acceptor(group), n_max)
    assert report.ok, report.first_failure


def test_genus2_word_growth_rate_is_exact(genus2_aut, genus2):
    # log of the largest root of x^4 - 6x^3 - 6x^2 - 6x + 1
    comp = shift.word_maximal_components(genus2_aut)[0]
    pot = thermo.cylinder_potential(metrics.WordMetric(genus2), 1)
    assert abs(thermo.growth_rate(genus2_aut, comp, pot) - 1.9430253891644975) < 1e-12


def test_json_round_trip(free2_aut, free2):
    text = json.dumps(free2_aut.to_dict())
    doc = json.loads(text)
    assert doc["schema"] == "geodesic-automaton/4"
    assert "r_cone" not in doc
    assert "zero_state" not in doc and "flags" not in doc
    back = automaton.GeodesicAutomaton.from_dict(doc, free2)
    assert back.transitions == free2_aut.transitions
    assert json.dumps(back.to_dict()) == text


def test_saturation_sweep_returns_stable_radius(free2, monkeypatch):
    # one build and one validation, whose report comes back with the acceptor
    calls = []
    for name in ("build_shortlex_acceptor", "validate_bijection"):
        fn = getattr(automaton, name)
        monkeypatch.setattr(
            automaton, name,
            lambda *args, fn=fn, name=name: calls.append(name) or fn(*args),
        )
    aut, report = automaton.saturate(free2, n_validate=4)
    assert aut.n_states == 5
    assert calls == ["build_shortlex_acceptor", "validate_bijection"]
    assert (report.ok, report.n_max) == (True, 4)
    assert report.accepted_counts == [1, 4, 12, 36, 108]


def test_schottky_acceptor_matches_free_structure(schottky_aut):
    assert schottky_aut.n_states == 5
    report = automaton.validate_bijection(schottky_aut, 5)
    assert report.ok


def test_state_cap_is_enforced(genus2, monkeypatch):
    # the cap fires in the subset search, before minimization
    def never(rows, initial):
        raise AssertionError("the search ran")

    monkeypatch.setattr(automaton, "_minimize", never)
    monkeypatch.setattr(automaton, "_STATE_CAP", 3)
    with pytest.raises(groups.ResourceCapError):
        automaton.build_shortlex_acceptor(genus2, 2)


# sha256 prefix of the canonical genus-2 automaton JSON (schema /4)
GENUS2_DIGEST = "578097f9aeee8c45"


@pytest.mark.parametrize("r_cone", [1, 2])
def test_genus2_acceptors_are_pinned(genus2, r_cone):
    # r_cone is the radius older callers pass: the builder takes and ignores it
    aut = automaton.build_shortlex_acceptor(genus2, r_cone)
    assert aut.n_states == 36
    digest = cli._automaton_digest(aut.to_dict())
    assert digest.startswith(GENUS2_DIGEST)


def test_raw_size_does_not_depend_on_the_cone_radius(genus2, monkeypatch):
    raw, minimize = [], automaton._minimize

    def spy(rows, initial):
        raw.append(len(rows))
        return minimize(rows, initial)

    monkeypatch.setattr(automaton, "_minimize", spy)
    for r in (1, 2, 3):
        automaton.build_shortlex_acceptor(genus2, r)
    assert raw == [138, 138, 138]


def _level_words(levels):
    """Rebuild the label words of each level of a walk."""
    out, prev = [], [()]
    for level in levels:
        if level.length:
            prev = [prev[p] + (s,) for p, s in zip(level.parent, level.label)]
        out.append(prev)
    return out


def test_walk_lists_accepted_words_in_shortlex_order(free2_aut, genus2_aut, genus2):
    for aut in (free2_aut, genus2_aut):
        levels = list(aut.walk(4))
        words = _level_words(levels)
        by_length = [[] for _ in range(5)]
        for w, state in aut.accepted_words(4):
            by_length[len(w)].append((w, state))
        for n, level in enumerate(levels):
            want = sorted(by_length[n], key=lambda ws: aut.group.shortlex_key(ws[0]))
            assert words[n] == [w for w, _ in want]
            assert level.state.tolist() == [s for _, s in want]
        assert [len(w) for w in words] == aut.accepted_counts(4)
    # the shortlex acceptor of the surface group lists its spheres
    for n, level_words in enumerate(_level_words(genus2_aut.walk(4))):
        assert level_words == genus2.sphere_words(n)


def test_walk_restricted_to_a_component(genus2_aut):
    comp = max(shift.scc_decompose(genus2_aut), key=lambda c: len(c.vertices))
    words = _level_words(genus2_aut.walk(4, comp.vertices))
    want = [[] for _ in range(5)]
    for w, _ in genus2_aut.accepted_words(4):
        u, inside = genus2_aut.initial, True
        for s in w:
            u = genus2_aut.step(u, s)
            inside = inside and u in comp.vertices
        if inside:
            want[len(w)].append(w)
    assert [sorted(ws) for ws in words] == [sorted(ws) for ws in want]
    assert [len(ws) for ws in words] == genus2_aut.accepted_counts(4, comp.vertices)


def _restrictions(aut):
    """None and the vertices of the largest component: the two restrictions
    the walks are made under."""
    return None, max(shift.scc_decompose(aut), key=lambda c: len(c.vertices)).vertices


@pytest.mark.parametrize("name", ["free2", "schottky", "genus2"])
def test_the_edge_table_is_the_step_function(name, request):
    aut = request.getfixturevalue(f"{name}_aut")
    alphabet, order = aut.group.alphabet, aut.group._order
    for vertices in _restrictions(aut):
        edges = aut._edges(vertices)
        for q in range(aut.n_states):
            for c, s in enumerate(alphabet):
                v = aut.step(q, s)
                if v is None or vertices is not None and v not in vertices:
                    assert edges.slot[q, c] == -1
                else:
                    e = edges.slot[q, c]
                    assert (edges.target[e], edges.label[e]) == (v, s)
                    assert edges.first[q] <= e < edges.first[q] + edges.degree[q]
            ranks = [order[s] for s in
                     edges.label[edges.first[q]:edges.first[q] + edges.degree[q]].tolist()]
            assert ranks == sorted(set(ranks))  # alphabet order
        assert edges.degree.sum() == len(edges.label) == (edges.slot >= 0).sum()


@pytest.mark.parametrize("name", ["free2", "schottky", "genus2"])
def test_path_counts_are_the_level_sizes_from_every_state(name, request):
    aut, m = request.getfixturevalue(f"{name}_aut"), 5
    for vertices in _restrictions(aut):
        counts = aut._path_counts(m, vertices)
        for q in range(aut.n_states):
            sizes = [len(level.state) for level in aut._levels([q], m, vertices)]
            assert counts[:, q].tolist() == sizes
        assert counts[:, aut.initial].tolist() == aut.accepted_counts(m, vertices)


def test_walk_cap_fires_before_the_walk_starts(free2_aut, free2_comp, monkeypatch):
    started = []
    monkeypatch.setattr(
        automaton.GeodesicAutomaton, "_levels", lambda *args: started.append(args)
    )
    ball = 1 + 2 * (3 ** 11 - 1)  # |B(11)| in F2
    with pytest.raises(groups.ResourceCapError, match=f"visit {ball} words, cap 1000"):
        free2_aut.walk(11, free2_comp.vertices, cap=1000)
    assert started == []
