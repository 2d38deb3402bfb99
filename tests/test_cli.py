"""End-to-end runs of the command-line pipeline in temporary directories."""
import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

from cannonlab import automaton, cli, groups, shift, thermo


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture()
def free_pair_cfg(tmp_path):
    return write_config(
        tmp_path,
        {
            "group": {"family": "free", "rank": 2},
            "metrics": [{"kind": "word"}, {"kind": "green_closed_form"}],
            "counting": {"n_max": 7, "eps": 0.5},
        },
    )


def run(tmp_path, *argv):
    out = str(tmp_path / "out")
    return cli.main([*argv, "--out", out]), out


def test_report_pipeline_on_free_group(tmp_path, free_pair_cfg, log3):
    code, out = run(tmp_path, "report", "--config", free_pair_cfg)
    assert code == 0
    with open(os.path.join(out, "report.json")) as fh:
        doc = json.load(fh)
    rates = doc["growth"]["growth_rates"]
    assert abs(rates["word"] - log3) < 1e-9
    assert abs(rates["green_closed_form"] - 1.0) < 1e-9
    assert doc["automaton"]["n_states"] == 5
    assert doc["mixing"]["verdict"] == "not_weak_mixing"
    # word and Green are similar metrics: the pair curve is affine
    assert doc["manhattan"]["affine"] is True
    assert doc["correlate"]["status"] == "degenerate"
    assert doc["count"]["kappa"]["status"] == "refused_arithmetic_oscillation"
    for m in doc["analyze"]["metrics"]:
        assert m["cross_check_ok"]
        assert m["arithmeticity"]["verdict"] == "lattice"


def test_genus2_analyze_counts_every_closed_path(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "group": {"family": "surface", "genus": 2},
            "automaton": {"n_validate": 4},
        },
    )
    code, out = run(tmp_path, "analyze", "--config", cfg)
    assert code == 0
    with open(os.path.join(out, "analyze.json")) as fh:
        (entry,) = json.load(fh)["metrics"]
    # the anchored closed paths of 1..6 edges in the main component
    assert entry["arithmeticity"]["n_orbits"] == 33251
    assert entry["arithmeticity"]["verdict"] == "lattice"
    assert entry["arithmeticity"]["gap"] == 1.0


def test_genus3_report_through_the_trie_acceptor(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "group": {"family": "surface", "genus": 3},
            "automaton": {"n_validate": 3},
            "counting": {"n_max": 3},
        },
    )
    code, out = run(tmp_path, "report", "--config", cfg)
    assert code == 0
    with open(os.path.join(out, "bijection.json")) as fh:
        bijection = json.load(fh)
    assert bijection["ok"] is True
    assert bijection["sphere_sizes"] == [1, 12, 132, 1452]
    with open(os.path.join(out, "count.json")) as fh:
        count = json.load(fh)
    assert count["sphere_sizes"] == [1, 12, 132, 1452]
    assert count["validated_to"] == 3


def test_count_records_its_validated_radius(tmp_path, monkeypatch):
    # count walks the validated acceptor, and refuses one whose check failed
    cfg = write_config(
        tmp_path, {"automaton": {"n_validate": 5}, "counting": {"n_max": 6}}
    )
    code, out = run(tmp_path, "count", "--config", cfg)
    assert code == 0
    with open(os.path.join(out, "count.json")) as fh:
        doc = json.load(fh)
    assert doc["validated_to"] == 5
    validate = automaton.validate_bijection
    monkeypatch.setattr(
        automaton, "validate_bijection",
        lambda *args: dataclasses.replace(validate(*args), ok=False),
    )
    monkeypatch.setattr(cli, "count_ball", None)  # never reached
    code, out = run(tmp_path / "failed", "count", "--config", cfg)
    assert code == 2
    assert not os.path.exists(os.path.join(out, "count.json"))


def artifacts(out):
    """Every file under the output directory, by relative path."""
    files = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out)] = fh.read()
    return files


def test_reruns_are_byte_identical(tmp_path, free_pair_cfg):
    code, out = run(tmp_path, "report", "--config", free_pair_cfg)
    assert code == 0
    first = artifacts(out)
    assert {"growth.json", "bijection.json", "report.json"} <= set(first)
    # the second run reads the automaton from the cache
    code2, _ = run(tmp_path, "report", "--config", free_pair_cfg)
    assert code2 == 0
    assert artifacts(out) == first


def test_cache_entry_without_build_record_is_rebuilt(tmp_path, free_pair_cfg):
    _, out = run(tmp_path, "automaton", "--config", free_pair_cfg)
    with open(os.path.join(out, "bijection.json")) as fh:
        cold = fh.read()
    cache_dir = os.path.join(out, "cache")
    (entry,) = os.listdir(cache_dir)
    path = os.path.join(cache_dir, entry)
    with open(path) as fh:
        good = fh.read()
    doc = json.loads(good)
    record = doc.pop("bijection")
    assert record == {k: v for k, v in json.loads(cold).items() if k != "header"}
    doc.pop("sha256")
    doc["sha256"] = cli._automaton_digest(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)  # a bare automaton with its own digest
    code, _ = run(tmp_path, "automaton", "--config", free_pair_cfg)
    assert code == 0
    with open(os.path.join(out, "bijection.json")) as fh:
        assert fh.read() == cold
    with open(path) as fh:
        assert fh.read() == good


def test_automaton_cache_is_reused(tmp_path, free_pair_cfg):
    _, out = run(tmp_path, "automaton", "--config", free_pair_cfg)
    cache_dir = os.path.join(out, "cache")
    files = os.listdir(cache_dir)
    assert len(files) == 1
    mtime = os.path.getmtime(os.path.join(cache_dir, files[0]))
    run(tmp_path, "growth", "--config", free_pair_cfg)
    assert os.listdir(cache_dir) == files
    assert os.path.getmtime(os.path.join(cache_dir, files[0])) == mtime


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: text[: len(text) // 2],  # truncated JSON
        lambda text: text.replace("geodesic-automaton/", "geodesic-automaton/0"),
        lambda text: json.dumps({"build": {}, "edges": "none"}),
        lambda text: "[]",
    ],
    ids=["truncated", "wrong_schema", "bad_edges", "not_an_object"],
)
def test_corrupt_cache_entry_is_rebuilt(tmp_path, free_pair_cfg, damage):
    clean_code, clean = run(tmp_path / "clean", "growth", "--config", free_pair_cfg)
    assert clean_code == 0
    _, out = run(tmp_path, "growth", "--config", free_pair_cfg)
    cache_dir = os.path.join(out, "cache")
    (entry,) = os.listdir(cache_dir)
    path = os.path.join(cache_dir, entry)
    with open(path) as fh:
        good = fh.read()
    with open(path, "w") as fh:
        fh.write(damage(good))
    code, _ = run(tmp_path, "growth", "--config", free_pair_cfg)
    assert code == 0
    growth = [open(os.path.join(d, "growth.json")).read() for d in (clean, out)]
    assert growth[0] == growth[1]
    assert os.listdir(cache_dir) == [entry]
    with open(path) as fh:
        assert fh.read() == good


def test_cache_entry_with_a_deleted_edge_is_rebuilt(tmp_path, free_pair_cfg, log3, capsys):
    _, out = run(tmp_path, "growth", "--config", free_pair_cfg)
    cache_dir = os.path.join(out, "cache")
    (entry,) = os.listdir(cache_dir)
    path = os.path.join(cache_dir, entry)
    with open(path) as fh:
        good = fh.read()
    doc = json.loads(good)
    doc["edges"].pop()  # still a loadable automaton, with a smaller growth rate
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    capsys.readouterr()
    code, _ = run(tmp_path, "growth", "--config", free_pair_cfg)
    assert code == 0
    with open(os.path.join(out, "growth.json")) as fh:
        rate = json.load(fh)["growth_rates"]["word"]
    assert abs(rate - log3) < 1e-9
    assert len(capsys.readouterr().err.splitlines()) == 1
    with open(path) as fh:
        assert fh.read() == good


def test_cache_entry_that_does_not_recount_is_rebuilt(tmp_path, free_pair_cfg, capsys):
    _, out = run(tmp_path, "automaton", "--config", free_pair_cfg)
    cache_dir = os.path.join(out, "cache")
    (entry,) = os.listdir(cache_dir)
    path = os.path.join(cache_dir, entry)
    with open(path) as fh:
        good = fh.read()
    doc = json.loads(good)
    doc["bijection"]["sphere_sizes"][-1] += 1
    doc.pop("sha256")
    doc["sha256"] = cli._automaton_digest(doc)  # only the recount can tell
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    capsys.readouterr()
    code, _ = run(tmp_path, "automaton", "--config", free_pair_cfg)
    assert code == 0
    assert len(capsys.readouterr().err.splitlines()) == 1
    with open(path) as fh:
        assert fh.read() == good


def test_cache_key_holds_the_package_version(tmp_path, free_pair_cfg, monkeypatch):
    _, out = run(tmp_path, "automaton", "--config", free_pair_cfg)
    cache_dir = os.path.join(out, "cache")
    (old,) = os.listdir(cache_dir)
    monkeypatch.setattr(cli, "__version__", "0.0.0-other")
    builds = counted(monkeypatch, "saturate")
    code, _ = run(tmp_path, "automaton", "--config", free_pair_cfg)
    assert code == 0
    assert len(builds) == 1
    assert len(os.listdir(cache_dir)) == 2 and old in os.listdir(cache_dir)


GENUS2_REPORTS = {
    "one_metric": {
        "group": {"family": "surface", "genus": 2},
        "automaton": {"n_validate": 4},
        "counting": {"n_max": 4},
    },
    # correlate enumerates its ball too
    "two_metrics": {
        "group": {"family": "surface", "genus": 2},
        "metrics": [{"kind": "word"}, {"kind": "scaled_word", "factor": 1.5}],
        "automaton": {"n_validate": 4},
        "counting": {"n_max": 5},
    },
    # the Green ball lies within the run's check, so it walks that acceptor
    "green": {
        "group": {"family": "surface", "genus": 2},
        "metrics": [{"kind": "green_numeric", "absorbing_radius": 5, "safety_margin": 1}],
        "automaton": {"n_validate": 4},
        "counting": {"n_max": 4},
        "thermo": {"depth": 2},
    },
}


@pytest.mark.parametrize("config", sorted(GENUS2_REPORTS))
def test_warm_report_does_no_dehn_work(tmp_path, monkeypatch, config):
    cfg = write_config(tmp_path, GENUS2_REPORTS[config])
    validations = counted(monkeypatch, "validate_bijection", automaton)
    spheres, grow_spheres = [], groups.GroupPresentation._grow_spheres
    monkeypatch.setattr(
        groups.GroupPresentation, "_grow_spheres",
        lambda *args, **kwargs: spheres.append(args[1]) or grow_spheres(*args, **kwargs),
    )
    code, out = run(tmp_path, "report", "--config", cfg)
    assert code == 0
    assert len(validations) == 1
    assert spheres  # the spy sees the cold run's check
    cold = artifacts(out)
    del validations[:], spheres[:]
    code, _ = run(tmp_path, "report", "--config", cfg)
    assert code == 0
    assert (validations, spheres) == ([], [])
    assert artifacts(out) == cold


def generators_only(group):
    """The identity and the generators as the only word differences."""
    return {w: w for w in [()] + [(s,) for s in group.alphabet]}


def test_failed_validation_exits_2_and_is_not_cached(tmp_path, monkeypatch):
    # with only the generators as differences the acceptor takes every
    # reduced word: more words than elements
    monkeypatch.setattr(automaton, "_differences", generators_only)
    cfg = write_config(
        tmp_path,
        {"group": {"family": "surface", "genus": 2}, "automaton": {"n_validate": 4}},
    )
    code, out = run(tmp_path, "automaton", "--config", cfg)
    assert code == 2
    with open(os.path.join(out, "bijection.json")) as fh:
        doc = json.load(fh)
    assert doc["ok"] is False
    assert doc["first_failure"] == {
        "kind": "count_mismatch", "length": 4, "accepted": 2744, "expected": 2736,
    }
    assert not os.path.exists(os.path.join(out, "cache"))


@pytest.mark.parametrize("command", ["growth", "count", "report"])
def test_no_stage_runs_on_a_failed_acceptor(tmp_path, monkeypatch, command):
    # on the reduced words genus 2 has growth log 7, not its own
    monkeypatch.setattr(automaton, "_differences", generators_only)
    cfg = write_config(
        tmp_path,
        {"group": {"family": "surface", "genus": 2}, "automaton": {"n_validate": 4}},
    )
    code, out = run(tmp_path, command, "--config", cfg)
    assert code == 2
    written = set(os.listdir(out))
    expected = {"automaton.json", "bijection.json"} if command == "report" else set()
    assert written == expected


def test_retired_automaton_keys_exit_2(tmp_path, capsys):
    for key, value in [("r_cone", 2), ("radii", [1])]:
        cfg = write_config(tmp_path, {"automaton": {key: value}})
        code, _ = run(tmp_path, "automaton", "--config", cfg)
        assert code == 2
        assert f"unknown key {key!r} in automaton" in capsys.readouterr().err


SCHOTTKY_MATRICES = [[[2, 1], [1, 1]], [[16, -80.5], [2, -10]]]
UNKNOWN_KEYS = {  # a valid spec of each section, family and kind, plus a stray key
    "top_level": ("countng", {"countng": {"n_max": 5}}),
    "automaton": ("n_valdiate", {"automaton": {"n_valdiate": 3}}),
    "thermo": ("dpeth", {"thermo": {"depth": 2, "dpeth": 3}}),
    "counting": ("nmax", {"counting": {"nmax": 5}}),
    "scan": ("t_mni", {"scan": {"t_mni": 0.5}}),
    "manhattan": ("point", {"manhattan": {"point": 5}}),
    "free": ("genus", {"group": {"family": "free", "rank": 2, "genus": 2}}),
    "free_by_default": ("genus", {"group": {"genus": 3}}),
    "surface": ("rank", {"group": {"family": "surface", "genus": 2, "rank": 4}}),
    "small_cancellation": ("relator", {"group": {
        "family": "small_cancellation", "generators": ["a", "b"],
        "relators": ["A B a b A A B a b A"], "relator": "abab",
    }}),
    "schottky": ("rank", {"group": {"family": "schottky", "matrices": SCHOTTKY_MATRICES,
                                    "rank": 2}}),
    "word": ("factor", {"metrics": [{"kind": "word", "factor": 2.0}]}),
    "scaled_word": ("scale", {"metrics": [{"kind": "scaled_word", "factor": 2.0, "scale": 2}]}),
    "green_closed_form": ("walk", {"metrics": [{"kind": "green_closed_form", "walk": "x"}]}),
    "green_numeric": ("absorbing_raduis", {"metrics": [
        {"kind": "green_numeric", "absorbing_raduis": 8}
    ]}),
    "fuchsian_orbit": ("base_point", {"group": {"family": "schottky"}, "metrics": [
        {"kind": "fuchsian_orbit", "base_point": [0, 1]}
    ]}),
    "linear_combination": ("term", {"metrics": [
        {"kind": "linear_combination", "terms": [[1.0, {"kind": "word"}]], "term": []}
    ]}),
    "linear_combination_term": ("depth", {"metrics": [
        {"kind": "linear_combination", "terms": [[1.0, {"kind": "word", "depth": 2}]]}
    ]}),
}


@pytest.mark.parametrize("where", sorted(UNKNOWN_KEYS))
def test_unknown_key_exits_2_and_is_named(tmp_path, where, capsys):
    key, cfg = UNKNOWN_KEYS[where]
    code, _ = run(tmp_path, "growth", "--config", write_config(tmp_path, cfg))
    assert code == 2
    assert f"ConfigError(\"unknown key '{key}'" in capsys.readouterr().err


def readme_config_examples() -> list[dict]:
    """Every JSON example of the README's config grammar: a whole config,
    or a group spec, one to a line, wrapped as a config."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    section = text.split("### Config grammar (JSON)")[1].split("\n### ")[0]
    examples = []
    for block in section.split("```json\n")[1:]:
        block = block.split("```")[0]
        try:
            examples.append(json.loads(block))
        except json.JSONDecodeError:
            examples += [{"group": json.loads(line)} for line in block.splitlines()]
    return examples


def test_readme_config_examples_load_and_build(tmp_path):
    examples = readme_config_examples()
    assert len(examples) == 6
    for cfg in examples:
        loaded = cli.load_config(write_config(tmp_path, cfg), None)
        cli.build_group(loaded["group"])


def test_artifacts_carry_config_hash(tmp_path, free_pair_cfg):
    code, out = run(tmp_path, "manhattan", "--config", free_pair_cfg)
    assert code == 0
    with open(os.path.join(out, "manhattan.json")) as fh:
        doc = json.load(fh)
    sha = doc["header"]["config_sha256"]
    assert len(sha) == 16
    first_line = open(os.path.join(out, "manhattan.csv")).readline()
    assert first_line.startswith(f"# config_sha256={sha} version=")


def test_scan_csv_has_expected_columns(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "metrics": [{"kind": "green_closed_form"}],
            "scan": {"t_min": 0.5, "t_max": 6.0, "points": 5},
        },
    )
    code, out = run(tmp_path, "scan", "--config", cfg)
    assert code == 0
    lines = open(os.path.join(out, "scan.csv")).read().strip().splitlines()
    assert lines[1] == "t,rho,unit_distance,gap,exact"
    assert len(lines) == 2 + 5
    with open(os.path.join(out, "scan.json")) as fh:
        doc = json.load(fh)
    assert abs(doc["growth_rate"] - 1.0) < 1e-9


def test_invalid_config_exits_2(tmp_path):
    bad = write_config(tmp_path, {"group": {"family": "nope"}})
    code, _ = run(tmp_path, "growth", "--config", bad)
    assert code == 2
    bad2 = write_config(tmp_path, {"metrics": [{"kind": "word"}] * 3})
    code2, _ = run(tmp_path, "growth", "--config", bad2)
    assert code2 == 2
    code3, _ = run(tmp_path, "growth", "--config", str(tmp_path / "missing.json"))
    assert code3 == 2


@pytest.mark.parametrize(
    "cfg",
    [
        {"metrics": [{"kind": "scaled_word"}]},
        {"group": {"family": "small_cancellation", "generators": ["a", "b"]}},
        {"thermo": {"depth": "deep"}},
        {"metrics": []},
        {"manhattan": {"points": 1}},
        {"manhattan": {"points": 2}},
    ],
    ids=["scaled_word_without_factor", "small_cancellation_without_relators",
         "non_numeric_depth", "no_metrics", "manhattan_one_point",
         "manhattan_two_points"],
)
def test_malformed_config_exits_2(tmp_path, cfg, capsys):
    code, _ = run(tmp_path, "growth", "--config", write_config(tmp_path, cfg))
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err


INTEGER_FIELDS = {
    "n_validate": lambda v: {"automaton": {"n_validate": v}},
    "n_max": lambda v: {"counting": {"n_max": v}},
    "depth": lambda v: {"thermo": {"depth": v}},
    "absorbing_radius": lambda v: {
        "metrics": [{"kind": "green_numeric", "absorbing_radius": v}]
    },
    "points": lambda v: {"scan": {"points": v}},  # read by scan, not by report
}
NOT_COUNTS = {"fractional": 4.7, "boolean": True, "string": "4", "zero": 0, "negative": -1}
INTEGER_CASES = [
    (field, name) for field in sorted(INTEGER_FIELDS) if field != "points"
    for name in NOT_COUNTS
] + [("points", "zero"), ("points", "negative")]


@pytest.mark.parametrize(
    "field,value", INTEGER_CASES, ids=[f"{f}-{v}" for f, v in INTEGER_CASES]
)
def test_integer_field_rejects_a_non_integer(tmp_path, field, value, capsys):
    """Every integer field counts something: a fraction, boolean, string,
    zero or negative number exits 2 and names the field."""
    cfg = write_config(tmp_path, INTEGER_FIELDS[field](NOT_COUNTS[value]))
    code, _ = run(tmp_path, "scan" if field == "points" else "report", "--config", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and field in err


def test_schottky_traces_with_matrices_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"group": {
        "family": "schottky", "traces": [3.3, 5.7], "matrices": SCHOTTKY_MATRICES,
    }})
    code, _ = run(tmp_path, "growth", "--config", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "'traces'" in err and "'matrices'" in err


def schottky_matrices(v):
    """The standard Schottky group's matrices, first entry replaced by v."""
    mats = [m.tolist() for m in groups.standard_schottky().matrices]
    mats[0][0][0] = v
    return {"group": {"family": "schottky", "matrices": mats}}


REAL_FIELDS = {
    "eps": lambda v: {"counting": {"eps": v}},
    "t_min": lambda v: {"scan": {"t_min": v}},
    "t_max": lambda v: {"scan": {"t_max": v}},
    "factor": lambda v: {"metrics": [{"kind": "scaled_word", "factor": v}]},
    "terms": lambda v: {
        "metrics": [{"kind": "linear_combination", "terms": [[v, {"kind": "word"}]]}]
    },
    "traces": lambda v: {"group": {"family": "schottky", "traces": [v, 5.0]}},
    "matrices": schottky_matrices,
}


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, 10**400, True, "1.5"],
    ids=["nan", "infinity", "minus_infinity", "too_large", "boolean", "string"],
)
@pytest.mark.parametrize("field", sorted(REAL_FIELDS))
def test_real_field_rejects_anything_but_a_finite_number(tmp_path, field, value, capsys):
    cfg = write_config(tmp_path, REAL_FIELDS[field](value))
    code, _ = run(tmp_path, "scan", "--config", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and field in err


def test_integral_float_is_an_integer(tmp_path):
    cfg = write_config(tmp_path, {"counting": {"n_max": 5.0}})
    code, out = run(tmp_path, "count", "--config", cfg)
    assert code == 0
    with open(os.path.join(out, "count.json")) as fh:
        assert json.load(fh)["n_max"] == 5


def test_programming_error_in_a_stage_propagates(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(cli, "count_ball", broken)
    with pytest.raises(TypeError, match="injected"):
        run(tmp_path, "count")


def counted(monkeypatch, name, owner=cli):
    """The calls of the library function that owner (cli by default) binds
    to name, under every cannonlab module's binding of it."""
    original, calls = getattr(owner, name), []

    def counter(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("cannonlab") and (
            getattr(module, name, None) is original
        ):
            monkeypatch.setattr(module, name, counter)
    return calls


def test_report_builds_and_solves_each_shared_input_once(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path,
        {
            "group": {"family": "schottky", "traces": [3.0, 5.0]},
            "metrics": [{"kind": "word"}, {"kind": "fuchsian_orbit"}],
            "thermo": {"depth": 3},
            "counting": {"n_max": 6},
        },
    )
    names = ("build_group", "get_automaton", "growth_rate", "arithmeticity")
    calls = {name: counted(monkeypatch, name) for name in names}
    compiles = []
    init = thermo.TransferOperator.__init__
    monkeypatch.setattr(
        thermo.TransferOperator,
        "__init__",
        lambda self, *args, **kwargs: compiles.append(1) or init(self, *args, **kwargs),
    )
    # the acceptor of each derivation of an edge table, the components and
    # the word-maximal components
    derived = {"_edge_rows": [], "_components": [], "_word_maximal": []}

    def record(owner, name):
        build, seen = getattr(owner, name), derived[name]
        monkeypatch.setattr(owner, name, lambda aut: seen.append(aut) or build(aut))

    record(automaton.GeodesicAutomaton, "_edge_rows")
    record(shift, "_components")
    record(shift, "_word_maximal")
    code, _ = run(tmp_path, "report", "--config", cfg)
    assert code == 0
    assert {name: len(c) for name, c in calls.items()} == {
        "build_group": 1, "get_automaton": 1, "growth_rate": 2, "arithmeticity": 2,
    }
    # the operators of the two potentials, which serve their growth rates,
    # cross-checks and orbit sums, the Manhattan pair and the normalized
    # pair of the correlation exponent
    assert len(compiles) == 4
    (aut,) = derived["_edge_rows"]  # the run's one acceptor, its table built once
    assert derived == {"_edge_rows": [aut], "_components": [aut], "_word_maximal": [aut]}


def test_scan_compiles_its_operator_once(tmp_path, monkeypatch):
    # the growth rate and the scan share the run's operator of the potential
    cfg = write_config(tmp_path, {
        "group": {"family": "schottky", "traces": [3.0, 5.0]},
        "metrics": [{"kind": "fuchsian_orbit"}],
        "thermo": {"depth": 4},
        "scan": {"t_min": 0.5, "t_max": 6.0, "points": 5},
    })
    compiles = []
    init = thermo.TransferOperator.__init__
    monkeypatch.setattr(
        thermo.TransferOperator,
        "__init__",
        lambda self, *args, **kwargs: compiles.append(1) or init(self, *args, **kwargs),
    )
    code, _ = run(tmp_path, "scan", "--config", cfg)
    assert code == 0
    assert len(compiles) == 1


def test_resource_cap_exits_4(tmp_path):
    cfg = write_config(tmp_path, {"counting": {"n_max": 30, "eps": 0.5}})
    code, _ = run(tmp_path, "count", "--config", cfg)
    assert code == 4


def test_a_green_ball_past_the_cap_exits_4(tmp_path, capsys):
    # no absorbing_radius: the default 30 asks for a genus-2 ball of radius
    # 29, refused from the acceptor's counts before any sphere grows
    cfg = write_config(tmp_path, {
        "group": {"family": "surface", "genus": 2},
        "metrics": [{"kind": "green_numeric"}],
        "automaton": {"n_validate": 3},
    })
    code, _ = run(tmp_path, "growth", "--config", cfg)
    assert code == 4
    assert "radius 29 exceeds cap" in capsys.readouterr().err


def test_cli_flag_overrides_config(tmp_path, free_pair_cfg):
    code, out = run(
        tmp_path, "count", "--config", free_pair_cfg, "--nmax", "5"
    )
    assert code == 0
    with open(os.path.join(out, "count.json")) as fh:
        doc = json.load(fh)
    assert doc["n_max"] == 5
    assert doc["ball_size"] == 1 + sum(4 * 3 ** (n - 1) for n in range(1, 6))


def test_schottky_pipeline_smoke(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "group": {"family": "schottky", "traces": [3.0, 5.0]},
            "metrics": [{"kind": "fuchsian_orbit"}],
            "thermo": {"depth": 3},
            "counting": {"n_max": 6, "eps": 0.5},
        },
    )
    code, out = run(tmp_path, "analyze", "--config", cfg)
    assert code == 0
    with open(os.path.join(out, "analyze.json")) as fh:
        doc = json.load(fh)
    entry = doc["metrics"][0]
    assert entry["kind"] == "fuchsian_orbit"
    assert entry["arithmeticity"]["verdict"] == "non_arithmetic"
    assert 0.2 < entry["growth_rate"] < 0.5


def test_root_finder_failure_exits_5(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(thermo, "pressure_terms", lambda op, c, **kw: math.nan)
    code, _ = run(tmp_path, "growth")
    assert code == 5
    assert "numeric failure: root finder" in capsys.readouterr().err


GENUS2_GREEN = {
    "group": {"family": "surface", "genus": 2},
    "metrics": [{"kind": "green_numeric", "absorbing_radius": 5, "safety_margin": 1}],
    "automaton": {"n_validate": 3},
    "thermo": {"depth": 1},
    "counting": {"n_max": 3},
}


def test_green_numeric_reads_its_safety_margin(tmp_path):
    code, out = run(tmp_path, "report", "--config", write_config(tmp_path, GENUS2_GREEN))
    assert code == 0
    with open(os.path.join(out, "growth.json")) as fh:
        (rate,) = json.load(fh)["growth_rates"].values()
    assert abs(rate - 0.99834) < 1e-5


@pytest.mark.parametrize("margin", ["one", [1], None])
def test_non_integer_safety_margin_exits_2(tmp_path, margin, capsys):
    spec = {**GENUS2_GREEN["metrics"][0], "safety_margin": margin}
    cfg = write_config(tmp_path, {**GENUS2_GREEN, "metrics": [spec]})
    code, _ = run(tmp_path, "growth", "--config", cfg)
    assert code == 2
    assert "safety_margin" in capsys.readouterr().err


def test_import_loads_neither_scipy_stats_nor_scipy_optimize():
    """scipy.stats and scipy.optimize take most of the start-up time, and
    only the tests use them."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import cannonlab.cli, sys; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize'])))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "[]\n"
