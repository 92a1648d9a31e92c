"""Command-line verbs, exit codes, and report schemas."""

import json
import os
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner

import dimon
from dimon import congruence, monoids, presentations
from dimon.cli import main
from dimon.monoids import MonoidFamily
from dimon.presentations import FORMS_SEED, RelationFamily, build_relations
from oracles import tagged, without


@pytest.fixture
def runner():
    return CliRunner()


def test_build(runner):
    res = runner.invoke(main, ["build", "--family", "odi", "--n", "5"])
    assert res.exit_code == 0
    assert "size 104" in res.output


def test_build_oci_degree_one(runner):
    res = runner.invoke(main, ["build", "--family", "oci", "--n", "1"])
    assert res.exit_code == 0
    assert "size 2" in res.output


def test_build_out_and_dot(runner, tmp_path):
    out = tmp_path / "m.json"
    dot = tmp_path / "m.dot"
    res = runner.invoke(
        main,
        ["build", "--family", "opdi", "--n", "4", "--out", str(out), "--dot", str(dot)],
    )
    assert res.exit_code == 0
    data = json.loads(out.read_text())
    assert len(data["elements"]) == 77
    assert dot.read_text().startswith("digraph")


@pytest.mark.parametrize("option", ["--out", "--dot"])
def test_build_unwritable_path_is_a_usage_error(runner, tmp_path, option):
    path = tmp_path / "missing" / "m.txt"
    res = runner.invoke(main, ["build", "--family", "odi", "--n", "4", option, str(path)])
    assert res.exit_code == 2
    assert f"Invalid value for '{option}'" in res.output
    assert "Traceback" not in res.output


def test_build_rejects_unknown_family(runner):
    res = runner.invoke(main, ["build", "--family", "nope", "--n", "4"])
    assert res.exit_code == 2


def test_verify_presentation_pass(runner):
    res = runner.invoke(main, ["verify-presentation", "--family", "R", "--n", "4"])
    assert res.exit_code == 0
    assert res.output.strip() == "PASS, reports 44 = 44"


def test_verify_presentation_json(runner):
    res = runner.invoke(
        main, ["verify-presentation", "--family", "Vbar", "--n", "4", "--json"]
    )
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["verdict"] == "PASS"
    assert data["classes"] == data["size"] == 71
    assert data["monoid"] == "mdi"
    r = congruence.enumerate_congruence(build_relations(RelationFamily.VBAR, 4))
    assert data["stats"] == r.stats


def test_forms_json_carries_the_counters(runner):
    """forms --json writes the counters of the presentation's enumeration,
    or of the seed enumeration when that was capped, and names the seed
    presentation (none for Q's explicit forms)."""
    for family, seed in (("Q", None), ("R", "U(n=4)")):
        res = runner.invoke(main, ["forms", "--family", family, "--n", "4", "--json"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        p = build_relations(RelationFamily.parse(family), 4)
        assert data["stats"] == congruence.enumerate_congruence(p).stats
        assert data["seed"] == seed
    res = runner.invoke(main, ["forms", "--family", "R", "--n", "4", "--json",
                               "--max-classes", "20"])
    assert res.exit_code == 3
    seed = congruence.enumerate_congruence(
        build_relations(RelationFamily.U, 4), congruence.EnumerationCaps(max_classes=20))
    data = json.loads(res.output)
    assert data["stats"] == seed.stats
    assert data["seed"] == "U(n=4)"


def test_verify_presentation_indeterminate(runner):
    res = runner.invoke(
        main,
        ["verify-presentation", "--family", "R", "--n", "5", "--max-classes", "20"],
    )
    assert res.exit_code == 3
    assert "INDETERMINATE" in res.output


def test_enumerate_file(runner, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(build_relations(RelationFamily.Q, 4).to_json_dict()))
    res = runner.invoke(main, ["enumerate", "--presentation", str(path)])
    assert res.exit_code == 0
    assert "complete, 77 classes" in res.output
    res = runner.invoke(
        main, ["enumerate", "--presentation", str(path), "--max-classes", "9", "--json"]
    )
    assert res.exit_code == 3
    data = json.loads(res.output)
    assert data["result"]["status"] == "capped"
    assert data["result"]["max_classes"] == 9


def test_json_names_the_backend(runner, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(build_relations(RelationFamily.Q, 4).to_json_dict()))
    for args in (
        ["verify-presentation", "--family", "R", "--n", "4"],
        ["enumerate", "--presentation", str(path)],
        ["forms", "--family", "Q", "--n", "4"],
        ["tietze", "--chain", "odi", "--n", "4"],
    ):
        res = runner.invoke(main, args + ["--json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["backend"] == congruence.BACKEND


@pytest.mark.parametrize("verb", ["verify-presentation", "enumerate", "forms", "tietze"])
def test_every_enumerating_verb_takes_both_budgets(runner, tmp_path, verb):
    """--help lists --max-classes and --max-steps with EnumerationCaps()'s
    defaults, and a run capped by --max-classes exits 3 with both
    counters against both caps on its one capped line (on each step's
    line for tietze)."""
    path = tmp_path / "q4.json"
    path.write_text(json.dumps(build_relations(RelationFamily.Q, 4).to_json_dict()))
    args = {"verify-presentation": ["--family", "R", "--n", "5"],
            "enumerate": ["--presentation", str(path)],
            "forms": ["--family", "Q", "--n", "4"],
            "tietze": ["--chain", "odi", "--n", "5"]}[verb]
    caps = congruence.EnumerationCaps()
    text = " ".join(runner.invoke(main, [verb, "--help"]).output.split())
    assert f"--max-classes INTEGER RANGE [default: {caps.max_classes};" in text
    assert f"--max-steps INTEGER RANGE [default: {caps.max_steps};" in text
    res = runner.invoke(main, [verb, *args, "--max-classes", "20"])
    assert res.exit_code == 3
    lines = res.output.splitlines()
    if verb == "tietze":
        assert lines.pop() == "INDETERMINATE, 3 of 3 presentations capped"
    else:
        assert len(lines) == 1
    report = re.compile(r"capped at 20 classes defined \(cap 20\) "
                        rf"after \d+ steps \(cap {caps.max_steps}\)$")
    assert all(report.search(line) for line in lines), res.output
    assert "None" not in res.output


def test_capped_forms_and_tietze_are_indeterminate(runner):
    # R and Vbar read their forms off a seed enumeration (of U, of V),
    # which the cap stops first, and the line names it
    for family, seed in (("R", "seed U(n=4): "), ("Vbar", "seed V(n=4): "), ("Q", "")):
        res = runner.invoke(main, ["forms", "--family", family, "--n", "4",
                                   "--max-classes", "20"])
        assert res.exit_code == 3, (family, res.output)
        assert res.output.startswith(f"INDETERMINATE, {seed}capped at 20 classes"), \
            res.output
    res = runner.invoke(main, ["forms", "--family", "R", "--n", "4", "--json",
                               "--max-classes", "20"])
    assert res.exit_code == 3
    data = json.loads(res.output)
    assert data["verdict"] == "INDETERMINATE" and data["forms"] is None
    assert data["seed"] == "U(n=4)"
    res = runner.invoke(main, ["tietze", "--chain", "odi", "--n", "4", "--json",
                               "--max-classes", "20"])
    assert res.exit_code == 3
    assert json.loads(res.output)["verdict"] == "INDETERMINATE"


def test_check_relations(runner):
    res = runner.invoke(main, ["check-relations", "--family", "Q", "--n", "6"])
    assert res.exit_code == 0
    assert "all 55 relations hold" in res.output
    res = runner.invoke(main, ["check-relations", "--family", "VbarPrime", "--n", "8", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["all_hold"] is True


def test_forms(runner):
    for family, count in (("R", 44), ("Vbar", 71), ("Q", 77)):
        res = runner.invoke(main, ["forms", "--family", family, "--n", "4"])
        assert res.exit_code == 0
        assert f"PASS, {count} forms" in res.output
    for n in ("2", "4", "5"):
        res = runner.invoke(main, ["forms", "--family", "U", "--n", n])
        assert res.exit_code == 2
        assert "'--family'" in res.output and "no forms construction" in res.output


def test_tietze(runner):
    res = runner.invoke(main, ["tietze", "--chain", "odi", "--n", "4"])
    assert res.exit_code == 0
    assert "PASS, class count preserved at 44" in res.output
    res = runner.invoke(main, ["tietze", "--chain", "opdi", "--n", "4", "--json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["verdict"] == "PASS"
    assert [step["classes"] for step in data["steps"]] == [77, 77, 77, 77]
    assert [step["letters"] for step in data["steps"]] == [6, 5, 4, 3]


def test_tietze_json_carries_each_steps_counters(runner):
    """Each row of tietze --json writes the counters of its step's
    enumeration, for a capped step too."""
    family, build_chain = presentations.ELIMINATION_CHAINS["opdi"]
    for budget, caps in (([], None), (["--max-classes", "20"],
                                      congruence.EnumerationCaps(max_classes=20))):
        res = runner.invoke(main, ["tietze", "--chain", "opdi", "--n", "4", "--json",
                                   *budget])
        assert res.exit_code == (3 if caps else 0)
        rows = json.loads(res.output)["steps"]
        expected = [congruence.enumerate_congruence(p, caps).stats for p in build_chain(4)]
        assert [row["stats"] for row in rows] == expected


def wrong_substitution(n):
    p = presentations.build_relations(RelationFamily.R, n)
    # e_n is x y; y x is e_1
    return (p, presentations.eliminate_generator(p, f"e_{n}", ("y", "x")))


def relation_dropped(n):
    p = presentations.build_relations(RelationFamily.R, n)
    return (p, without(p, p.relations.index(tagged(p, "R_11")[0])))


# the tags of the 9 relations of R(4) that fail once e_4 := y x, each once
WRONG_SUBSTITUTION_TAGS = "R_2, R_5[i=3], R_6[i=1], R_8[i=1,j=4], R_10[i=1], R_11"


@pytest.mark.parametrize("verb, broken, line", [
    ("verify-presentation", wrong_substitution,
     f"FAIL, relations do not hold: {WRONG_SUBSTITUTION_TAGS}"),
    ("verify-presentation", relation_dropped, "FAIL, reports 45 != 44"),
    ("forms", relation_dropped,
     "FAIL: forms do not cover every class; "
     "classes do not map onto the monoid's elements"),
], ids=["relations fail", "more classes", "forms"])
def test_fail_report_says_why(runner, monkeypatch, verb, broken, line):
    """A broken R(4) in place of the built one: each FAIL line says what
    failed.  Only R is replaced, so forms reads its forms off the U seed
    as built."""
    build = presentations.build_relations
    p = broken(4)[1]
    monkeypatch.setattr(presentations, "build_relations",
                        lambda family, n: p if family is RelationFamily.R
                        else build(family, n))
    res = runner.invoke(main, [verb, "--family", "R", "--n", "4"])
    assert res.exit_code == 1, res.output
    assert res.output == line + "\n"


def test_tietze_checks_every_step_against_the_monoid(runner, monkeypatch):
    """A step whose relations fail under the family's assignment fails the
    chain, and so does one whose classes outnumber the monoid; the step's
    own line says which, listing each failing tag once."""
    for build_chain, step in (
        (wrong_substitution, "R(n=4)-e_4: 7 letters, relations do not hold: "
                             + WRONG_SUBSTITUTION_TAGS),
        (relation_dropped, "R(n=4): 8 letters, 45 classes"),
    ):
        monkeypatch.setitem(presentations.ELIMINATION_CHAINS, "odi",
                            (RelationFamily.R, build_chain))
        res = runner.invoke(main, ["tietze", "--chain", "odi", "--n", "4"])
        assert res.exit_code == 1, res.output
        assert res.output.splitlines() == [
            "R(n=4): 8 letters, 44 classes", step, "FAIL, 1 of 2 presentations fail"]


def test_failing_relations_list_each_tag_once(runner, monkeypatch):
    """A chain of equalities gives several relations one tag: the verdict
    and check-relations list the tag once, and check-relations still
    counts every failing relation."""
    p = wrong_substitution(4)[1]
    a = presentations.build_assignment(RelationFamily.R, 4)
    assert len(presentations.check_relations_hold(p, a)) == 9
    v = congruence.verify_presentation(p, a, monoids.build_named(MonoidFamily.ODI, 4))
    assert ", ".join(v.failing_tags) == WRONG_SUBSTITUTION_TAGS
    monkeypatch.setattr(presentations, "build_relations", lambda family, n: p)
    res = runner.invoke(main, ["check-relations", "--family", "R", "--n", "4"])
    assert res.exit_code == 1, res.output
    assert res.output == f"{p.label}: 9 relations fail: {WRONG_SUBSTITUTION_TAGS}\n"


def test_tietze_fails_when_one_step_fails_and_another_caps(runner, monkeypatch):
    """A FAIL outweighs a capped step: the chain FAILs, and no step's
    missing class count is printed."""
    monkeypatch.setitem(presentations.ELIMINATION_CHAINS, "odi",
                        (RelationFamily.R, relation_dropped))
    res = runner.invoke(main, ["tietze", "--chain", "odi", "--n", "4",
                               "--max-classes", "520"])
    assert res.exit_code == 1, res.output
    capped, counted, verdict = res.output.splitlines()
    assert capped.startswith("R(n=4): 8 letters, capped at ")
    assert counted == "R(n=4): 8 letters, 45 classes"
    assert verdict == "FAIL, 1 of 2 presentations fail"
    assert "None" not in res.output


def test_green(runner):
    res = runner.invoke(main, ["green", "--family", "di", "--n", "4", "--json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data == {
        "verb": "green", "family": "di", "n": 4, "size": 97,
        "r_classes": 16, "l_classes": 16, "h_classes": 54, "d_classes": 6,
    }


def test_formulas_single_row(runner):
    res = runner.invoke(main, ["formulas", "--n-range", "4..4"])
    assert res.exit_code == 0
    row = res.output.splitlines()[0]
    for piece in ("|R|=36", "|V|=32", "|Vbar|=38", "|VbarPrime|=32",
                  "|Q|=25", "|QPrime|=18", "|U|=18", "|Q0|=16",
                  "|ODI|=44", "|MDI|=71", "|OCI|=38"):
        assert piece in row
    assert "cross-checks ok" in res.output


def test_formulas_range_json(runner):
    res = runner.invoke(main, ["formulas", "--n-range", "4..6", "--json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["verdict"] == "PASS"
    assert [row["n"] for row in data["rows"]] == [4, 5, 6]
    assert data["rows"][1]["cardinalities"]["mdi"] == {
        "formula": 182, "built": 182, "ok": True,
    }
    assert data["rows"][0]["relation_counts"]["VbarPrime"] == 32


# the relation family's range refuses these, and the message names it:
# the targets OCI and CI build at n = 3, and ODI and OPDI would refuse
# n = 2 and n = 3 themselves
RELATION_RANGE_CASES = (
    ["check-relations", "--family", "U", "--n", "3"],
    ["verify-presentation", "--family", "Q0", "--n", "3"],
    ["verify-presentation", "--family", "R", "--n", "2"],
    ["forms", "--family", "R", "--n", "2"],
    ["tietze", "--chain", "opdi", "--n", "3"],
)


@pytest.mark.parametrize("args", [
    *RELATION_RANGE_CASES,
    ["verify-presentation", "--family", "R", "--n", "3"],
    ["build", "--family", "odi", "--n", "2"],
    ["formulas", "--n-range", "2..3"],
    ["check-relations", "--family", "Q", "--n", "1"],
    ["forms", "--family", "Q", "--n", "2"],
    ["green", "--family", "di", "--n", "2"],
    ["build", "--family", "oci", "--n", "256"],
    ["green", "--family", "oci", "--n", "256"],
    ["formulas", "--n-range", "256..256"],
    ["formulas", "--n-range", "abc"],
    ["formulas", "--n-range", "6..4"],
    ["check-relations", "--family", "R", "--n", "256"],
    ["verify-presentation", "--family", "R", "--n", "4", "--max-classes", "0"],
    ["verify-presentation", "--family", "R", "--n", "4", "--max-classes", str(2**30 + 1)],
    ["verify-presentation", "--family", "R", "--n", "4", "--max-steps", str(2**63)],
], ids=lambda args: " ".join(args[:1] + args[2:]))
def test_out_of_range_input_is_a_usage_error(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert "Invalid value for '--" in res.output
    assert "Traceback" not in res.output
    if args in RELATION_RANGE_CASES:
        assert f"relation families need n >= 4, got {args[-1]}" in res.output


ACCEPTED_FAMILIES = {
    "build": MonoidFamily,
    "green": MonoidFamily,
    "verify-presentation": RelationFamily,
    "check-relations": RelationFamily,
    "forms": FORMS_SEED,
}


@pytest.mark.parametrize("verb", ACCEPTED_FAMILIES)
def test_family_help_names_every_accepted_value(runner, verb):
    text = " ".join(runner.invoke(main, [verb, "--help"]).output.split())
    listed = re.search(r"--family TEXT [^(]*\(([^)]*)\)", text)[1].split(", ")
    assert sorted(listed) == sorted(f.value for f in ACCEPTED_FAMILIES[verb])


@pytest.mark.parametrize("args, per_element", [
    pytest.param(args, per_element, id=args[0]) for args, per_element in [
        (["build", "--family", "odi", "--n", "4"], 79),
        (["verify-presentation", "--family", "R", "--n", "4"], 79),
        (["forms", "--family", "Q", "--n", "4"], 55),
        (["tietze", "--chain", "odi", "--n", "4"], 79),
        (["green", "--family", "di", "--n", "4"], 55),
        (["formulas", "--n-range", "4..4"], 79),
    ]
])
def test_closure_cap_is_indeterminate(runner, monkeypatch, args, per_element):
    """With a budget of 10 elements of the bytes each verb's first
    closure holds an element (ODI(4) 79, DI(4) and OPDI(4) 55), that
    closure caps and the verb is INDETERMINATE."""
    budget = 10 * per_element
    monkeypatch.setattr(monoids, "CLOSURE_BYTES", budget)
    res = runner.invoke(main, args)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == (f"INDETERMINATE, closure exceeded cap of 10 elements "
                          f"({budget} bytes at {per_element} bytes an element)\n")


@pytest.mark.parametrize("kernel_call, args", [
    ("close", ["build", "--family", "odi", "--n", "4"]),
    ("close", ["green", "--family", "di", "--n", "4"]),
    ("close", ["formulas", "--n-range", "4..4"]),
    ("close", ["verify-presentation", "--family", "R", "--n", "4"]),
    ("run", ["verify-presentation", "--family", "R", "--n", "4"]),
    ("run", ["enumerate", "--presentation", "q4.json"]),
    ("run", ["forms", "--family", "R", "--n", "4"]),
    ("run", ["forms", "--family", "Q", "--n", "4"]),
    ("run", ["tietze", "--chain", "odi", "--n", "4"]),
], ids=lambda arg: arg if isinstance(arg, str) else " ".join(arg[:1] + arg[2:3]))
def test_kernel_out_of_memory_is_indeterminate(runner, monkeypatch, kernel_call, args):
    """A kernel's MemoryError ends the verb INDETERMINATE on one line of
    standard error, with no traceback."""
    def out_of_memory(*args):
        raise MemoryError

    with runner.isolated_filesystem():
        with open("q4.json", "w") as fh:
            json.dump(build_relations(RelationFamily.Q, 4).to_json_dict(), fh)
        monkeypatch.setattr(monoids._kernel, kernel_call, out_of_memory)
        res = runner.invoke(main, args)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == "INDETERMINATE, out of memory before the run finished\n"
    assert res.exception is None or isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("args", [
    ["verify-presentation", "--family", "R", "--n", "256"],
    ["verify-presentation", "--family", "Q", "--n", "256"],
    ["forms", "--family", "R", "--n", "256"],
    ["forms", "--family", "Vbar", "--n", "256"],
    ["tietze", "--chain", "odi", "--n", "256"],
    ["tietze", "--chain", "opdi", "--n", "256"],
    ["check-relations", "--family", "R", "--n", "256"],
], ids=lambda args: " ".join(args[:1] + args[2:3]))
def test_degree_is_checked_before_anything_large_is_built(runner, monkeypatch, args):
    def refuse(*args):
        raise AssertionError("built before the degree was checked")

    monkeypatch.setattr(presentations, "build_relations", refuse)
    for chain, (family, _) in presentations.ELIMINATION_CHAINS.items():
        monkeypatch.setitem(presentations.ELIMINATION_CHAINS, chain, (family, refuse))
    monkeypatch.setattr(congruence, "enumerate_congruence", refuse)
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert "degree 256 above 255" in res.output


@pytest.mark.parametrize("text", [
    '{"label": "p", "letters": ["a"], "relations": [{"lhs": ["a", "b"], "rhs": []}]}',
    '{"letters": ["a"], "relations": []}',
    '{"label": "p", "letters": ["a"],',
    '[]',
    '{"label": "p", "letters": "ab", "relations": [{"lhs": "aa", "rhs": ["a"]}]}',
    '{"label": "p", "letters": ["a", "b"], "relations": [{"lhs": "aa", "rhs": ["a"]}]}',
    '{"label": "p", "letters": [1, 2], "relations": []}',
    '{"label": 7, "letters": ["a"], "relations": []}',
    '{"label": "p", "letters": ["a"], "relations": [{"lhs": ["a"], "rhs": [], "tag": 1}]}',
    '{"label": "p", "letters": ["a"], "relations": ""}',
], ids=["unknown-letter", "missing-key", "not-json", "not-an-object", "string-alphabet",
        "string-word", "integer-letters", "integer-label", "integer-tag",
        "string-relations"])
def test_enumerate_malformed_file_is_a_usage_error(runner, tmp_path, text):
    path = tmp_path / "p.json"
    path.write_text(text)
    res = runner.invoke(main, ["enumerate", "--presentation", str(path)])
    assert res.exit_code == 2
    assert "Invalid value for '--presentation': malformed presentation" in res.output
    assert "Traceback" not in res.output


def test_import_loads_neither_numpy_nor_scipy():
    src = os.path.dirname(os.path.dirname(dimon.__file__))
    code = (
        "import sys, dimon, dimon.cli; "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
