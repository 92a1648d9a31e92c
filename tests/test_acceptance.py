"""Acceptance checks, one test per criterion.

Each test runs one end-to-end claim at its stated scale, with the
stated time budget where one applies, so the -v report reads as one
pass/fail line per criterion.

Criterion 2 is split in two.  All eight relation-count closed forms
match the built relation lists exactly for every degree checked.  The
VbarPrime sub-test checks that family on its own: its list is the one
enumeration proves correct (it presents the monotone family: 71
classes at n = 4), and its closed form must count that list, so a
failure message breaks the list down per clause.
"""

import time
from collections import Counter

import pytest

from dimon.congruence import (
    Verdict,
    enumerate_congruence,
    is_consequence,
    verify_forms_set,
    verify_presentation,
)
from dimon.iperm import compose, identity, named_generator
from dimon.monoids import (
    MonoidFamily,
    build_named,
    cardinality_formula,
    generating_maps,
    rank_formula,
    verify_generates,
)
from dimon.presentations import (
    Presentation,
    Relation,
    RelationFamily,
    build_assignment,
    build_forms,
    build_relations,
    check_relations_hold,
    expected_relation_count,
    odi_elimination_chain,
    opdi_elimination_chain,
    w1_w2_words,
)
from oracles import o_monotone, o_order_preserving, o_orientation_preserving, tagged

THEOREMS = (
    (RelationFamily.R, MonoidFamily.ODI),
    (RelationFamily.V, MonoidFamily.ODI),
    (RelationFamily.VBAR, MonoidFamily.MDI),
    (RelationFamily.VBAR_PRIME, MonoidFamily.MDI),
    (RelationFamily.Q, MonoidFamily.OPDI),
    (RelationFamily.Q_PRIME, MonoidFamily.OPDI),
)

EXPECTED_SIZES = {
    (MonoidFamily.ODI, 4): 44, (MonoidFamily.ODI, 5): 104, (MonoidFamily.ODI, 6): 204,
    (MonoidFamily.MDI, 4): 71, (MonoidFamily.MDI, 5): 182, (MonoidFamily.MDI, 6): 371,
    (MonoidFamily.OPDI, 4): 77, (MonoidFamily.OPDI, 5): 206, (MonoidFamily.OPDI, 6): 451,
}


def _power(f, k):
    acc = identity(f.degree)
    for _ in range(k):
        acc = compose(acc, f)
    return acc


def test_criterion_1_cardinality_formulas():
    start = time.monotonic()
    for n in range(4, 9):
        for family in (MonoidFamily.ODI, MonoidFamily.MDI, MonoidFamily.OCI):
            built = build_named(family, n).size
            formula = cardinality_formula(family, n)
            assert built == formula, (family, n, built, formula)
    assert cardinality_formula(MonoidFamily.ODI, 4) == 44
    assert cardinality_formula(MonoidFamily.MDI, 4) == 71
    assert cardinality_formula(MonoidFamily.MDI, 5) == 182
    assert cardinality_formula(MonoidFamily.OCI, 4) == 38
    assert time.monotonic() - start < 10


def test_criterion_2_relation_count_formulas():
    start = time.monotonic()
    for n in range(4, 13):
        for family in RelationFamily:
            built = len(build_relations(family, n).relations)
            assert built == expected_relation_count(family, n), (family, n, built)
    n4 = {family: expected_relation_count(family, 4) for family in RelationFamily}
    assert [n4[f] for f in (
        RelationFamily.R, RelationFamily.V, RelationFamily.VBAR,
        RelationFamily.VBAR_PRIME, RelationFamily.Q, RelationFamily.Q_PRIME,
        RelationFamily.U, RelationFamily.Q0,
    )] == [36, 32, 38, 32, 25, 18, 18, 16]
    assert time.monotonic() - start < 1


def test_criterion_2_vbarprime_count_formula():
    """The VbarPrime closed form counts the VbarPrime list.

    The list is the correct object (its enumeration returns the
    monotone family's sizes, 71/182/371 at n = 4/5/6, checked in
    criterion 4), so the count must follow it.  On a mismatch the
    message lists how many relations the built list carries under each
    clause's tag.
    """
    mismatches = []
    for n in range(4, 13):
        relations = build_relations(RelationFamily.VBAR_PRIME, n).relations
        built = len(relations)
        formula = expected_relation_count(RelationFamily.VBAR_PRIME, n)
        if built != formula:
            tags = Counter(r.tag.partition("[")[0] for r in relations)
            mismatches.append((n, built, formula, dict(tags)))
    assert not mismatches, (
        "VbarPrime relation list and closed form disagree "
        "(n, list, formula, {clause: relations in the list}): "
        f"{mismatches}"
    )


def test_criterion_3_relations_hold():
    start = time.monotonic()
    for n in range(4, 9):
        for family in RelationFamily:
            failing = check_relations_hold(
                build_relations(family, n), build_assignment(family, n)
            )
            assert not failing, (family, n, [r.tag for r in failing])
    assert time.monotonic() - start < 30


def test_criterion_4_presentation_theorems():
    start = time.monotonic()
    for n in (4, 5, 6):
        for family, target in THEOREMS:
            m = build_named(target, n)
            assert m.size == EXPECTED_SIZES[(target, n)]
            v = verify_presentation(
                build_relations(family, n), build_assignment(family, n), m
            )
            assert v.verdict is Verdict.PASS, (family, n, v)
            assert v.class_count == EXPECTED_SIZES[(target, n)]
    assert time.monotonic() - start < 300


def test_criterion_5_tietze_chains():
    # every step presents the target under the family's own assignment
    for n in (4, 5):
        for build_chain, family, target in (
            (odi_elimination_chain, RelationFamily.R, MonoidFamily.ODI),
            (opdi_elimination_chain, RelationFamily.Q, MonoidFamily.OPDI),
        ):
            m = build_named(target, n)
            a = build_assignment(family, n)
            for p in build_chain(n):
                v = verify_presentation(p, a, m)
                assert v.verdict is Verdict.PASS, (p.label, v)
                assert v.class_count == m.size, (p.label, v)
    # Vbar is V with the reflection letter h adjoined: V's relations,
    # h h = 1, one h a = w h for letters a of V, and u h = v to close
    for n in range(4, 9):
        v = build_relations(RelationFamily.V, n)
        vbar = build_relations(RelationFamily.VBAR, n)
        base = set(v.letters)
        k = len(v.relations)
        assert vbar.letters == ("h",) + v.letters, n
        assert vbar.relations[:k] == v.relations, n
        assert vbar.relations[k] == Relation(("h", "h"), (), "Vbar_0"), n
        conj = tagged(vbar, "Vbar_1")
        (close,) = tagged(vbar, "Vbar_2")
        assert vbar.relations[k + 1:] == conj + (close,), n
        for rel in conj:
            assert len(rel.lhs) == 2 and rel.lhs[0] == "h" and rel.lhs[1] in base, rel
            assert rel.rhs[-1] == "h" and set(rel.rhs[:-1]) <= base, rel
        assert close.lhs[-1] == "h" and set(close.lhs[:-1] + close.rhs) <= base, close


def test_criterion_6_forms_sets():
    for n in (4, 5):
        w = build_forms(
            RelationFamily.R, n,
            enumerate_congruence(build_relations(RelationFamily.U, n)),
        )
        v = verify_forms_set(
            build_relations(RelationFamily.R, n), w,
            build_assignment(RelationFamily.R, n),
            build_named(MonoidFamily.ODI, n),
        )
        assert v.verdict is Verdict.PASS, (n, v.problems)

        wbar = build_forms(
            RelationFamily.VBAR, n,
            enumerate_congruence(build_relations(RelationFamily.V, n)),
        )
        v = verify_forms_set(
            build_relations(RelationFamily.VBAR, n), wbar,
            build_assignment(RelationFamily.VBAR, n),
            build_named(MonoidFamily.MDI, n),
        )
        assert v.verdict is Verdict.PASS, (n, v.problems)

        qf = build_forms(RelationFamily.Q, n)
        v = verify_forms_set(
            build_relations(RelationFamily.Q, n), qf,
            build_assignment(RelationFamily.Q, n),
            build_named(MonoidFamily.OPDI, n),
        )
        assert v.verdict is Verdict.PASS, (n, v.problems)
    for n in range(4, 11):
        want = (n + 1) * n * (n - 1) // 6 - ((1 + (-1) ** n) * n * n) // 8
        assert len(w1_w2_words(n)) == want, n


def test_criterion_7_consequence_suite():
    start = time.monotonic()
    for n in (4, 5):
        u = build_relations(RelationFamily.U, n)
        for j in range(1, n + 1):
            for i in range(1, j + 1):
                assert is_consequence(u, Relation(("x",) * j + (f"e_{i}",), ("x",) * j, ""))
                assert is_consequence(u, Relation((f"e_{i}",) + ("y",) * j, ("y",) * j, ""))

        q = build_relations(RelationFamily.Q, n)
        shifts_only = Presentation("shifts", q.letters, tagged(q, "Q_4"))
        for i in range(1, n + 1):
            for m in range(1, n):
                j = (i + m - 1) % n + 1
                rel = Relation((f"e_{i}",) + ("g",) * m, ("g",) * m + (f"e_{j}",), "")
                assert is_consequence(q, rel)
                assert is_consequence(shifts_only, rel)

        r = build_relations(RelationFamily.R, n)
        bottom = tuple(f"e_{k}" for k in range(2, n + 1))
        m_idx = (n - 1) // 2
        for i in range(1, m_idx + 1):
            for j in range(1, m_idx + 1):
                assert is_consequence(r, Relation((f"x_{i}", f"x_{j}"), bottom, ""))
                assert is_consequence(r, Relation((f"y_{i}", f"y_{j}"), bottom, ""))
                if i != j:
                    assert is_consequence(r, Relation((f"x_{i}", f"y_{j}"), bottom, ""))
                    assert is_consequence(r, Relation((f"y_{j}", f"x_{i}"), bottom, ""))

    # letters h, x, y with h^2 = 1 and hx = yh presents an infinite
    # monoid, yet hy = xh still falls out
    two = Presentation(
        "two-relations",
        ("h", "x", "y"),
        (Relation(("h", "h"), (), "inv"), Relation(("h", "x"), ("y", "h"), "conj")),
    )
    assert is_consequence(two, Relation(("h", "y"), ("x", "h"), ""))
    assert time.monotonic() - start < 60


def test_criterion_8_structural_properties():
    # partial identities are rotation conjugates of the last one
    for n in range(2, 9):
        g = named_generator("g", n)
        e_n = named_generator(f"e_{n}", n)
        for i in range(1, n + 1):
            rhs = compose(compose(_power(g, n - i), e_n), _power(g, i))
            assert named_generator(f"e_{i}", n) == rhs, (n, i)
    # reflection conjugation displays as exact transformations
    for n in range(3, 9):
        h = named_generator("h", n)
        x = named_generator("x", n)
        y = named_generator("y", n)
        for i in range(1, (n - 1) // 2 + 1):
            x_i = named_generator(f"x_{i}", n)
            y_i = named_generator(f"y_{i}", n)
            assert compose(compose(h, x_i), h) == compose(
                compose(_power(y, n - i - 1), x_i), _power(x, i - 1)
            )
            assert compose(compose(h, y_i), h) == compose(
                compose(_power(y, i - 1), y_i), _power(x, n - i - 1)
            )
    # submonoid = ambient + order predicate, exhaustively
    for n in (4, 5, 6):
        def graphs(family):
            return {frozenset(f.pairs()) for f in build_named(family, n).elements}

        di = graphs(MonoidFamily.DI)
        ci = graphs(MonoidFamily.CI)
        assert ci <= di
        assert graphs(MonoidFamily.ODI) == {f for f in di if o_order_preserving(f)}
        assert graphs(MonoidFamily.MDI) == {f for f in di if o_monotone(f)}
        assert graphs(MonoidFamily.OPDI) == {
            f for f in di if o_orientation_preserving(f)
        }
        assert graphs(MonoidFamily.OCI) == {f for f in ci if o_order_preserving(f)}
    # standard generating sets generate, with exactly rank many members
    for n in range(4, 8):
        for family in (MonoidFamily.ODI, MonoidFamily.MDI, MonoidFamily.OPDI):
            maps = generating_maps(family, n)
            assert len(maps) == rank_formula(family, n)
            assert verify_generates(build_named(family, n), [f for _, f in maps])
