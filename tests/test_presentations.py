"""Relation families: counts, satisfaction, Tietze moves, forms words."""

import doctest
import hashlib
import itertools
import json
import random
import re
from array import array

import pytest

import dimon.presentations as presentations
from dimon.congruence import is_consequence
from dimon.iperm import compose, identity, named_generator
from dimon.monoids import MonoidFamily, build_named, generating_maps
from dimon.presentations import (
    Assignment,
    Presentation,
    Relation,
    RelationFamily,
    TARGET_MONOID,
    build_alphabet,
    build_assignment,
    build_forms,
    build_relations,
    check_relations_hold,
    delete_relation,
    eliminate_generator,
    evaluate,
    expected_relation_count,
    odi_elimination_chain,
    opdi_elimination_chain,
    w1_w2_words,
    wprime1_words,
)
from oracles import o_rotations, o_symmetries, tagged

ALL_RELATION_FAMILIES = tuple(RelationFamily)

# the printed expansion of the VbarPrime list, counted by hand: an
# independent check of the list, which the closed form must then match
VBARPRIME_LIST_COUNTS = {
    4: 32, 5: 67, 6: 77, 7: 126, 8: 141, 9: 204, 10: 224, 11: 301, 12: 326,
}


def test_doctests():
    failed, _ = doctest.testmod(presentations)
    assert failed == 0


def test_relation_family_parse():
    assert RelationFamily.parse("r") is RelationFamily.R
    assert RelationFamily.parse("VBARPRIME") is RelationFamily.VBAR_PRIME
    assert RelationFamily.parse("vbar_prime") is RelationFamily.VBAR_PRIME
    assert RelationFamily.parse("q-prime") is RelationFamily.Q_PRIME
    with pytest.raises(ValueError):
        RelationFamily.parse("W")


@pytest.mark.parametrize("n", [4, 5, 6, 9])
def test_alphabets(n):
    m = (n - 1) // 2
    q = (n + 1) // 2
    sizes = {
        RelationFamily.R: 2 + n + 2 * m,
        RelationFamily.U: 2 + n,
        RelationFamily.V: n + 2 * m,
        RelationFamily.VBAR: 1 + n + 2 * m,
        RelationFamily.VBAR_PRIME: 1 + q + 2 * m,
        RelationFamily.Q: 1 + n + m,
        RelationFamily.Q0: 1 + n,
        RelationFamily.Q_PRIME: 2 + m,
    }
    for family, want in sizes.items():
        letters = build_alphabet(family, n)
        assert len(letters) == want
        assert len(set(letters)) == want
    assert build_alphabet(RelationFamily.VBAR, n)[0] == "h"
    assert build_alphabet(RelationFamily.Q_PRIME, n)[0] == "g"
    # these four are written over the standard generating set of the
    # monoid they present, letter for letter and map for map
    for family in (
        RelationFamily.U,
        RelationFamily.V,
        RelationFamily.VBAR_PRIME,
        RelationFamily.Q_PRIME,
    ):
        want = generating_maps(TARGET_MONOID[family], n)
        assert build_assignment(family, n).images == want


def test_alphabet_degree_bound():
    with pytest.raises(ValueError):
        build_alphabet(RelationFamily.R, 3)
    with pytest.raises(ValueError):
        build_relations(RelationFamily.Q, 3)
    below = "relation families need n >= 4, got 3"
    with pytest.raises(ValueError, match=below):
        build_assignment(RelationFamily.U, 3)
    # the range is checked before a missing seed enumeration
    for family in (RelationFamily.R, RelationFamily.VBAR, RelationFamily.Q):
        with pytest.raises(ValueError, match=below):
            build_forms(family, 3)
    with pytest.raises(ValueError, match=below):
        expected_relation_count(RelationFamily.R, 3)


@pytest.mark.parametrize("n", range(4, 13))
def test_relation_counts_match_closed_forms(n):
    for family in ALL_RELATION_FAMILIES:
        assert len(build_relations(family, n).relations) == expected_relation_count(
            family, n
        ), family
    # the list as printed, which is what build_relations constructs
    assert (
        len(build_relations(RelationFamily.VBAR_PRIME, n).relations)
        == VBARPRIME_LIST_COUNTS[n]
    )
    # and the closed form counts that list
    assert (
        expected_relation_count(RelationFamily.VBAR_PRIME, n)
        == VBARPRIME_LIST_COUNTS[n]
    )


def test_relation_lists_are_pinned():
    # one sha256 over every family's label, letters and (lhs, rhs, tag)
    # per relation at n = 4..12: any change to a list's words, order or
    # tags changes it
    h = hashlib.sha256()
    for n in range(4, 13):
        for family in ALL_RELATION_FAMILIES:
            p = build_relations(family, n)
            rels = [[r.lhs, r.rhs, r.tag] for r in p.relations]
            h.update(json.dumps([p.label, p.letters, rels]).encode())
    assert h.hexdigest() == (
        "63d1b976883e6f96d68ef2c4c7c12814fd2711ea3eec668e337a5ca9b002768e"
    )


def test_relation_count_row_n4():
    row = {
        RelationFamily.R: 36,
        RelationFamily.V: 32,
        RelationFamily.VBAR: 38,
        RelationFamily.VBAR_PRIME: 32,
        RelationFamily.Q: 25,
        RelationFamily.Q_PRIME: 18,
        RelationFamily.U: 18,
        RelationFamily.Q0: 16,
    }
    for family, want in row.items():
        assert expected_relation_count(family, n=4) == want


@pytest.mark.parametrize("family", ALL_RELATION_FAMILIES)
@pytest.mark.parametrize("n", range(4, 9))
def test_relations_hold_under_generator_maps(family, n):
    p = build_relations(family, n)
    a = build_assignment(family, n)
    failing = check_relations_hold(p, a)
    assert not failing, [rel.tag for rel in failing]


def test_relation_tags():
    p = build_relations(RelationFamily.R, 5)
    assert all(rel.tag for rel in p.relations)
    assert tagged(p, "R_1")
    assert tagged(p, "R_11")
    assert all(rel.tag == "R_11" for rel in tagged(p, "R_11"))
    # prefix matching is exact on the family_index part
    assert not set(tagged(p, "R_1")) & set(tagged(p, "R_11"))
    q = build_relations(RelationFamily.Q_PRIME, 6)
    assert tagged(q, "Qp_6")
    assert tagged(q, "Qp_10")
    # R_4 commutes the e_i pairwise: C(4, 2) relations at n = 4
    assert len(tagged(build_relations(RelationFamily.R, 4), "R_4")) == 6


def test_presentation_validation():
    with pytest.raises(ValueError, match="^duplicate letter names$"):
        Presentation("p", ("a", "b", "a"), ())
    with pytest.raises(ValueError, match="^relation t: unknown letter 'c'$"):
        Presentation("p", ("a", "b"), (Relation(("a", "c"), ("b",), "t"),))
    # the first relation with an unknown letter is named, by its tag or,
    # untagged, by itself, and its first unknown letter, rhs after lhs
    ok = Relation(("a",), ("b",), "ok")
    untagged = Relation(("a",), ("b", "d", "c"))
    with pytest.raises(ValueError, match=r"^relation Relation\(lhs=\('a',\), .*: unknown letter 'd'$"):
        Presentation("p", ("a", "b"), (ok, untagged, Relation(("c",), (), "later")))
    p = Presentation("p", ("a", "b"), (Relation(("a", "b"), (), "t"),))
    assert p.letters == ("a", "b")
    # each word its length and then its letter ids, in int32 cells
    assert p.encode([("b", "a", "b")]) == array("i", [3, 1, 0, 1]).tobytes()
    assert p.encode([("a",), ()]) == array("i", [1, 0, 0]).tobytes()
    assert p.relation_ids == array("i", [2, 0, 1, 0]).tobytes()
    with pytest.raises(KeyError):
        p.encode([("a", "c")])


def test_presentation_json_round_trip():
    p = build_relations(RelationFamily.VBAR, 5)
    d = p.to_json_dict()
    assert Presentation.from_json_dict(d) == p
    assert d["letters"] == list(p.letters)


def test_assignment_access():
    a = build_assignment(RelationFamily.R, 4)
    assert a.image("x") == named_generator("x", 4)
    assert a.image("e_3") == named_generator("e_3", 4)
    assert a.image("x_1") == named_generator("x_1", 4)
    with pytest.raises(KeyError):
        a.image("g")
    assert set(a.names()) == {"x", "y", "e_1", "e_2", "e_3", "e_4", "x_1", "y_1"}


def test_assignment_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        Assignment(4, (("x", named_generator("x", 5)),))


def test_assignment_refuses_a_repeated_name():
    """A name has one image, as a letter of a Presentation is one letter."""
    g, h = named_generator("g", 4), named_generator("e_1", 4)
    with pytest.raises(ValueError, match="^duplicate letter names$"):
        Assignment(4, (("g", g), ("g", h)))
    with pytest.raises(ValueError, match="^duplicate letter names$"):
        Assignment(4, (("g", g), ("h", h), ("g", g)))
    assert Assignment(4, (("g", g), ("h", h))).names() == ("g", "h")


def test_evaluate_is_a_homomorphism():
    a = build_assignment(RelationFamily.Q, 5)
    names = a.names()
    rng = random.Random(3)
    assert evaluate((), a) == identity(5)
    for _ in range(300):
        w1 = tuple(rng.choice(names) for _ in range(rng.randrange(6)))
        w2 = tuple(rng.choice(names) for _ in range(rng.randrange(6)))
        assert evaluate(w1 + w2, a) == compose(evaluate(w1, a), evaluate(w2, a))


def test_check_relations_hold_reports_failures():
    p = build_relations(RelationFamily.R, 4)
    bogus = Relation(("x",), ("y",), "bogus")
    bad = Presentation(p.label, p.letters, p.relations + (bogus,))
    failing = check_relations_hold(bad, build_assignment(RelationFamily.R, 4))
    assert [rel.tag for rel in failing] == ["bogus"]
    with pytest.raises(ValueError):
        check_relations_hold(p, build_assignment(RelationFamily.Q, 4))


def test_eliminate_generator():
    p = build_relations(RelationFamily.R, 4)
    q = eliminate_generator(p, "e_4", ("x", "y"))
    assert q.label == "R(n=4)-e_4"
    assert "e_4" not in q.letters
    assert len(q.letters) == len(p.letters) - 1
    for rel in q.relations:
        assert "e_4" not in rel.lhs and "e_4" not in rel.rhs
    # relations that became trivial syntactic equalities are dropped
    assert len(q.relations) < len(p.relations)
    with pytest.raises(KeyError):
        eliminate_generator(p, "g", ("x",))
    with pytest.raises(ValueError):
        eliminate_generator(p, "e_4", ("x", "e_4"))
    with pytest.raises(ValueError, match="replacement letter 'g' not in the alphabet"):
        eliminate_generator(p, "e_4", ("g",))


def test_elimination_chains_shape():
    chain = odi_elimination_chain(4)
    assert len(chain) == 3
    assert chain[0] == build_relations(RelationFamily.R, 4)
    assert "e_4" not in chain[1].letters
    assert "e_1" not in chain[2].letters
    chain = opdi_elimination_chain(5)
    assert len(chain) == 5
    assert chain[0] == build_relations(RelationFamily.Q, 5)
    assert chain[-1].letters == ("g", "e_1", "x_1", "x_2")


def test_add_delete_relation_checked():
    p = build_relations(RelationFamily.U, 4)
    known = Relation(("x", "y"), ("e_4",), "known")
    wrong = Relation(("x",), ("y",), "wrong")
    assert is_consequence(p, known)
    assert not is_consequence(p, wrong)
    # deleting an added redundant relation is allowed
    bigger = Presentation(p.label, p.letters, p.relations + (known,))
    back = delete_relation(bigger, known)
    assert len(back.relations) == len(p.relations)
    # deleting an added relation that does not follow is refused
    bad = Presentation(p.label, p.letters, p.relations + (wrong,))
    with pytest.raises(ValueError):
        delete_relation(bad, wrong)
    # an absent relation, the sides of one swapped, or one with a letter
    # outside the alphabet is refused by a KeyError naming it
    for rel in (
        Relation(("x",), ("y",), "absent"),
        Relation(p.relations[0].rhs, p.relations[0].lhs),
        Relation(("x", "g"), ("x",), "alien"),
    ):
        with pytest.raises(KeyError, match=re.escape(f"{rel.lhs} = {rel.rhs} not present")):
            delete_relation(p, rel)


def test_is_consequence_names_a_letter_outside_the_alphabet():
    """A relation over letters p lacks is refused with ValueError naming
    the letter and p's alphabet, not a bare KeyError."""
    p = build_relations(RelationFamily.U, 4)
    for rel in (Relation(("x", "zz"), ("x",)), Relation(("x",), ("zz",))):
        with pytest.raises(ValueError, match=re.escape(
                f"has letter 'zz', not in {p.letters}")):
            is_consequence(p, rel)


def test_relation_ids_survive_deletion():
    """delete_relation hands on its parent's encoding minus one relation's
    cells; it equals the encoding of the smaller presentation built from
    scratch."""
    p = build_relations(RelationFamily.Q, 4)
    ids = {name: k for k, name in enumerate(p.letters)}
    cells = [cell for r in p.relations for w in (r.lhs, r.rhs)
             for cell in (len(w), *(ids[name] for name in w))]
    assert p.relation_ids == array("i", cells).tobytes()
    # each relation appended again, so that deleting its first copy, at
    # every position in turn, is a consequence of the copy left behind
    for rel in p.relations:
        twice = Presentation(p.label, p.letters, p.relations + (rel,))
        smaller = delete_relation(twice, rel)
        assert smaller.relations[-1] is rel and rel not in smaller.relations[:-1]
        fresh = Presentation(smaller.label, smaller.letters, smaller.relations)
        assert smaller.relation_ids == fresh.relation_ids


def test_wprime1_words_count_and_alphabet():
    for n in (4, 5, 6, 7):
        words = wprime1_words(n)
        assert len(words) == 1 + n * n
        assert len(set(words)) == 1 + n * n
        allowed = set(build_alphabet(RelationFamily.V, n))
        for w in words:
            assert set(w) <= allowed


@pytest.mark.parametrize("n", range(4, 11))
def test_w1_w2_count_formula(n):
    want = (n + 1) * n * (n - 1) // 6 - ((1 + (-1) ** n) * n * n) // 8
    assert len(w1_w2_words(n)) == want


@pytest.mark.parametrize("n", [4, 5, 6])
def test_w1_w2_images_characterized(n):
    """The extra form words land exactly on the order-preserving maps
    that extend to a reflection but to no rotation, each of rank 2."""
    a = build_assignment(RelationFamily.R, n)
    images = {evaluate(w, a) for w in w1_w2_words(n)}
    assert len(images) == len(w1_w2_words(n))
    odi = set(build_named(MonoidFamily.ODI, n).elements)
    oci = set(build_named(MonoidFamily.OCI, n).elements)
    assert images == odi - oci
    rotations = o_rotations(n)
    reflections = o_symmetries(n)[n:]
    for f in images:
        assert len(f.pairs()) == 2
        graph = frozenset(f.pairs())
        assert any(graph <= s for s in reflections)
        assert not any(graph <= s for s in rotations)


def test_build_forms_requires_enumeration():
    with pytest.raises(ValueError):
        build_forms(RelationFamily.R, 4)
    with pytest.raises(ValueError):
        build_forms(RelationFamily.U, 4)


@pytest.mark.parametrize("n", range(4, 9))
def test_q_forms_match_an_itertools_construction(n):
    """The Q forms in order: g^r e_S for r < n and S a proper subset of
    {1..n}, by size and then lexicographically; e_1...e_n; then
    g^r x_i g^s by i, r and s."""
    es = [f"e_{i}" for i in range(1, n + 1)]
    proper = [s for k in range(n) for s in itertools.combinations(es, k)]
    expected = [
        tuple(itertools.chain(itertools.repeat("g", r), s))
        for r, s in itertools.product(range(n), proper)
    ]
    expected.append(tuple(es))
    expected += [
        tuple(itertools.chain(itertools.repeat("g", r), [f"x_{i}"], itertools.repeat("g", s)))
        for i, r, s in itertools.product(range(1, (n - 1) // 2 + 1), range(n), range(n))
    ]
    fs = build_forms(RelationFamily.Q, n)
    assert fs.words == tuple(expected)
    assert fs.letters == build_alphabet(RelationFamily.Q, n)
    assert fs.label == f"Qforms(n={n})"


def test_q_forms_words():
    fs = build_forms(RelationFamily.Q, 4)
    assert len(fs.words) == 77
    assert len(set(fs.words)) == 77
    # one word per element: the full-identity word, the rotation powers,
    # truncated rotations, and the rank-two sporadics
    a = build_assignment(RelationFamily.Q, 4)
    images = {evaluate(w, a) for w in fs.words}
    assert len(images) == 77
