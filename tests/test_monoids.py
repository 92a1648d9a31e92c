"""Closure-built families against brute-force references and formulas."""

import doctest

import pytest

import dimon.monoids as monoids
from dimon.iperm import compose, identity, inverse, named_generator
from dimon.monoids import (
    ClosureCapError,
    FiniteMonoid,
    MonoidFamily,
    build_named,
    cardinality_formula,
    closure,
    generating_maps,
    green_classes,
    rank_formula,
    right_cayley_dot,
    verify_generates,
)
from oracles import (
    all_partial_perms,
    o_family_elements,
    o_family_size,
    o_green,
    o_mutual_reachability,
    o_symmetries,
)

ALL_FAMILIES = (
    MonoidFamily.DI,
    MonoidFamily.ODI,
    MonoidFamily.MDI,
    MonoidFamily.OPDI,
    MonoidFamily.CI,
    MonoidFamily.OCI,
)

# closure sizes, cross-checked once against the brute-force oracle
KNOWN_SIZES = {
    MonoidFamily.ODI: {4: 44, 5: 104, 6: 204, 7: 424, 8: 818},
    MonoidFamily.MDI: {4: 71, 5: 182, 6: 371, 7: 798, 8: 1571},
    MonoidFamily.OPDI: {4: 77, 5: 206, 6: 451, 7: 1037, 8: 2233},
    MonoidFamily.OCI: {4: 38, 5: 84, 6: 178, 7: 368, 8: 750},
    MonoidFamily.CI: {4: 61, 5: 156, 6: 379, 7: 890, 8: 2041},
    MonoidFamily.DI: {4: 97, 5: 286, 6: 703, 7: 1730, 8: 3985},
}


def test_doctests():
    failed, _ = doctest.testmod(monoids)
    assert failed == 0


def test_family_parse():
    assert MonoidFamily.parse("ODI") is MonoidFamily.ODI
    assert MonoidFamily.parse("di") is MonoidFamily.DI
    assert MonoidFamily.parse("Cyclic") is MonoidFamily.CYCLIC_GROUP
    with pytest.raises(ValueError):
        MonoidFamily.parse("podi")


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("n", [4, 5])
def test_closure_matches_oracle_elements(family, n):
    m = build_named(family, n)
    assert {frozenset(f.pairs()) for f in m.elements} == o_family_elements(
        family.value, n
    )


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("n", [6, 7, 8])
def test_closure_sizes(family, n):
    assert build_named(family, n).size == KNOWN_SIZES[family][n]


def test_group_families():
    d = build_named(MonoidFamily.DIHEDRAL_GROUP, 5)
    assert d.size == 10
    assert all(f.is_total() for f in d.elements)
    c = build_named(MonoidFamily.CYCLIC_GROUP, 5)
    assert c.size == 5


def test_build_named_degree_bounds():
    assert build_named(MonoidFamily.OCI, 1).size == 2
    assert build_named(MonoidFamily.CI, 1).size == 2
    for family in (MonoidFamily.ODI, MonoidFamily.MDI, MonoidFamily.OPDI):
        with pytest.raises(ValueError):
            build_named(family, 3)
    with pytest.raises(ValueError):
        build_named(MonoidFamily.DI, 2)


@pytest.mark.parametrize("n", range(4, 9))
def test_cardinality_formulas(n):
    for family in (MonoidFamily.ODI, MonoidFamily.MDI, MonoidFamily.OCI):
        assert cardinality_formula(family, n) == o_family_size(family.value, n)
    with pytest.raises(ValueError):
        cardinality_formula(MonoidFamily.DI, n)


def test_rank_formula_values():
    assert [rank_formula(MonoidFamily.ODI, n) for n in range(4, 9)] == [6, 9, 10, 13, 14]
    assert [rank_formula(MonoidFamily.MDI, n) for n in range(4, 9)] == [5, 8, 8, 11, 11]
    assert [rank_formula(MonoidFamily.OPDI, n) for n in range(4, 9)] == [3, 4, 4, 5, 5]
    with pytest.raises(ValueError):
        rank_formula(MonoidFamily.DI, 4)
    with pytest.raises(ValueError):
        rank_formula(MonoidFamily.ODI, 3)


@pytest.mark.parametrize("family", [MonoidFamily.ODI, MonoidFamily.MDI, MonoidFamily.OPDI])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_standard_generating_sets(family, n):
    """The named generating maps generate, and there are rank many."""
    maps = generating_maps(family, n)
    assert len(maps) == rank_formula(family, n)
    m = build_named(family, n)
    assert verify_generates(m, [f for _, f in maps])


def test_verify_generates_rejects_subset():
    m = build_named(MonoidFamily.OPDI, 4)
    maps = dict(generating_maps(MonoidFamily.OPDI, 4))
    assert not verify_generates(m, [maps["g"], maps["e_1"]])


def test_verify_generates_rejects_map_outside():
    m = build_named(MonoidFamily.ODI, 5)
    maps = [f for _, f in generating_maps(MonoidFamily.ODI, 5)]
    assert verify_generates(m, maps)
    assert not verify_generates(m, maps + [named_generator("h", 5)])


def test_verify_generates_degree_mismatch():
    m = build_named(MonoidFamily.ODI, 5)
    with pytest.raises(ValueError):
        verify_generates(m, [named_generator("x", 4)])


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("n", [4, 5])
def test_family_predicate_matches_membership(family, n):
    """Every partial permutation is in the closure iff it satisfies the
    family's pointwise definition."""
    m = build_named(family, n)
    members = o_family_elements(family.value, n)
    for f in all_partial_perms(n):
        assert (f in m) == (frozenset(f.pairs()) in members)


def test_group_predicates_require_total():
    """The dihedral group holds the total symmetries and nothing else."""
    m = build_named(MonoidFamily.DIHEDRAL_GROUP, 4)
    assert named_generator("g", 4) in m
    assert named_generator("e_i", 4, 1) not in m
    symmetries = set(o_symmetries(4))
    for f in all_partial_perms(4):
        assert (f in m) == (frozenset(f.pairs()) in symmetries)


def test_closure_cap():
    gens = [f for _, f in generating_maps(MonoidFamily.DI, 6)]
    with pytest.raises(ClosureCapError):
        closure(6, gens, max_elements=10)


def test_closure_tables_are_consistent():
    m = build_named(MonoidFamily.ODI, 4)
    gens = [m.elements[k] for k in m.generators]
    for i, f in enumerate(m.elements):
        for k, s in enumerate(gens):
            assert m.elements[m.right_cayley[i][k]] == compose(f, s)
            assert m.elements[m.left_cayley[i][k]] == compose(s, f)
    assert m.elements[0] == identity(4)


def test_build_named_is_deterministic():
    a = build_named(MonoidFamily.MDI, 5)
    b = build_named(MonoidFamily.MDI, 5)
    assert a == b


def test_monoid_json_round_trip():
    m = build_named(MonoidFamily.OPDI, 4)
    d = m.to_json_dict()
    assert FiniteMonoid.from_json_dict(d) == m


def test_green_classes_di4():
    g = green_classes(build_named(MonoidFamily.DI, 4))
    assert g.counts() == {"r": 16, "l": 16, "h": 54, "d": 6}


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("n", [4, 5, 6])
def test_green_classes_match_oracle(family, n):
    m = build_named(family, n)
    g = green_classes(m)
    want = o_green([frozenset(f.pairs()) for f in m.elements])
    assert (g.r, g.l, g.h, g.d) == (want["r"], want["l"], want["h"], want["d"])


@pytest.mark.parametrize("gens", [[("x",)], [("x",), ("y_i", 1)]])
def test_green_classes_non_inverse(gens):
    """Not inverse, so no domain/image oracle: SCCs by brute force."""
    m = closure(5, [named_generator(name, 5, *i) for name, *i in gens])
    assert not all(inverse(f) in m for f in m.elements)
    g = green_classes(m)
    both = [a + b for a, b in zip(m.right_cayley, m.left_cayley)]
    assert g.r == o_mutual_reachability(m.right_cayley)
    assert g.l == o_mutual_reachability(m.left_cayley)
    assert g.d == o_mutual_reachability(both)


def test_green_classes_structure():
    m = build_named(MonoidFamily.DI, 4)
    g = green_classes(m)
    # H refines both R and L; D is coarser than both
    for i in range(m.size):
        for j in range(m.size):
            same_h = g.class_of("h", i) == g.class_of("h", j)
            same_r = g.class_of("r", i) == g.class_of("r", j)
            same_l = g.class_of("l", i) == g.class_of("l", j)
            same_d = g.class_of("d", i) == g.class_of("d", j)
            if same_h:
                assert same_r and same_l
            if same_r and same_l:
                assert same_h
            if same_r or same_l:
                assert same_d
    # the group of units is one H-class: 8 total maps in DI_4
    unit = g.class_of("h", m.index(identity(4)))
    assert len(g.class_members("h", unit)) == 8
    # D-related elements have equal rank (the converse fails: DI_4 has
    # six D-classes over five rank levels)
    assert len({g.class_of("d", i) for i in range(m.size)}) == 6
    for i in range(m.size):
        for j in range(m.size):
            if g.class_of("d", i) == g.class_of("d", j):
                assert m.elements[i].rank() == m.elements[j].rank()


def test_right_cayley_dot_smoke():
    m = build_named(MonoidFamily.OCI, 2)
    dot = right_cayley_dot(m)
    assert dot.startswith("digraph")
    assert dot.count("->") == m.size * len(m.generators)
