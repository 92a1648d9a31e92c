"""Partial permutation arithmetic against brute-force references."""

import doctest
import itertools
import random

import pytest
from hypothesis import given, strategies as st

import dimon.iperm as iperm
from dimon.iperm import (
    PartialPerm,
    compose,
    identity,
    inverse,
    named_generator,
)
from oracles import (
    all_partial_perms,
    o_compose,
    o_order_preserving,
    o_orientation_preserving,
)


# the nowhere-defined map of degree 4, the zero of every monoid here
EMPTY4 = PartialPerm(bytes(5))


def graph(f):
    return frozenset(f.pairs())


def partial_identity(n, points):
    """The identity map restricted to a set of points."""
    return PartialPerm.from_pairs(n, ((p, p) for p in set(points)))


def test_doctests():
    failed, _ = doctest.testmod(iperm)
    assert failed == 0


def test_canonical_form_equality():
    a = PartialPerm.from_pairs(4, [(2, 4), (1, 1)])
    b = PartialPerm.from_pairs(4, [(1, 1), (2, 4)])
    assert a == b
    assert a.pairs() == ((1, 1), (2, 4))
    assert hash(a) == hash(b)
    assert a.key == bytes((0, 1, 4, 0, 0))
    # the key's length carries the degree
    assert PartialPerm.from_pairs(4, []) != PartialPerm.from_pairs(5, [])


def test_construction_rejects_bad_maps():
    with pytest.raises(ValueError):
        PartialPerm.from_pairs(4, [(1, 5)])
    with pytest.raises(ValueError):
        PartialPerm.from_pairs(4, [(5, 1)])
    with pytest.raises(ValueError):
        PartialPerm.from_pairs(4, [(1, 2), (3, 2)])
    with pytest.raises(ValueError):
        PartialPerm.from_pairs(4, [(1, 2), (1, 3)])
    # an image outside 1..degree is refused by its point, 0 included
    with pytest.raises(ValueError, match="image point 0 of 1"):
        PartialPerm.from_pairs(4, [(1, 0), (1, 3)])
    with pytest.raises(ValueError, match="image point 256 of 1"):
        PartialPerm.from_pairs(4, [(1, 256)])
    with pytest.raises(ValueError):
        PartialPerm.from_pairs(0, [])
    # a point is a byte: the degree is checked before a key is built
    with pytest.raises(ValueError, match="above 255"):
        PartialPerm.from_pairs(256, [])
    with pytest.raises(ValueError, match="above 255"):
        PartialPerm(bytes(257))
    # byte 0 not 0, a point above the degree, a repeated point
    for key in (bytes((1, 2, 0)), bytes((0, 3, 1)), bytes((0, 2, 2))):
        with pytest.raises(ValueError):
            PartialPerm(key)
    with pytest.raises(TypeError):
        PartialPerm((0, 1))


def test_compose_examples():
    x = named_generator("x", 4)
    y = named_generator("y", 4)
    assert compose(x, y) == partial_identity(4, {1, 2, 3})  # e_4
    assert compose(y, x) == partial_identity(4, {2, 3, 4})  # e_1
    e1 = named_generator("e_1", 4)
    e2 = named_generator("e_2", 4)
    assert compose(e1, e2) == partial_identity(4, {3, 4})
    f = named_generator("g", 4)
    assert compose(identity(4), f) == f
    assert compose(f, identity(4)) == f
    with pytest.raises(ValueError):
        compose(identity(4), identity(5))


def test_compose_is_left_to_right():
    # apply the left factor first: 1 -(g)-> 2 -(e_2)-> undefined
    g = named_generator("g", 4)
    e2 = named_generator("e_2", 4)
    assert compose(g, e2).images[0] == 0
    assert compose(e2, g).images[0] == 2


def test_compose_matches_oracle_exhaustive_n3():
    perms = list(all_partial_perms(3))
    assert len(perms) == 34
    pairs = list(itertools.product(perms, perms))
    # and sampled pairs at degree 6, where tables carry 249 bytes of padding
    rng = random.Random(6)
    perms6 = list(all_partial_perms(6))
    pairs += [(rng.choice(perms6), rng.choice(perms6)) for _ in range(5000)]
    for f, g in pairs:
        assert graph(compose(f, g)) == o_compose(graph(f), graph(g))


def test_inverse_examples():
    assert inverse(named_generator("x", 4)) == named_generator("y", 4)
    assert inverse(EMPTY4) == EMPTY4
    assert inverse(named_generator("x_1", 4)) == PartialPerm.from_pairs(
        4, [(1, 1), (4, 2)]
    )


def test_inverse_laws_sampled():
    rng = random.Random(7)
    perms = list(all_partial_perms(4))
    for _ in range(2000):
        f, g = rng.choice(perms), rng.choice(perms)
        assert compose(compose(f, inverse(f)), f) == f
        assert inverse(compose(f, g)) == compose(inverse(g), inverse(f))


def test_associativity_exhaustive_generator_products():
    gens = [named_generator(k, 4) for k in ("g", "h", "x", "y")]
    gens += [named_generator(f"e_{i}", 4) for i in range(1, 5)]
    gens += [named_generator("x_1", 4), named_generator("y_1", 4)]
    pool = {graph(f): f for f in gens}
    for f, g in itertools.product(gens, gens):
        fg = compose(f, g)
        pool.setdefault(graph(fg), fg)
    pool = list(pool.values())
    for f, g, h in itertools.product(pool, pool, pool):
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_associativity_random_triples_n6():
    rng = random.Random(20260814)
    perms = list(all_partial_perms(6))
    for _ in range(100_000):
        f, g, h = (rng.choice(perms) for _ in range(3))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_partial_identity_and_restrict():
    assert partial_identity(4, range(1, 5)) == identity(4)
    assert partial_identity(4, ()) == EMPTY4
    assert partial_identity(4, {1, 2, 3}) == named_generator("e_4", 4)
    with pytest.raises(ValueError):
        partial_identity(4, {0})
    # restricting f to a set of points is composing the set's partial
    # identity with f
    g = named_generator("g", 4)
    h = named_generator("h", 4)
    assert compose(partial_identity(4, range(1, 5)), g) == g
    assert compose(partial_identity(4, {1, 4}), h) == PartialPerm.from_pairs(
        4, [(1, 4), (4, 1)]
    )
    assert compose(partial_identity(4, ()), g) == EMPTY4
    # restriction to points outside the domain just drops them
    x = named_generator("x", 4)
    assert compose(partial_identity(4, {3, 4}), x) == PartialPerm.from_pairs(
        4, [(3, 4)]
    )


@pytest.mark.parametrize("n", [3, 4, 5])
def test_predicates_closed_under_composition(n):
    perms = list(all_partial_perms(n))
    op = [f for f in perms if o_order_preserving(graph(f))]
    for f, g in itertools.product(op, op):
        assert o_order_preserving(graph(compose(f, g)))
    orp = [f for f in perms if o_orientation_preserving(graph(f))]
    for f, g in itertools.product(orp, orp):
        assert o_orientation_preserving(graph(compose(f, g)))


def test_named_generator_examples_and_errors():
    assert named_generator("x", 4) == PartialPerm.from_pairs(
        4, [(1, 2), (2, 3), (3, 4)]
    )
    assert named_generator("x_1", 4) == PartialPerm.from_pairs(4, [(1, 1), (2, 4)])
    assert named_generator("y_2", 5) == PartialPerm.from_pairs(5, [(1, 1), (4, 3)])
    assert named_generator("e_1", 4) == partial_identity(4, {2, 3, 4})
    assert named_generator("e_12", 12) == partial_identity(12, range(1, 12))
    with pytest.raises(ValueError):
        named_generator("e_5", 4)
    with pytest.raises(ValueError):
        named_generator("x_2", 4)  # only i=1 exists at n=4
    with pytest.raises(ValueError):
        named_generator("h", 1)
    with pytest.raises(ValueError):
        named_generator("nope", 4)
    # each map has one name: malformed, unknown and out-of-range names are
    # refused at n = 5, which has e_1..e_5, x_1, x_2, y_1 and y_2
    for name in ("e_0", "e_", "e_x", "g_1", "h_2", "z", "e_01", "x_-1", "e_6", "x_3"):
        with pytest.raises(ValueError):
            named_generator(name, 5)


def generator_definitions(n):
    """Every valid letter name at degree n, with its map built from pairs
    as named_generator's docstring defines it."""
    maps = {
        "g": [(p, p % n + 1) for p in range(1, n + 1)],
        "x": [(p, p + 1) for p in range(1, n)],
        "y": [(p + 1, p) for p in range(1, n)],
    }
    if n >= 2:
        maps["h"] = [(p, n + 1 - p) for p in range(1, n + 1)]
    for i in range(1, n + 1):
        maps[f"e_{i}"] = [(p, p) for p in range(1, n + 1) if p != i]
    for i in range(1, (n - 1) // 2 + 1):
        maps[f"x_{i}"] = [(1, 1), (1 + i, n - i + 1)]
        maps[f"y_{i}"] = [(1, 1), (n - i + 1, 1 + i)]
    return {name: PartialPerm.from_pairs(n, pairs) for name, pairs in maps.items()}


@pytest.mark.parametrize("n", [*range(1, 13), 255])
def test_named_generator_matches_its_definition(n):
    """Each map's key is written directly; it equals the map built from
    the pairs of its definition, up to degree 255, where g's last image
    and h's first are 255 and y's key reads 254 last."""
    definitions = generator_definitions(n)
    for name, f in definitions.items():
        assert named_generator(name, n) == f, name
    if n == 255:
        assert named_generator("g", n).key[-2:] == bytes((255, 1))
        assert named_generator("h", n).key[1] == 255
        assert named_generator("y", n).key[-1] == 254


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 12, 255])
def test_named_generator_refuses_every_invalid_name(n):
    m = (n - 1) // 2
    invalid = [
        f"e_{n + 1}", f"x_{m + 1}", f"y_{m + 1}", "e_0", "x_0", "y_0", "e_01",
        "e_", "e_x", "x_-1", "g_1", "h_2", "z", "", "G", "e 1", "e_1 ", "ee_1",
        "e_1_1", "x_1.0", "e_\N{ARABIC-INDIC DIGIT ONE}",
    ]
    if n < 2:
        invalid.append("h")
    valid = generator_definitions(n)
    for name in invalid:
        assert name not in valid
        with pytest.raises(ValueError):
            named_generator(name, n)


@pytest.mark.parametrize("n", range(2, 13))
def test_g_and_h_orders(n):
    g = named_generator("g", n)
    h = named_generator("h", n)
    acc = identity(n)
    for _ in range(n):
        acc = compose(acc, g)
    assert acc == identity(n)
    assert compose(h, h) == identity(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_e_i_conjugation_identity(n):
    g = named_generator("g", n)
    e_n = named_generator(f"e_{n}", n)
    for i in range(1, n + 1):
        lhs = named_generator(f"e_{i}", n)
        rhs = identity(n)
        for _ in range(n - i):
            rhs = compose(rhs, g)
        rhs = compose(rhs, e_n)
        for _ in range(i):
            rhs = compose(rhs, g)
        assert lhs == rhs


def _power(f, k):
    acc = identity(f.degree)
    for _ in range(k):
        acc = compose(acc, f)
    return acc


@pytest.mark.parametrize("n", range(4, 9))
def test_reflection_conjugates_of_x_i_y_i(n):
    h = named_generator("h", n)
    x = named_generator("x", n)
    y = named_generator("y", n)
    m = (n - 1) // 2
    for i in range(1, m + 1):
        x_i = named_generator(f"x_{i}", n)
        y_i = named_generator(f"y_{i}", n)
        lhs = compose(compose(h, x_i), h)
        rhs = compose(compose(_power(y, n - i - 1), x_i), _power(x, i - 1))
        assert lhs == rhs
        lhs = compose(compose(h, y_i), h)
        rhs = compose(compose(_power(y, i - 1), y_i), _power(x, n - i - 1))
        assert lhs == rhs


@pytest.mark.parametrize("n", range(4, 9))
def test_rotation_conjugates_of_x_i_are_new(n):
    """g^r x_i g^s equals some x_j only in the trivial case r=s=0, i=j."""
    g = named_generator("g", n)
    m = (n - 1) // 2
    xs = {j: named_generator(f"x_{j}", n) for j in range(1, m + 1)}
    for i in range(1, m + 1):
        for r in range(2 * n):
            for s in range(2 * n):
                f = compose(compose(_power(g, r), xs[i]), _power(g, s))
                for j, x_j in xs.items():
                    if f == x_j:
                        assert r % n == 0 and s % n == 0 and i == j


def test_serialization_round_trip():
    for f in all_partial_perms(4):
        d = f.to_dict()
        assert set(d) == {"n", "map"}
        assert PartialPerm.from_pairs(d["n"], d["map"]) == f
    assert named_generator("x_1", 4).to_dict() == {"n": 4, "map": [[1, 1], [2, 4]]}


@st.composite
def partial_perm_pairs(draw, max_degree=7):
    n = draw(st.integers(1, max_degree))

    def one():
        points = sorted(draw(st.sets(st.integers(1, n))))
        images = draw(st.permutations(points))
        return PartialPerm.from_pairs(n, list(zip(points, images)))

    return one(), one()


@given(partial_perm_pairs())
def test_algebraic_laws_property(pair):
    f, g = pair
    assert inverse(inverse(f)) == f
    assert compose(compose(f, inverse(f)), f) == f
    assert inverse(compose(f, g)) == compose(inverse(g), inverse(f))
    assert o_compose(graph(f), graph(g)) == graph(compose(f, g))


def test_all_partial_perms_counts():
    # sum over rank k of C(n,k)^2 k!
    assert sum(1 for _ in all_partial_perms(1)) == 2
    assert sum(1 for _ in all_partial_perms(2)) == 7
    assert sum(1 for _ in all_partial_perms(3)) == 34
    assert sum(1 for _ in all_partial_perms(4)) == 209
    seen = set(all_partial_perms(3))
    assert len(seen) == 34
