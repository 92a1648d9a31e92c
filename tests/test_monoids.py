"""Closure-built families against brute-force references and formulas."""

import doctest
import hashlib
import inspect
import json
import random
import tracemalloc

import pytest

import dimon.monoids as monoids
from dimon import _tc_py
from dimon.iperm import compose, identity, inverse, named_generator
from dimon.monoids import (
    ClosureCapError,
    MonoidFamily,
    build_named,
    cardinality_formula,
    closure,
    generating_maps,
    green_classes,
    rank_formula,
    right_cayley_dot,
    table_rows,
    verify_generates,
)
from oracles import (
    all_partial_perms,
    keys_of,
    o_closure,
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


def rows(m, table):
    """A Cayley table of m as a list of rows."""
    return table_rows(table, m.size, len(m.generators))


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
    assert all(all(f.images) for f in d.elements)
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
    with pytest.raises(ValueError, match="odi needs n >= 4, got 3"):
        cardinality_formula(MonoidFamily.ODI, 3)
    with pytest.raises(ValueError, match="opdi needs n >= 4, got 3"):
        rank_formula(MonoidFamily.OPDI, 3)


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


def test_verify_generates_cyclic_group_by_powers():
    """C_6 is generated by g^5, a map that is not m's generator g, but
    not by g^3, whose closure stops at order 2."""
    m = build_named(MonoidFamily.CYCLIC_GROUP, 6)
    g = named_generator("g", 6)
    g3 = compose(compose(g, g), g)
    g5 = compose(compose(g3, g), g)
    assert verify_generates(m, [g5])
    assert not verify_generates(m, [g3])
    assert not verify_generates(m, [])


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
    assert named_generator("e_1", 4) not in m
    symmetries = set(o_symmetries(4))
    for f in all_partial_perms(4):
        assert (f in m) == (frozenset(f.pairs()) in symmetries)


def test_key_reads_the_key_buffer():
    """key(i) is the i-th degree + 1 bytes of key_bytes, counted from the
    end for a negative i, and element(i) is built from it."""
    m = build_named(MonoidFamily.MDI, 5)
    keys = keys_of(m)
    assert len(m.key_bytes) == 6 * m.size == 6 * len(keys)
    assert [m.key(i) for i in range(m.size)] == keys
    assert m.key(-1) == keys[-1] and m.element(-1).key == keys[-1]
    for i in (m.size, -m.size - 1):
        with pytest.raises(IndexError):
            m.key(i)


def test_membership_reads_aligned_keys_only():
    """A map whose key occurs in the key buffer only across an element
    boundary is not in the monoid, and one whose key occurs across a
    boundary before it occurs as an element's key is.  Small closures
    hold both cases."""
    across = before = 0
    for family in ALL_FAMILIES:
        m = build_named(family, 4)
        keys = set(keys_of(m))
        for f in all_partial_perms(4):
            at = m.key_bytes.find(f.key)
            if f.key not in keys and at >= 0:
                assert f not in m, (family, f)
                across += 1
            elif f.key in keys:
                assert f in m, (family, f)
                before += at % 5 != 0
    assert across > 0 and before > 0, (across, before)


def test_closure_cap(monkeypatch):
    gens = [f for _, f in generating_maps(MonoidFamily.DI, 6)]
    monkeypatch.setattr(monoids, "CLOSURE_BYTES", 10 * 59)
    with pytest.raises(ClosureCapError):
        closure(6, gens)


def test_default_closure_cap_is_a_byte_budget(monkeypatch):
    """The cap is the elements of 8 * len(gens) + 2 * degree + 23 bytes
    that fit in CLOSURE_BYTES, and the error names the budget; DI(6) has
    703 elements of 59 bytes."""
    gens = [f for _, f in generating_maps(MonoidFamily.DI, 6)]
    monkeypatch.setattr(monoids, "CLOSURE_BYTES", 702 * 59 + 58)
    with pytest.raises(ClosureCapError, match=(
            r"^closure exceeded cap of 702 elements \(41476 bytes "
            r"at 59 bytes an element\)$")):
        closure(6, gens)
    monkeypatch.setattr(monoids, "CLOSURE_BYTES", 703 * 59)
    assert closure(6, gens).size == 703


def test_closure_degree_fits_a_byte():
    g = named_generator("g", 255)
    m = closure(255, [g])
    assert m.size == 255 and keys_of(m).index(g.key) == 1
    assert named_generator("g", 4) not in m
    with pytest.raises(ValueError, match="above 255"):
        closure(256, [])
    with pytest.raises(ValueError, match="above 255"):
        build_named(MonoidFamily.OCI, 256)
    for degree in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            closure(degree, [])


@pytest.mark.parametrize("family", list(MonoidFamily))
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_closure_tables_are_consistent(family, n):
    m = build_named(family, n)
    assert_tables_compose(m)
    assert m.elements[0] == identity(n)


def assert_tables_compose(m):
    """Cell (i, k) of the right table is element i then gen_k, and of the
    left table gen_k then element i."""
    gens = [m.elements[k] for k in m.generators]
    right, left = rows(m, m.right_cayley), rows(m, m.left_cayley)
    assert type(m.right_cayley) is bytes and type(m.left_cayley) is bytes
    assert len(m.right_cayley) == len(m.left_cayley) == 4 * m.size * len(gens)
    for i, f in enumerate(m.elements):
        for k, s in enumerate(gens):
            assert m.elements[right[i][k]] == compose(f, s)
            assert m.elements[left[i][k]] == compose(s, f)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_right_action_matches_compose(family):
    """Closed over every element of m as a generator, the right table's
    column k is the right action of element k on the closure's elements,
    for the monoid's generators and every other element alike; those
    elements are m's."""
    m = build_named(family, 4)
    every = closure(4, m.elements)
    keys = keys_of(every)
    assert set(keys) == set(keys_of(m))
    right = rows(every, every.right_cayley)
    for k, f in enumerate(m.elements):
        want = [keys.index(compose(g, f).key) for g in every.elements]
        assert [row[k] for row in right] == want


DEGREE_5 = list(all_partial_perms(5))
SEEDS = range(36)


def random_gens(seed):
    """One to three random partial perms of degree 5, with their
    inverses added for an even seed (so the closure is an inverse
    monoid) and not for an odd one."""
    rng = random.Random(seed)
    gens = rng.sample(DEGREE_5, rng.randint(1, 3))
    return gens + [inverse(f) for f in gens] if seed % 2 == 0 else gens


@pytest.mark.parametrize("seed", SEEDS)
def test_closure_matches_compose_bfs(seed):
    """Composing on bytes gives compose's elements, order and tables."""
    gens = random_gens(seed)
    m = closure(5, gens)
    elements, right, left = o_closure(5, gens)
    assert list(m.elements) == elements
    assert rows(m, m.right_cayley) == right
    assert rows(m, m.left_cayley) == left


def generates(m, gens):
    """verify_generates' answer by its definition: closing gens gives
    m's element set."""
    return set(keys_of(closure(m.degree, gens))) == set(keys_of(m))


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_generates_matches_closure_on_random_gens(seed):
    """Against the closure of a seeded generating set, and against the
    same monoid closed with two products of its generators added, whose
    search for those products goes past the identity's row."""
    rng = random.Random(seed)
    gens = random_gens(seed)
    m = closure(5, gens)
    padded = closure(5, gens + [compose(*rng.sample(gens * 2, 2)) for _ in range(2)])
    assert verify_generates(padded, gens)
    candidates = [
        gens, gens[::-1], gens[1:], gens + [m.element(m.size - 1)],
        rng.sample(m.elements, min(3, m.size)), rng.sample(DEGREE_5, 2),
    ]
    for target in (m, padded):
        for s in candidates:
            assert verify_generates(target, s) == generates(target, s)


@pytest.mark.parametrize("family", list(MonoidFamily))
@pytest.mark.parametrize("n", [4, 5, 6])
def test_verify_generates_matches_closure_on_random_subsets(family, n):
    """Random subsets of m's elements, alone and joined with all of m's
    generators but the first."""
    m = build_named(family, n)
    rng = random.Random(f"{family.value} {n}")
    own = [m.element(g) for g in m.generators]
    for size in (0, 1, 2, len(own), 2 * len(own)):
        s = rng.sample(m.elements, min(size, m.size))
        for gens in (s, s + own[1:]):
            assert verify_generates(m, gens) == generates(m, gens)


def test_random_generating_sets_include_non_inverse():
    inverse_closed = [
        all(inverse(f) in m for f in m.elements)
        for m in (closure(5, random_gens(seed)) for seed in SEEDS)
    ]
    assert any(inverse_closed) and not all(inverse_closed)


def test_build_named_is_deterministic():
    a = build_named(MonoidFamily.MDI, 5)
    b = build_named(MonoidFamily.MDI, 5)
    assert a == b


def test_monoid_json_digests():
    """build --out writes the same bytes as when the monoid stored its
    elements and both tables."""
    want = {
        (MonoidFamily.OPDI, 5): "e0dc92b1dc711bc7cb405dde0d5b0f040b60f3a153ad4408a3317458a3ec8ddb",
        (MonoidFamily.DI, 5): "84c4e66c01de0500fc835ae33282e9d7cecf3b2c674bdfab7e8a6f1c9e27d835",
        (MonoidFamily.MDI, 6): "14274460c93731534e4e05ecf4b0c28368f4a2210ca86139023dcc94b6d334a6",
    }
    for (family, n), digest in want.items():
        text = json.dumps(build_named(family, n).to_json_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_green_classes_di4():
    g = green_classes(build_named(MonoidFamily.DI, 4))
    assert g.counts() == {"r": 16, "l": 16, "h": 54, "d": 6}


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_green_classes_match_oracle(family, n):
    """The counts are those of o_green's partitions, up to n = 8, the
    monoid workload's size; up to n = 5, R, L and D are also the
    strongly connected components of the right, left and combined
    Cayley graphs."""
    m = build_named(family, n)
    counts = green_classes(m).counts()
    want = o_green([frozenset(f.pairs()) for f in m.elements])
    assert counts == {name: len(set(want[name])) for name in "rlhd"}
    if n <= 5:
        # o_green reads domains and images too: check against the
        # Cayley graphs' strongly connected components as well
        right, left = rows(m, m.right_cayley), rows(m, m.left_cayley)
        both = [a + b for a, b in zip(right, left)]
        scc = [len(set(o_mutual_reachability(g))) for g in (right, left, both)]
        assert [counts[name] for name in "rld"] == scc


@pytest.mark.parametrize("gens", [["x"], ["x", "y_1"]])
def test_green_classes_non_inverse(gens):
    """Domain and image give R and L only in an inverse monoid."""
    m = closure(5, [named_generator(name, 5) for name in gens])
    assert not all(inverse(f) in m for f in m.elements)
    with pytest.raises(ValueError, match="inverse monoid"):
        green_classes(m)


def test_green_classes_structure():
    """What counts alone can show, for every family at n = 4..6: H
    refines R and L, so there are at least as many H-classes as either;
    D is coarser than both, so at most as many D-classes; and D-related
    maps have equal rank, so at least as many D-classes as ranks."""
    for family in ALL_FAMILIES:
        for n in (4, 5, 6):
            m = build_named(family, n)
            c = green_classes(m).counts()
            assert c["h"] >= max(c["r"], c["l"]), (family, n)
            assert c["d"] <= min(c["r"], c["l"]), (family, n)
            assert c["d"] >= len({len(f.pairs()) for f in m.elements}), (family, n)


def _gen_keys(family, n):
    """The keys of the family's standard generators at n, end to end."""
    return b"".join(f.key for _, f in generating_maps(family, n))


def _defined_families(n):
    """Each family with its generator keys end to end at degree n, where
    it is defined."""
    for family in MonoidFamily:
        try:
            gen_keys = _gen_keys(family, n)
        except ValueError:
            continue
        yield family, gen_keys


def test_kernels_close_and_label_alike(compiled_kernel):
    """The compiled close and green return what _tc_py's do: the same
    key buffer, keys in the same order, the same right table, and the
    same R, L, H and D class counts, for every family at n = 1..8."""
    cases = 0
    for n in range(1, 9):
        for family, gen_keys in _defined_families(n):
            closed = _tc_py.close(n, gen_keys, 10**6)
            assert compiled_kernel.close(n, gen_keys, 10**6) == closed, (family, n)
            keys = closed[0]
            assert compiled_kernel.green(n, keys) == _tc_py.green(n, keys), (family, n)
            cases += 1
    assert cases == 51
    # the cyclic group of the largest degree: 255 keys of 256 bytes
    g = named_generator("g", 255).key
    closed = _tc_py.close(255, g, 255)
    assert len(closed[0]) == 255 * 256
    assert compiled_kernel.close(255, g, 255) == closed
    assert compiled_kernel.green(255, closed[0]) == _tc_py.green(255, closed[0])


def test_kernels_close_and_label_nothing_alike(kernel):
    """With no generators a closure is the identity alone whatever the
    cap, and no keys have no classes, at every key length."""
    for degree in (1, 6, 255):
        assert kernel.close(degree, b"", 0) == (bytes(range(degree + 1)), b"")
        assert kernel.green(degree, b"") == (0, 0, 0, 0)


def test_kernels_read_any_bytes_like_keys(kernel):
    """close and green read a bytearray or a memoryview of keys as they
    read the same bytes."""
    gen_keys = _gen_keys(MonoidFamily.DI, 4)
    closed = kernel.close(4, gen_keys, 1000)
    for buf in (bytearray(gen_keys), memoryview(gen_keys)):
        assert kernel.close(4, buf, 1000) == closed
    counts = kernel.green(4, closed[0])
    for buf in (bytearray(closed[0]), memoryview(closed[0])):
        assert kernel.green(4, buf) == counts


def test_kernels_cap_closure_alike(compiled_kernel):
    """A cap of exactly the size completes in both kernels; one below it
    stops both, at the element that would pass it."""
    gen_keys = _gen_keys(MonoidFamily.DI, 6)
    size = KNOWN_SIZES[MonoidFamily.DI][6]
    closed = _tc_py.close(6, gen_keys, size)
    assert len(closed[0]) == 7 * size
    assert compiled_kernel.close(6, gen_keys, size) == closed
    for cap in (size - 1, 10, 1, 0):
        assert _tc_py.close(6, gen_keys, cap) is None
        assert compiled_kernel.close(6, gen_keys, cap) is None
    # caps beside the compiled kernel's capacity doublings, on DI(8)
    gen_keys = _gen_keys(MonoidFamily.DI, 8)
    size = KNOWN_SIZES[MonoidFamily.DI][8]
    for cap in (1024, 1025, 2048, 2049, size - 1, size):
        closed = _tc_py.close(8, gen_keys, cap)
        assert (closed is None) == (cap < size)
        assert compiled_kernel.close(8, gen_keys, cap) == closed, cap


def test_capped_compiled_closure_allocates_for_its_cap(compiled_kernel):
    """The compiled close grows its arrays up to max_elements and no
    further: on ODI(24), capped one element past a capacity doubling,
    its traced peak stays within 10 % of the peak at the doubling."""
    gen_keys = _gen_keys(MonoidFamily.ODI, 24)
    peaks = []
    for cap in (1024, 1025):
        tracemalloc.start()
        try:
            assert compiled_kernel.close(24, gen_keys, cap) is None
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], peaks


@pytest.mark.parametrize("degree, gen_keys", [
    (4, [b"\0\1\2\3"]),  # a key one byte short
    (4, [b"\0\2\3\4\1\0"]),  # one byte long
    (4, [bytes(range(5)), bytearray(range(5))]),
    (4, ["\0\1\2\3\4"]),  # a str
    (4, [None]),
    (0, []),
    (0, [b"\0"]),
    (256, []),
    (256, [bytes(257)]),
    (-1, []),
])
def test_kernels_refuse_malformed_keys(kernel, degree, gen_keys):
    """A list of keys is not a buffer: close refuses each of these
    lists with TypeError in both kernels, whatever its keys and its
    degree."""
    with pytest.raises(TypeError):
        kernel.close(degree, gen_keys, 100)


@pytest.mark.parametrize("degree, gen_keys, error", [
    pytest.param(4, b"\0\1\2\3", ValueError, id="one-byte-short"),
    pytest.param(4, b"\0\2\3\4\1\0", ValueError, id="one-byte-long"),
    pytest.param(4, bytes(range(5)) + b"\0\1", ValueError, id="a-key-and-a-part"),
    pytest.param(0, b"", ValueError, id="degree-0"),
    pytest.param(0, b"\0", ValueError, id="degree-0-key"),
    pytest.param(256, b"", ValueError, id="degree-256"),
    pytest.param(256, bytes(257), ValueError, id="degree-256-key"),
    pytest.param(-1, b"", ValueError, id="degree-minus-1"),
    pytest.param(4, "\0\1\2\3\4", TypeError, id="str"),
    pytest.param(4, None, TypeError, id="none"),
    pytest.param(4, 5, TypeError, id="int"),
    pytest.param(1, memoryview(bytes(8))[::2], BufferError, id="strided"),
])
def test_kernels_refuse_malformed_key_buffers(kernel, degree, gen_keys, error):
    """close refuses a degree outside 1..255, or a buffer that is not
    whole keys of degree + 1 bytes, with ValueError, anything that is
    not bytes-like with TypeError, and a buffer that is not contiguous
    with BufferError, in both kernels."""
    with pytest.raises(error):
        kernel.close(degree, gen_keys, 100)


@pytest.mark.parametrize("keys", [
    [bytes(range(5)), bytes(range(4))],  # two lengths
    [bytes(range(5)), bytearray(range(5))],
    [None],
    [b"\0"],  # degree 0
    [b""],
    [bytes(257)],  # degree 256
])
def test_kernels_refuse_malformed_green_keys(kernel, keys):
    """A list of keys is not a buffer: green refuses each of these lists
    with TypeError in both kernels."""
    with pytest.raises(TypeError):
        kernel.green(4, keys)


@pytest.mark.parametrize("degree, keys, error", [
    pytest.param(4, bytes(range(5)) + bytes(range(4)), ValueError, id="a-key-short"),
    pytest.param(3, bytes(range(5)), ValueError, id="not-whole-keys"),
    pytest.param(0, b"\0", ValueError, id="degree-0"),
    pytest.param(0, b"", ValueError, id="degree-0-empty"),
    pytest.param(-1, b"", ValueError, id="key-len-0"),
    pytest.param(256, bytes(257), ValueError, id="degree-256"),
    pytest.param(1, "\0\1", TypeError, id="str"),
    pytest.param(1, None, TypeError, id="none"),
    pytest.param(1, memoryview(bytes(8))[::2], BufferError, id="strided"),
])
def test_kernels_refuse_malformed_green_key_buffers(kernel, degree, keys, error):
    """green refuses a degree outside 1..255 (a key length outside
    2..256), or a buffer that is not whole keys of degree + 1 bytes, with
    ValueError, anything that is not bytes-like with TypeError, and a
    buffer that is not contiguous with BufferError, in both kernels."""
    with pytest.raises(error):
        kernel.green(degree, keys)


def test_kernels_share_one_contract(compiled_kernel):
    """Both kernel modules expose run, witness, close and green with the
    same signatures, run and witness ending in the optional stop flag,
    and the same status constants, STATUS_STOPPED among them.  No compiled kernel
    takes keywords, so every signature says so.  close and green take the
    degree first, then the keys."""
    for name in ("run", "witness", "close", "green"):
        assert inspect.signature(getattr(compiled_kernel, name)) == inspect.signature(
            getattr(_tc_py, name)
        ), name
    assert list(inspect.signature(_tc_py.close).parameters) == [
        "degree", "gen_keys", "max_elements"]
    assert list(inspect.signature(_tc_py.green).parameters) == ["degree", "keys"]
    assert list(inspect.signature(_tc_py.run).parameters) == [
        "n_letters", "relations", "max_classes", "max_steps", "watch", "stop"]
    assert list(inspect.signature(_tc_py.witness).parameters) == [
        "n_letters", "relations", "watch", "max_points", "max_nodes", "stop"]
    for name in ("STATUS_COMPLETE", "STATUS_CAPPED", "STATUS_WATCH_MERGED",
                 "STATUS_STOPPED"):
        assert getattr(compiled_kernel, name) == getattr(_tc_py, name), name
    for kernel in (_tc_py, compiled_kernel):
        with pytest.raises(TypeError):
            kernel.run(1, b"", 10, 10, watch=None)


def test_closure_reads_generators_off_the_identitys_row():
    """A generator's index is its column in row 0, so a repeated
    generator and the identity as a generator get theirs too, and the
    left table, read off the right one, holds for them and for a
    closure with no generators."""
    g, e_1 = named_generator("g", 4), named_generator("e_1", 4)
    m = closure(4, [g, g, identity(4), e_1])
    assert m.generators == (1, 1, 0, keys_of(m).index(e_1.key))
    assert_tables_compose(m)
    m = closure(4, [])
    assert m.generators == () and m.left_cayley == m.right_cayley == b""


def test_closure_and_green_call_the_kernel(monkeypatch):
    """closure and green_classes check their input, then hand the work
    to the backend's kernel."""
    calls = []

    class Kernel:
        def close(self, *args):
            calls.append("close")
            return _tc_py.close(*args)

        def green(self, *args):
            calls.append("green")
            return _tc_py.green(*args)

    monkeypatch.setattr(monoids, "_kernel", Kernel())
    m = build_named(MonoidFamily.DI, 4)
    assert green_classes(m).counts() == {"r": 16, "l": 16, "h": 54, "d": 6}
    assert calls == ["close", "green"]
    with pytest.raises(ValueError, match="generator degree 5 != 4"):
        closure(4, [named_generator("g", 5)])
    assert calls == ["close", "green"]


def test_right_cayley_dot_smoke():
    m = build_named(MonoidFamily.OCI, 2)
    dot = right_cayley_dot(m)
    assert dot.startswith("digraph")
    assert dot.count("->") == m.size * len(m.generators)
