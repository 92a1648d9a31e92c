"""Congruence enumeration: counts, verdicts, consequences, invariants."""

import doctest
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from array import array

import pytest

import dimon.congruence as congruence
from dimon import _tc_py
from dimon.congruence import (
    EnumerationCaps,
    EnumerationResult,
    IndeterminateError,
    Verdict,
    enumerate_congruence,
    is_consequence,
    normal_forms,
    verify_forms_set,
    verify_presentation,
)
from dimon.iperm import named_generator
from dimon.monoids import (
    MonoidFamily,
    build_named,
    closure,
    green_classes,
    verify_generates,
)
from dimon.presentations import (
    Assignment,
    FormsSet,
    Presentation,
    Relation,
    RelationFamily,
    build_alphabet,
    build_assignment,
    build_forms,
    build_relations,
    eliminate_generator,
    evaluate,
)
from oracles import keys_of, tagged, without

# class counts double-checked against the closure sizes
CLASS_COUNTS = {
    RelationFamily.R: {4: 44, 5: 104},
    RelationFamily.U: {4: 38, 5: 84},
    RelationFamily.V: {4: 44, 5: 104},
    RelationFamily.VBAR: {4: 71, 5: 182},
    RelationFamily.VBAR_PRIME: {4: 71, 5: 182},
    RelationFamily.Q: {4: 77, 5: 206},
    RelationFamily.Q0: {4: 61, 5: 156},
    RelationFamily.Q_PRIME: {4: 77, 5: 206},
}

TARGETS = {
    RelationFamily.R: MonoidFamily.ODI,
    RelationFamily.U: MonoidFamily.OCI,
    RelationFamily.V: MonoidFamily.ODI,
    RelationFamily.VBAR: MonoidFamily.MDI,
    RelationFamily.VBAR_PRIME: MonoidFamily.MDI,
    RelationFamily.Q: MonoidFamily.OPDI,
    RelationFamily.Q0: MonoidFamily.CI,
    RelationFamily.Q_PRIME: MonoidFamily.OPDI,
}


def test_doctests():
    failed, _ = doctest.testmod(congruence)
    assert failed == 0


def test_caps_validation():
    with pytest.raises(ValueError):
        EnumerationCaps(max_classes=0)
    with pytest.raises(ValueError):
        EnumerationCaps(max_steps=-1)
    caps = EnumerationCaps()
    assert caps.max_classes == 10**6


def test_caps_fit_the_compiled_kernel():
    """Class ids are C ints (their capacity doubles in a Py_ssize_t),
    steps a C long long."""
    assert EnumerationCaps(max_classes=2**30, max_steps=2**63 - 1).max_classes == 2**30
    with pytest.raises(ValueError, match="max_classes must be at most 2\\*\\*30"):
        EnumerationCaps(max_classes=2**30 + 1)
    with pytest.raises(ValueError, match="max_steps must be at most"):
        EnumerationCaps(max_steps=2**63)


def test_enumerate_trivial():
    p = Presentation("t", ("a",), (Relation(("a", "a"), ("a",), "sq"),))
    r = enumerate_congruence(p)
    assert r.is_complete and r.class_count == 2
    assert r.word_classes([(), ("a",), ("a", "a", "a")]) == [0, 1, 1]
    # a a traced from class 0 defines classes 1 and 2, and a a = a then
    # merges class 2 into class 1: seven steps in all
    stats = {"classes_defined": 3, "peak_live_classes": 3, "coincidences": 1, "steps": 7}
    assert r.stats == stats
    assert r.to_json_dict() == {"status": "complete", "classes": 2, "stats": stats}


def test_result_holds_the_kernel_table(monkeypatch):
    """enumerate_congruence keeps the table the kernel built, not a copy."""
    kernel_run = congruence._kernel.run
    runs = []

    def run(*args):
        runs.append(kernel_run(*args))
        return runs[-1]

    monkeypatch.setattr(congruence._kernel, "run", run)
    r = enumerate_congruence(build_relations(RelationFamily.Q, 4))
    assert r.table is runs[0][1] and r.class_count == 77


def test_enumerate_caps_out():
    free = Presentation("free", ("a",), ())
    r = enumerate_congruence(free, EnumerationCaps(max_classes=10))
    assert r.table is None
    assert not r.is_complete
    assert r.class_count is None
    assert r.to_json_dict()["status"] == "capped"
    with pytest.raises(IndeterminateError):
        r.word_classes([("a",)])


@pytest.mark.parametrize("family", tuple(RelationFamily))
@pytest.mark.parametrize("n", [4, 5])
def test_class_counts(family, n):
    r = enumerate_congruence(build_relations(family, n))
    assert r.class_count == CLASS_COUNTS[family][n]


def test_word_class_examples():
    r = enumerate_congruence(build_relations(RelationFamily.R, 4))
    xy, e4, yx, e1, empty, x, y = r.word_classes(
        [("x", "y"), ("e_4",), ("y", "x"), ("e_1",), (), ("x",), ("y",)]
    )
    assert xy == e4 and yx == e1 and empty == 0 and x != y
    # one word's class is its class among others
    assert r.word_classes([("x", "y")]) == [xy]
    assert r.word_classes([]) == []


def test_a_letter_outside_the_alphabet_is_a_value_error():
    """word_classes names the word and the letter it cannot read, and so
    does verify_forms_set for a form with such a letter."""
    p = build_relations(RelationFamily.R, 4)
    r = enumerate_congruence(p)
    message = r"word \('x', 'h'\) has letter 'h', not in \('x', 'y', "
    with pytest.raises(ValueError, match=message):
        r.word_classes([("x",), ("x", "h"), ("y",)])
    forms = FormsSet("W", p.letters, ((), ("x", "h")))
    with pytest.raises(ValueError, match=message):
        verify_forms_set(
            p, forms, build_assignment(RelationFamily.R, 4),
            build_named(MonoidFamily.ODI, 4),
        )


@pytest.mark.parametrize("family", tuple(RelationFamily))
def test_soundness_every_relation_resolves_equal(family):
    """A completed table must satisfy the relations it was built from."""
    for n in (4, 5):
        p = build_relations(family, n)
        r = enumerate_congruence(p)
        lhs = r.word_classes(rel.lhs for rel in p.relations)
        rhs = r.word_classes(rel.rhs for rel in p.relations)
        for rel, u, v in zip(p.relations, lhs, rhs):
            assert u == v, rel.tag


@pytest.mark.parametrize("family", tuple(RelationFamily))
def test_lower_bound_class_count(family):
    n = 4
    m = build_named(TARGETS[family], n)
    r = enumerate_congruence(build_relations(family, n))
    assert r.class_count >= m.size


def closed_images(p, a):
    """The closure of a's images of p's letters, in letter order."""
    return closure(a.degree, [a.image(name) for name in p.letters])


def test_classes_agree_with_evaluation():
    """Words in one class evaluate to one element, and the class-to-
    element map is a bijection (R presents its monoid): class c is
    element c of the closure of the images."""
    n = 4
    p = build_relations(RelationFamily.R, n)
    a = build_assignment(RelationFamily.R, n)
    r = enumerate_congruence(p)
    reps = normal_forms(r, p.letters)
    class_image = [evaluate(w, a) for w in reps.words]
    assert len(set(class_image)) == r.class_count
    closed = closed_images(p, a)
    assert r.table == closed.right_cayley
    assert closed.key_bytes == b"".join(f.key for f in class_image)
    rng = random.Random(11)
    names = p.letters
    words = [tuple(rng.choice(names) for _ in range(rng.randrange(8))) for _ in range(400)]
    for w, c in zip(words, r.word_classes(words)):
        assert evaluate(w, a) == class_image[c]


def with_entry(r, c, k, t):
    """r with cell (c, k) of its table set to t."""
    cells = array("i", r.table)
    cells[c * len(r.letters) + k] = t
    return EnumerationResult(r.letters, cells.tobytes(), r.caps, r.stats)


def verify_with(monkeypatch, result, family):
    """verify_presentation of the family at n = 4, handed result as its
    enumeration."""
    monkeypatch.setattr(congruence, "enumerate_congruence", lambda p, caps: result)
    return verify_presentation(
        build_relations(family, 4), build_assignment(family, 4),
        build_named(TARGETS[family], 4),
    )


@pytest.mark.parametrize(
    "family", (RelationFamily.R, RelationFamily.Q, RelationFamily.VBAR)
)
def test_verify_calls_a_changed_table_entry_unsound(monkeypatch, family):
    """A table of the right size with one entry changed is not the
    closure's table, and every relation holds: verify_presentation
    calls that unsound.  The class-to-element map is checked on every
    edge, at the corners of the table and at random cells."""
    n = 4
    p = build_relations(family, n)
    r = enumerate_congruence(p)
    assert r.table == closed_images(p, build_assignment(family, n)).right_cayley
    last_c, last_k = r.class_count - 1, len(r.letters) - 1
    rng = random.Random(5)
    positions = [(0, 0), (0, last_k), (last_c, 0), (last_c, last_k)] + [
        (rng.randrange(r.class_count), rng.randrange(len(r.letters)))
        for _ in range(20)
    ]
    cells = memoryview(r.table).cast("i")
    for c, k in positions:
        t = cells[c * len(r.letters) + k]
        for other in ((t + 1) % r.class_count, 0):
            if other != t:
                with pytest.raises(RuntimeError, match="soundness"):
                    verify_with(monkeypatch, with_entry(r, c, k, other), family)


def test_verify_fails_an_unreached_extra_class_with_its_count(monkeypatch):
    """A copy of class 5's row, appended as a class no edge reaches,
    agrees with every edge from class 0 but makes one class more than
    the monoid has: FAIL with that count, not PASS."""
    r = enumerate_congruence(build_relations(RelationFamily.R, 4))
    width = len(r.letters)
    extra = r.table + r.table[4 * 5 * width:4 * 6 * width]
    extra = EnumerationResult(r.letters, extra, r.caps, r.stats)
    assert extra.class_count == r.class_count + 1
    v = verify_with(monkeypatch, extra, RelationFamily.R)
    assert v.verdict is Verdict.FAIL and v.class_count == 45 and v.monoid_size == 44


def test_verify_rejects_an_image_outside_the_monoid():
    """An image outside the monoid fails the generation check: an error
    from verify_presentation, a problem from verify_forms_set."""
    n = 4
    p = build_relations(RelationFamily.R, n)
    a = build_assignment(RelationFamily.R, n)
    m = build_named(MonoidFamily.ODI, n)
    h = named_generator("h", n)  # order-reversing: not in ODI
    assert h not in m
    last = p.letters[-1]
    outside = Assignment(
        n, tuple((name, h if name == last else f) for name, f in a.images)
    )
    with pytest.raises(ValueError, match="do not generate"):
        verify_presentation(p, outside, m)
    forms = normal_forms(enumerate_congruence(p), p.letters)
    v = verify_forms_set(p, forms, outside, m)
    assert v.verdict is Verdict.FAIL
    assert v.problems == ("classes do not map onto the monoid's elements",)
    # a letter with no image is an error, not a table that fails to map
    missing = Assignment(n, a.images[1:])
    with pytest.raises(KeyError):
        verify_presentation(p, missing, m)
    with pytest.raises(KeyError):
        verify_forms_set(p, forms, missing, m)


@pytest.mark.parametrize("family", tuple(RelationFamily))
@pytest.mark.parametrize("n", [4, 5])
def test_class_c_is_closure_element_c(family, n):
    """Class c is element c of the closure of the images, and those
    elements are the monoid's, each once, class 0 the identity."""
    p = build_relations(family, n)
    r = enumerate_congruence(p)
    m = build_named(TARGETS[family], n)
    closed = closed_images(p, build_assignment(family, n))
    assert r.table == closed.right_cayley
    keys = keys_of(m)
    elements = [keys.index(closed.element(c).key) for c in range(r.class_count)]
    assert elements[0] == 0
    assert sorted(elements) == list(range(m.size))


@pytest.mark.parametrize("family", tuple(RelationFamily))
def test_table_equals_the_closure_table(kernel, family):
    """Each kernel's standardized table equals the right table of the
    closure of the family's images, byte for byte, at n = 4..7."""
    for n in (4, 5, 6, 7):
        p = build_relations(family, n)
        status, table, _ = kernel.run(len(p.letters), p.relation_ids, 10**6, 10**8)
        assert status == kernel.STATUS_COMPLETE
        assert table == closed_images(p, build_assignment(family, n)).right_cayley, n


def test_enumeration_is_deterministic():
    p = build_relations(RelationFamily.VBAR, 5)
    r1 = enumerate_congruence(p)
    r2 = enumerate_congruence(p)
    assert r1.table == r2.table
    assert r1.class_count == r2.class_count


def trace(table, width, c, word):
    """The class a letter-id word leads to from class c of a complete
    table of the given width."""
    cells = memoryview(table).cast("i")
    for a in word:
        c = cells[c * width + a]
    return c


def encode(*words):
    """Letter-id words as the kernels read them: native int32 cells, each
    word its length and then its letter ids."""
    return array("i", [cell for w in words for cell in (len(w), *w)]).tobytes()


def decode(buf):
    """The (lhs, rhs) pairs of letter-id tuples in a buffer of words."""
    cells, words = memoryview(buf).cast("i").tolist(), []
    while cells:
        words.append(tuple(cells[1:1 + cells[0]]))
        del cells[:1 + cells[0]]
    return list(zip(words[0::2], words[1::2]))


def assert_relations_hold_at_every_class(table, width, relation_ids):
    """Every relation of a relations buffer, traced from every class of a
    complete table, ends in one class on both sides."""
    for c in range(len(table) // (4 * width)):
        for lhs, rhs in decode(relation_ids):
            ends = trace(table, width, c, lhs), trace(table, width, c, rhs)
            assert ends[0] == ends[1], (c, lhs, rhs)


def assert_standardized(table, width):
    """Read row by row, each class first appears as the next new one."""
    seen = 1
    for t in memoryview(table).cast("i"):
        assert t <= seen
        seen += t == seen
    assert seen * 4 * width == len(table)


# step caps from a first class to past completion: a step counted in a
# different place shows as a capped run on one side, a complete on the other
STEP_CAPS = (*range(0, 400, 7), *range(400, 12_000, 97), 10**5, 10**6)


def test_backends_identical(compiled_kernel):
    for family, n in (
        (RelationFamily.R, 4),
        (RelationFamily.VBAR, 5),
        (RelationFamily.Q_PRIME, 5),
    ):
        p = build_relations(family, n)
        rels = p.relation_ids
        statuses = set()
        for max_steps in STEP_CAPS:
            out_py = _tc_py.run(len(p.letters), rels, 10**6, max_steps)
            out_c = compiled_kernel.run(len(p.letters), rels, 10**6, max_steps)
            assert out_py == out_c, (p.label, max_steps)
            # a stop flag of 2 (the search found nothing) changes nothing
            for kernel in (_tc_py, compiled_kernel):
                out = kernel.run(len(p.letters), rels, 10**6, max_steps, None, bytearray(b"\2"))
                assert out == out_py, (kernel.__name__, p.label, max_steps)
            statuses.add(out_py[0])
        assert statuses == {_tc_py.STATUS_CAPPED, _tc_py.STATUS_COMPLETE}
    # watch and cap outcomes agree as well
    p = Presentation(
        "t", ("h", "x", "y"),
        (Relation(("h", "h"), (), "s"), Relation(("h", "x"), ("y", "h"), "c")),
    )
    rels = p.relation_ids
    watch = p.encode((("h", "y"), ("x", "h")))
    assert watch == encode((0, 2), (1, 0))
    for max_steps in STEP_CAPS:
        assert _tc_py.run(3, rels, 10**6, max_steps, watch) == compiled_kernel.run(
            3, rels, 10**6, max_steps, watch
        )
    assert _tc_py.run(1, b"", 7, 10**8) == compiled_kernel.run(1, b"", 7, 10**8)
    assert _tc_py.run(0, b"", 1, 0) == compiled_kernel.run(0, b"", 1, 0)
    # no relations: every class is defined while filling a row, and each
    # definition is a step, so the step cap binds long before the class cap
    for max_steps in (0, 1, 2, 3, 10, 999, 12_000):
        out_py = _tc_py.run(2, b"", 10**5, max_steps)
        assert out_py == compiled_kernel.run(2, b"", 10**5, max_steps)
        assert out_py[:2] == (_tc_py.STATUS_CAPPED, None)
    # letter 1 is free, so row filling defines its classes: the watched
    # run's outcome at each step cap depends on that filling counting
    # steps the same way in both kernels
    rels = encode((0, 0), ())
    watch = encode((0, 0, 1), (1, 0, 0))
    for max_steps in range(61):
        out_py = _tc_py.run(2, rels, 10**4, max_steps, watch)
        assert out_py == compiled_kernel.run(2, rels, 10**4, max_steps, watch), max_steps
    # a c^1100 = b c^1100 defines two chains of c's, and a = b merges them
    # pair by pair in one coincide call: 1100 pairs, past the compiled
    # queue's first capacity of 1024
    rels = encode((0,) + (2,) * 1100, (1,) + (2,) * 1100, (0,), (1,))
    out_py = _tc_py.run(3, rels, 3300, 10**8)
    assert out_py == compiled_kernel.run(3, rels, 3300, 10**8)
    assert out_py == (_tc_py.STATUS_CAPPED, None, {
        "classes_defined": 3300, "peak_live_classes": 2202,
        "coincidences": 1100, "steps": 6603})


def test_backends_identical_on_edge_cases(compiled_kernel):
    """Both kernels return equal bytes with no letters (one class, table
    b""), no table from a capped run, and stop alike at a watch that
    merges before the first scan."""
    for args in ((0, b"", 1, 0), (0, encode((), ()), 10, 10)):
        out = _tc_py.run(*args)
        assert out == compiled_kernel.run(*args)
        assert out[:2] == (_tc_py.STATUS_COMPLETE, b"")
    p = Presentation("t", (), ())
    r = enumerate_congruence(p)
    assert r.table == b"" and r.class_count == 1 and r.word_classes([()]) == [0]
    assert normal_forms(r, ()).words == ((),)
    capped = _tc_py.run(2, b"", 10, 10**8)
    assert capped == compiled_kernel.run(2, b"", 10, 10**8)
    assert capped[:2] == (_tc_py.STATUS_CAPPED, None)
    # a watch whose words meet as soon as they are traced stops the run
    # before its first scan
    p = build_relations(RelationFamily.U, 4)
    for watch, defined, steps in ((encode((0, 1), (0, 1)), 3, 4), (encode((), ()), 1, 0)):
        args = (len(p.letters), p.relation_ids, 10**6, 10**8, watch)
        out = _tc_py.run(*args)
        assert out == compiled_kernel.run(*args)
        assert out == (_tc_py.STATUS_WATCH_MERGED, None, {
            "classes_defined": defined, "peak_live_classes": defined,
            "coincidences": 0, "steps": steps})
    w = p.relations[0].lhs
    assert is_consequence(p, Relation(w, w, ""))


# counters of complete runs, pinned when the tables became standardized:
# standardizing follows the enumeration and counts nothing
PINNED_STATS = {
    (RelationFamily.R, 6): (204, 153_636, 5_771),
    (RelationFamily.Q, 7): (1037, 535_210, 15_359),
    (RelationFamily.Q_PRIME, 6): (451, 452_430, 8_689),
}


@pytest.mark.parametrize("family, n", tuple(PINNED_STATS))
def test_backends_identical_with_pinned_counters(compiled_kernel, family, n):
    p = build_relations(family, n)
    out = _tc_py.run(len(p.letters), p.relation_ids, 10**6, 10**8)
    assert out == compiled_kernel.run(len(p.letters), p.relation_ids, 10**6, 10**8)
    status, table, stats = out
    classes, steps, defined = PINNED_STATS[family, n]
    assert status == _tc_py.STATUS_COMPLETE
    assert len(table) == 4 * classes * len(p.letters)
    assert (stats["steps"], stats["classes_defined"]) == (steps, defined)
    assert stats["classes_defined"] - stats["coincidences"] == classes


# under a 500-class cap every deletion from R(4) caps or merges, while
# some from Q(4) complete
DELETION_OUTCOMES = {
    RelationFamily.R: {_tc_py.STATUS_CAPPED, _tc_py.STATUS_WATCH_MERGED},
    RelationFamily.Q: {
        _tc_py.STATUS_COMPLETE, _tc_py.STATUS_CAPPED, _tc_py.STATUS_WATCH_MERGED
    },
}


@pytest.mark.parametrize("family", tuple(DELETION_OUTCOMES))
def test_backends_identical_on_deletions(compiled_kernel, family):
    """Each relation of the family at n = 4 deleted in turn, under a
    500-class cap: the plain run and the run watching the deleted pair
    return equal tuples from both kernels, capped, merged or complete.
    Every complete table satisfies every remaining relation at every
    class, and a complete watched run leaves the watched pair in two
    classes: the watch is checked after every scan, and only scans
    merge classes."""
    p = build_relations(family, 4)
    statuses = set()
    for i, rel in enumerate(p.relations):
        smaller = without(p, i)
        watch = p.encode((rel.lhs, rel.rhs))
        for w in (None, watch):
            args = (len(p.letters), smaller.relation_ids, 500, 10**8, w)
            out_py = _tc_py.run(*args)
            assert out_py == compiled_kernel.run(*args), (rel.tag, w)
            statuses.add(out_py[0])
            if out_py[0] == _tc_py.STATUS_COMPLETE:
                table, width = out_py[1], len(p.letters)
                assert_standardized(table, width)
                assert_relations_hold_at_every_class(table, width, smaller.relation_ids)
                if w is not None:
                    [(lhs, rhs)] = decode(w)
                    assert trace(table, width, 0, lhs) != trace(table, width, 0, rhs)
    assert statuses == DELETION_OUTCOMES[family]


# the consequence batch: each relation deleted in turn and watched, at a
# 5000-class cap and 10**8 steps; (merged, capped, complete) per family
CONSEQUENCE_OUTCOMES = {
    (RelationFamily.R, 5): (41, 14, 13),
    (RelationFamily.Q, 5): (41, 3, 0),
    (RelationFamily.VBAR, 5): (59, 9, 5),
    (RelationFamily.Q_PRIME, 6): (19, 25, 0),
    (RelationFamily.U, 6): (2, 21, 8),
}


def consequence_runs(kernel, family, n):
    """The watched run of each deletion from family(n), in relation order."""
    p = build_relations(family, n)
    rels = [encode(*pair) for pair in decode(p.relation_ids)]
    return [kernel.run(len(p.letters), b"".join(rels[:i] + rels[i + 1:]), 5000, 10**8,
                       rels[i])
            for i in range(len(rels))]


def test_consequence_batch_is_pinned(compiled_kernel):
    """Outcomes and counters of the 260 watched runs, pinned: a change to
    the kernel that alters a step or a decision moves them."""
    statuses = (_tc_py.STATUS_WATCH_MERGED, _tc_py.STATUS_CAPPED, _tc_py.STATUS_COMPLETE)
    runs = []
    for (family, n), outcomes in CONSEQUENCE_OUTCOMES.items():
        out = consequence_runs(compiled_kernel, family, n)
        assert tuple(sum(r[0] == s for r in out) for s in statuses) == outcomes, family
        runs += out
    assert len(runs) == 260
    assert sum(r[2]["steps"] for r in runs) == 11_559_927
    assert sum(r[2]["classes_defined"] for r in runs) == 574_143
    assert consequence_runs(_tc_py, RelationFamily.Q, 5) == consequence_runs(
        compiled_kernel, RelationFamily.Q, 5)


# the batch's capped runs, each searched for an action that separates
# the deleted relation on at most 2 points and then, if none does, on
# at most WITNESS_POINTS, each search within max_nodes nodes: (actions
# on 2 points, on 3, none, nodes searched) per family, at WITNESS_NODES
# and at 1000 nodes a search
WITNESS_OUTCOMES = {
    100: {
        (RelationFamily.R, 5): (4, 6, 4, 990),
        (RelationFamily.Q, 5): (1, 0, 2, 260),
        (RelationFamily.VBAR, 5): (2, 1, 6, 1057),
        (RelationFamily.Q_PRIME, 6): (2, 1, 22, 3298),
        (RelationFamily.U, 6): (5, 10, 6, 1628),
    },
    1000: {
        (RelationFamily.R, 5): (4, 10, 0, 1405),
        (RelationFamily.Q, 5): (1, 0, 2, 896),
        (RelationFamily.VBAR, 5): (2, 4, 3, 3372),
        (RelationFamily.Q_PRIME, 6): (2, 1, 22, 23098),
        (RelationFamily.U, 6): (5, 16, 0, 3336),
    },
}


def assert_separates(table, width, relation_ids, watch):
    """table is an action in which every relation acts equally at every
    point and the watch's two words act differently at some point."""
    points = len(table) // (4 * width)
    assert 4 * width * points == len(table) > 0
    assert all(0 <= t < points for t in memoryview(table).cast("i"))
    assert_relations_hold_at_every_class(table, width, relation_ids)
    [(lhs, rhs)] = decode(watch)
    assert any(trace(table, width, q, lhs) != trace(table, width, q, rhs)
               for q in range(points))


def witness_in_turn(kernel, n_letters, relations, watch, bounds, max_nodes, stop=None):
    """kernel.witness at each point bound in turn, each within max_nodes
    nodes and given the stop flag, until one finds an action: that action
    or None, and the nodes each call searched."""
    nodes = []
    for bound in bounds:
        table, searched = kernel.witness(n_letters, relations, watch, bound, max_nodes, stop)
        nodes.append(searched)
        if table is not None:
            break
    return table, nodes


def witness_outcomes(compiled_kernel, max_nodes):
    """(actions on 2 points, on 3, none, nodes searched) per family of the
    batch's 72 capped runs, each searched on at most 2 points and then
    WITNESS_POINTS, within max_nodes nodes a search.  Both kernels must
    return equal (table, nodes) at each bound, with no stop flag and with
    one that stays 0, and every action found
    must separate the deleted relation in a model of the rest,
    re-checked by tracing here."""
    bounds = (2, congruence.WITNESS_POINTS)
    outcomes = {}
    for family, n in WITNESS_OUTCOMES[max_nodes]:
        p = build_relations(family, n)
        width = len(p.letters)
        rels = [encode(*pair) for pair in decode(p.relation_ids)]
        found, nodes = [], 0
        for i, out in enumerate(consequence_runs(compiled_kernel, family, n)):
            if out[0] != _tc_py.STATUS_CAPPED:
                continue
            args = (width, b"".join(rels[:i] + rels[i + 1:]), rels[i], bounds, max_nodes)
            table, searched = witness_in_turn(_tc_py, *args)
            for kernel, stop in ((compiled_kernel, None), (_tc_py, bytearray(1)),
                                 (compiled_kernel, bytearray(1))):
                assert witness_in_turn(kernel, *args, stop) == (table, searched), (family, i)
            nodes += sum(searched)
            if table is not None:
                assert_separates(table, width, args[1], rels[i])
                assert len(table) // (4 * width) == bounds[len(searched) - 1]
            found.append(table and bounds[len(searched) - 1])
        outcomes[family, n] = (found.count(2), found.count(3), found.count(None), nodes)
    return outcomes


def test_kernels_find_the_same_witnesses(compiled_kernel):
    """Both kernels return equal (table, nodes) on each of the batch's 72
    capped runs at WITNESS_NODES nodes a search.  Every action found
    separates the deleted relation in a model of the rest; which runs
    find one, on how many points, and the nodes searched are pinned."""
    outcomes = witness_outcomes(compiled_kernel, congruence.WITNESS_NODES)
    assert outcomes == WITNESS_OUTCOMES[congruence.WITNESS_NODES]
    assert sum(o[3] for o in outcomes.values()) == 7233


def test_kernels_find_the_same_witnesses_within_1000_nodes(compiled_kernel):
    """The same at 1000 nodes a search, where the searches go deeper than
    is_consequence's budget: 45 of the 72 capped runs find an action, in
    32,107 nodes, so a change to the deductions that shows only in a
    deeper search still moves the pins."""
    outcomes = witness_outcomes(compiled_kernel, 1000)
    assert outcomes == WITNESS_OUTCOMES[1000]
    assert sum(o[0] + o[1] for o in outcomes.values()) == 45
    assert sum(o[3] for o in outcomes.values()) == 32107


def test_consequence_batch_answers(monkeypatch, compiled_kernel):
    """is_consequence on the 260 deletions at a 5000-class cap: the 188
    runs that merge or complete give the run's answer, whatever their
    searches did meanwhile; of the 72 capped ones, 32 answer False by an
    action and 40 raise IndeterminateError.  Each capped run's search
    covers at most 2 points, and the 58 that find no action there search
    again on at most WITNESS_POINTS: 130 searches.  The searches run on
    the helper thread, and a decided run's search may still be ending
    during the next job, so each witness call is charged to its job by
    its relations and watch, not by when it came."""
    searches = {}
    witness = compiled_kernel.witness

    def spy(*args):
        searches.setdefault(args[1:3], []).append(args[3])
        return witness(*args)

    monkeypatch.setattr(congruence, "_kernel", compiled_kernel)
    monkeypatch.setattr(compiled_kernel, "witness", spy)
    caps = EnumerationCaps(max_classes=5000)
    answers = {True: 0, False: 0, None: 0}
    capped = 0
    for family, n in CONSEQUENCE_OUTCOMES:
        p = build_relations(family, n)
        for i, out in enumerate(consequence_runs(compiled_kernel, family, n)):
            smaller = without(p, i)
            try:
                answer = is_consequence(smaller, p.relations[i], caps)
            except IndeterminateError:
                answer = None
            answers[answer] += 1
            if out[0] != _tc_py.STATUS_CAPPED:
                assert answer is (out[0] == _tc_py.STATUS_WATCH_MERGED)
            else:
                assert answer is not True
                rel = p.relations[i]
                bounds = searches[smaller.relation_ids, p.encode((rel.lhs, rel.rhs))]
                assert bounds in ([2], [2, congruence.WITNESS_POINTS])
                capped += len(bounds)
    assert answers == {True: 162, False: 58, None: 40}
    assert capped == 130


def reflection():
    """h h = 1 and h x = y h: the monoid they present is infinite."""
    return Presentation(
        "two-relations", ("h", "x", "y"),
        (Relation(("h", "h"), (), "inv"), Relation(("h", "x"), ("y", "h"), "conj")),
    )


def test_an_action_stops_the_run(monkeypatch, kernel):
    """x = y does not follow from h h = 1 and h x = y h, whose monoid is
    infinite.  At 10**6 classes the run would go on to its cap, but the
    helper thread's search finds an action on two points in 21 nodes and
    sets the stop flag to 1: the run returns STATUS_STOPPED, wherever
    the flag found it, and the answer is False."""
    statuses = []
    run = kernel.run

    def spy(*args):
        out = run(*args)
        statuses.append(out[0])
        return out

    monkeypatch.setattr(congruence, "_kernel", kernel)
    monkeypatch.setattr(kernel, "run", spy)
    assert not is_consequence(reflection(), Relation(("x",), ("y",), ""),
                              EnumerationCaps(max_classes=10**6))
    assert statuses == [kernel.STATUS_STOPPED]


def test_run_statuses_do_not_depend_on_the_searchs_timing(monkeypatch, compiled_kernel):
    """Each run of is_consequence returns the same status whether its
    search ends at once or 2 ms late: on U(6)'s 31 deletions and
    Vbar(5)'s first 40 at a 5000-class cap, a run returns STATUS_STOPPED
    exactly when its search finds an action, and otherwise what it
    returns with no flag, table and counters too."""
    monkeypatch.setattr(congruence, "_kernel", compiled_kernel)
    run, witness = compiled_kernel.run, compiled_kernel.witness
    outs = []

    def spy(*args):
        outs.append(run(*args))
        return outs[-1]

    def slow(*args):
        time.sleep(0.002)
        return witness(*args)

    monkeypatch.setattr(compiled_kernel, "run", spy)
    caps = EnumerationCaps(max_classes=5000)
    jobs = [(p, i) for p in (build_relations(RelationFamily.U, 6),
                             build_relations(RelationFamily.VBAR, 5))
            for i in range(min(40, len(p.relations)))]

    def batch():
        outs.clear()
        for p, i in jobs:
            try:
                is_consequence(without(p, i), p.relations[i], caps)
            except IndeterminateError:
                pass
        return list(outs)

    prompt = batch()
    monkeypatch.setattr(compiled_kernel, "witness", slow)
    late = batch()
    assert [out[0] for out in late] == [out[0] for out in prompt]
    stopped = 0
    for (p, i), out, again in zip(jobs, prompt, late):
        rel = p.relations[i]
        args = (len(p.letters), without(p, i).relation_ids, 5000, caps.max_steps,
                p.encode((rel.lhs, rel.rhs)))
        found = witness_in_turn(compiled_kernel, *args[:2], args[4],
                                (2, congruence.WITNESS_POINTS), congruence.WITNESS_NODES)
        assert (out[0] == compiled_kernel.STATUS_STOPPED) == (found[0] is not None)
        if found[0] is None:
            assert out == again == run(*args)
        stopped += found[0] is not None
    assert stopped == 17


def test_concurrent_callers_get_a_lone_callers_answers(monkeypatch, compiled_kernel):
    """Four threads, more than the cores, call is_consequence on U(6)'s 31
    deletions at once under a short switch interval, through a helper
    thread that they may race to start.  Each call's flag, search and
    outcome are its own, so every answer and every IndeterminateError
    message is the one a lone caller gets."""
    monkeypatch.setattr(congruence, "_kernel", compiled_kernel)
    monkeypatch.setattr(congruence, "_helper", None)
    p = build_relations(RelationFamily.U, 6)
    caps = EnumerationCaps(max_classes=5000)

    def answers():
        out = []
        for i, rel in enumerate(p.relations):
            try:
                out.append(is_consequence(without(p, i), rel, caps))
            except IndeterminateError as e:
                out.append(str(e))
        return out

    alone = answers()
    assert (alone.count(True), alone.count(False)) == (2, 23)  # and 6 undecided
    got = [None] * 4
    threads = [threading.Thread(target=lambda k=k: got.__setitem__(k, answers()))
               for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [alone] * 4


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_forked_child_starts_its_own_helper():
    """The helper thread does not survive os.fork: the child's first
    is_consequence finds it not alive, starts its own and answers."""
    p, rel = reflection(), Relation(("x",), ("y",), "")
    caps = EnumerationCaps(max_classes=3000, max_steps=10**6)
    assert not is_consequence(p, rel, caps)
    assert congruence._helper.is_alive()
    pid = os.fork()
    if pid == 0:  # the child reports by its exit code alone
        code = 1
        try:
            code = 0 if is_consequence(p, rel, caps) is False else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def test_a_search_that_raises_leaves_no_run_waiting(monkeypatch, kernel):
    """witness raises MemoryError on the helper thread.  The search
    writes the flag in a finally, so no run waits for good: a capped
    call raises that error, a run that merges still answers True and one
    that completes False, and with witness restored the same helper
    answers the next capped call False."""
    monkeypatch.setattr(congruence, "_kernel", kernel)
    witness = kernel.witness

    def fail(*args):
        raise MemoryError("no room for the search")

    p, rel = reflection(), Relation(("x",), ("y",), "")
    caps = EnumerationCaps(max_classes=3000, max_steps=10**6)
    finite = Presentation("t", ("a",), (Relation(("a", "a"), ("a",), "sq"),))
    got = []

    def answer(q, r, c=None):
        try:
            got.append(is_consequence(q, r, c))
        except MemoryError as e:
            got.append(e)

    def calls():
        monkeypatch.setattr(kernel, "witness", fail)
        answer(p, rel, caps)
        helper = congruence._helper
        answer(finite, Relation(("a", "a", "a"), ("a",), ""))
        answer(finite, Relation(("a",), (), ""))
        monkeypatch.setattr(kernel, "witness", witness)
        answer(p, rel, caps)
        got.append(congruence._helper is helper and helper.is_alive())

    thread = threading.Thread(target=calls, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), f"a run still waits after {got}"
    assert isinstance(got[0], MemoryError) and str(got[0]) == "no room for the search"
    assert got[1:] == [True, False, False, True]


def test_importing_dimon_starts_no_thread_and_loads_no_queue():
    """The helper thread and the queue module wait for the first
    is_consequence: importing dimon and its command line, in a fresh
    interpreter, starts no thread and loads neither queue nor
    concurrent.futures."""
    src = os.path.dirname(os.path.dirname(congruence.__file__))
    code = ("import sys, threading; sys.path.insert(0, sys.argv[1]); "
            "import dimon, dimon.cli; print(threading.active_count(), "
            "'queue' in sys.modules, 'concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["1", "False", "False"]


def test_a_preset_stop_flag_stops_both_kernels_alike(compiled_kernel):
    """A flag set before the call.  run checks the step cap and then a
    flag of 1 before each class visit, so it stops at its first visit
    with equal (STATUS_STOPPED, None, stats) from both kernels, with and
    without a watch; a run whose step cap binds first, after the watch's
    trace, returns STATUS_STOPPED too, since the flag says the other
    search succeeded; a watch that merges as it is traced still answers
    STATUS_WATCH_MERGED.  A flag of 2 changes nothing, and witness stops
    before its first node.  Byte 0 is the flag, whatever follows it."""
    p = build_relations(RelationFamily.R, 4)
    rel, width = p.relations[0], len(p.letters)
    assert (rel.lhs, rel.rhs) == (("e_1", "e_1"), ("e_1",))
    rels, watch = without(p, 0).relation_ids, p.encode((rel.lhs, rel.rhs))
    # the watch's trace defines two classes in three steps
    for w, max_steps, defined, steps in (
        (None, 10**8, 1, 0),
        (watch, 10**8, 3, 3),
        (watch, 2, 3, 3),
    ):
        args = (width, rels, 10**6, max_steps, w, bytearray(b"\1\0"))
        out = _tc_py.run(*args)
        assert out == compiled_kernel.run(*args), (w, max_steps)
        assert out == (_tc_py.STATUS_STOPPED, None, {
            "classes_defined": defined, "peak_live_classes": defined,
            "coincidences": 0, "steps": steps})
    merged = p.encode((("e_1",), ("e_1",)))
    for kernel in (_tc_py, compiled_kernel):
        assert kernel.run(width, rels, 10**6, 10**8, merged, bytearray(b"\1"))[0] == (
            _tc_py.STATUS_WATCH_MERGED)
        assert kernel.witness(width, rels, watch, 3, 100, bytearray(b"\1")) == (None, 0)
        assert kernel.run(width, rels, 10**6, 10**8, watch, bytearray(b"\2\1")) == (
            _tc_py.run(width, rels, 10**6, 10**8, watch))


@pytest.mark.parametrize("stop, error", [
    pytest.param(b"\0", BufferError, id="bytes"),
    pytest.param(memoryview(bytearray(4))[::2], BufferError, id="strided"),
    pytest.param(bytearray(), ValueError, id="empty"),
    pytest.param(0, TypeError, id="int"),
])
def test_kernels_refuse_bad_stop_flags(kernel, stop, error):
    """The stop flag is checked where it enters run and witness: a
    read-only or non-contiguous buffer raises BufferError, as
    PyBUF_WRITABLE refuses it, an empty one ValueError and an object
    that is no buffer TypeError, in both kernels."""
    with pytest.raises(error):
        kernel.run(2, b"", 10, 10, None, stop)
    with pytest.raises(error):
        kernel.witness(2, b"", A_AA, 3, 10, stop)


def test_a_changed_witness_cell_is_refused(monkeypatch):
    """is_consequence re-checks the kernel's action before it answers
    False.  The action separating x from y, with any one cell changed to
    any point of three, no longer separates them in a model of the
    relations, and is refused with RuntimeError."""
    p, rel = reflection(), Relation(("x",), ("y",), "")
    caps = EnumerationCaps(max_classes=3000, max_steps=10**6)
    watch = p.encode((rel.lhs, rel.rhs))
    table, nodes = congruence._kernel.witness(3, p.relation_ids, watch, 2, 100)
    # h swaps the two points, x sends both to 0 and y both to 1
    assert memoryview(table).cast("i").tolist() == [1, 0, 1, 0, 0, 1]
    assert nodes == 21
    for k in range(6):
        for t in range(3):
            cells = array("i", table)
            if cells[k] == t:
                continue
            cells[k] = t
            changed = cells.tobytes()
            with pytest.raises(AssertionError):
                assert_separates(changed, 3, p.relation_ids, watch)
            monkeypatch.setattr(congruence._kernel, "witness", lambda *args: (changed, nodes))
            with pytest.raises(RuntimeError, match="witness search soundness"):
                is_consequence(p, rel, caps)


A_AA, AA_AAAA = encode((0,), (0, 0)), encode((0, 0), (0, 0, 0, 0))


# each case searches its point bounds in turn, as is_consequence does,
# and pins the nodes of each call and their total, the nodes such a
# schedule reports
@pytest.mark.parametrize("n_letters, watch, bounds, max_nodes, cells, nodes, total", [
    # a swap of two points separates a from a a
    pytest.param(1, A_AA, (2, 3), 100, [1, 0], [3], 3, id="swap"),
    # one point separates nothing
    pytest.param(1, A_AA, (1,), 100, None, [1], 1, id="one-point"),
    # a a = a a a a holds on two points; a 3-cycle separates it
    pytest.param(1, AA_AAAA, (2, 3), 100, [1, 2, 0], [4, 6], 10, id="3-cycle"),
    pytest.param(1, AA_AAAA, (2,), 100, None, [4], 4, id="two-points"),
    # each search stops after max_nodes nodes
    pytest.param(1, AA_AAAA, (2, 3), 5, None, [4, 5], 9, id="budget-5"),
    pytest.param(1, AA_AAAA, (2, 3), 0, None, [0, 0], 0, id="budget-0"),
    pytest.param(3, AA_AAAA, (2,), 50, None, [50], 50, id="two-point-budget"),
    # 4**20 actions of 20 free letters on two points: two searches of 100
    pytest.param(20, AA_AAAA, (2, 3), 100, None, [100, 100], 200, id="20-letters"),
    pytest.param(0, encode((), ()), (2, 3), 5, None, [0, 0], 0, id="no-letters"),
])
def test_witness_small_cases(kernel, n_letters, watch, bounds, max_nodes, cells, nodes,
                             total):
    """With no relations, each call searches actions on at most its
    point bound, within max_nodes nodes."""
    table, got = witness_in_turn(kernel, n_letters, b"", watch, bounds, max_nodes)
    assert got == nodes and sum(got) == total
    assert (table and memoryview(table).cast("i").tolist()) == cells


# <a, b | a = 1>: a relation with an empty side forces nothing at a
# point until a cell of its letter is defined there
A_IS_1 = encode((0,), ())


@pytest.mark.parametrize("watch, cells, nodes, total", [
    pytest.param(encode((1,), ()), [0, 1, 1, 0], [6], 6, id="b=1"),
    pytest.param(encode((0, 1), (1, 1)), [0, 1, 1, 0], [6], 6, id="ab=bb"),
    # b a = b follows from a = 1
    pytest.param(encode((1, 0), (1,)), None, [8, 16], 24, id="ba=b"),
])
def test_witness_with_an_identity_relation(kernel, watch, cells, nodes, total):
    """a = 1 is traced only after a cell of a is defined, so an action
    in which a fixes both points takes 6 nodes, and a consequence of
    a = 1 exhausts 2 points in 8 and then 3 in 16; both kernels search
    alike."""
    table, got = witness_in_turn(kernel, 2, A_IS_1, watch, (2, 3), 100)
    assert got == nodes and sum(got) == total
    assert (table and memoryview(table).cast("i").tolist()) == cells


@pytest.mark.parametrize("args, error, message", [
    pytest.param((2, b"", A_AA, 0, 10), ValueError, "max_points must be 1 to 256, got 0",
                 id="points-0"),
    pytest.param((2, b"", A_AA, 257, 10), ValueError, "max_points must be 1 to 256, got 257",
                 id="points-257"),
    pytest.param((2, b"", A_AA, 3, -1), ValueError, "max_nodes must be non-negative, got -1",
                 id="nodes-negative"),
    pytest.param((2, b"", encode((0,)), 3, 10), ValueError, "a watch is two words, got 1",
                 id="watch-of-1"),
    pytest.param((2, encode((0,)), A_AA, 3, 10), ValueError,
                 "relation words come in (lhs, rhs) pairs, got 1", id="odd-relation-words"),
    pytest.param((2, b"", encode((0,), (2,)), 3, 10), ValueError,
                 "letter id 2 is not in range(2)", id="letter-id"),
    pytest.param((-1, b"", encode((), ()), 3, 10), ValueError,
                 "n_letters must be non-negative, got -1", id="n-letters"),
    pytest.param((2, b"", None, 3, 10), TypeError, None, id="no-watch"),
    pytest.param((2, b"", memoryview(A_AA)[::2], 3, 10), BufferError, None, id="strided"),
])
def test_witness_refuses_bad_arguments(kernel, args, error, message):
    """witness checks its bounds, then reads its buffers as run does."""
    with pytest.raises(error, match=message and f"^{re.escape(message)}$"):
        kernel.witness(*args)


@pytest.mark.parametrize("family", tuple(RelationFamily))
def test_every_relation_holds_at_every_class(kernel, family):
    """No final sweep re-checks the relations, so the main loop alone
    must leave each of them holding at every class, not only at class 0."""
    for n in (4, 5):
        p = build_relations(family, n)
        status, table, stats = kernel.run(len(p.letters), p.relation_ids, 10**6, 10**8)
        assert status == kernel.STATUS_COMPLETE
        width = len(p.letters)
        assert type(table) is bytes
        classes = len(table) // (4 * width)
        assert classes * 4 * width == len(table)
        assert classes == CLASS_COUNTS[family][n]
        assert_standardized(table, width)
        assert_relations_hold_at_every_class(table, width, p.relation_ids)
        # each coincidence merges one class away for good
        assert stats["classes_defined"] - stats["coincidences"] == classes
        assert classes <= stats["peak_live_classes"] <= stats["classes_defined"]


def test_row_filling_counts_steps(kernel):
    """With no relations every class is defined while filling a row.  Each
    definition is a step, so a step cap ends the run after a few classes,
    long before the class cap lets the class arrays grow."""
    tracemalloc.start()
    try:
        out = kernel.run(2, b"", 10**5, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # classes 0..5 fill their rows in 12 steps, 12 > 10 stops class 6
    assert out == (kernel.STATUS_CAPPED, None, {
        "classes_defined": 13, "peak_live_classes": 13, "coincidences": 0, "steps": 12,
    })
    # 10**5 classes would take 1.2 MB in the compiled kernel's arrays
    assert peak < 2**18


@pytest.mark.parametrize("bad", [-1, 3])
def test_letter_ids_checked_at_the_kernel(kernel, bad):
    """An id outside range(n_letters), in a relation or in the watch pair,
    is refused before any class is read or written."""
    ok = ((0, 1), (2,))
    for relations, watch in (
        (encode((bad,), ()), None),
        (encode(*ok, (0,), (1, bad)), None),
        (encode(*ok), encode((bad,), ())),
        (encode(*ok), encode((0,), (2, bad))),
    ):
        with pytest.raises(ValueError, match=f"letter id {bad} is not in range\\(3\\)"):
            kernel.run(3, relations, 100, 10**6, watch)
    with pytest.raises(ValueError, match="n_letters must be non-negative"):
        kernel.run(-1, b"", 100, 10**6)


@pytest.mark.parametrize(
    "relations, error",
    [
        # three words, not pairs
        pytest.param(encode((0,), (1,), (0,)), ValueError, id="relations0-ValueError"),
        pytest.param(encode((0,)), ValueError, id="relations1-ValueError"),  # one word
        # a list of pairs is no buffer
        pytest.param([((0,), (1,))], TypeError, id="relations2-TypeError"),
        pytest.param(5, TypeError, id="relations3-TypeError"),
        # a str is no buffer either
        pytest.param("\0\0\0\0", TypeError, id="relations4-TypeError"),
        pytest.param(memoryview(encode((0,), ()) * 2)[::2], BufferError, id="strided"),
    ],
)
def test_malformed_relations_rejected(kernel, relations, error):
    """A relations buffer or a watch that is not whole (lhs, rhs) pairs
    raises ValueError, one that is not bytes-like TypeError, and one that
    is not contiguous BufferError."""
    with pytest.raises(error):
        kernel.run(2, relations, 100, 10**6)
    with pytest.raises(error):
        kernel.run(2, b"", 100, 10**6, relations)


@pytest.mark.parametrize("relations, watch, message", [
    pytest.param(encode((0, 1), ())[:-1], None, "15 bytes are not whole int32 cells",
                 id="odd-bytes"),
    pytest.param(encode((0,), ()), encode((0,), (1,)) + b"\0",
                 "17 bytes are not whole int32 cells", id="watch-odd-bytes"),
    pytest.param(array("i", [-1]).tobytes(), None, "word 0 has length -1, not 0 to 0",
                 id="negative-length"),
    pytest.param(encode((0,), ()), array("i", [0, -2]).tobytes(),
                 "word 1 has length -2, not 0 to 0", id="watch-negative-length"),
    pytest.param(encode((0, 1)) + array("i", [2, 0]).tobytes(), None,
                 "word 1 has length 2, not 0 to 1", id="past-the-end"),
    pytest.param(encode((0,), ()), array("i", [1, 0, 2, 1]).tobytes(),
                 "word 1 has length 2, not 0 to 1", id="watch-past-the-end"),
    pytest.param(encode((0,), (1,), (0,)), None,
                 "relation words come in (lhs, rhs) pairs, got 3", id="odd-relation-words"),
    pytest.param(encode((0,), ()), encode((0,)), "a watch is two words, got 1",
                 id="watch-of-1"),
    pytest.param(encode((0,), ()), encode((0,), (1,), (0,)), "a watch is two words, got 3",
                 id="watch-of-3"),
    pytest.param(encode((0,), ()), b"", "a watch is two words, got 0", id="watch-of-0"),
])
def test_malformed_word_buffers_rejected(kernel, relations, watch, message):
    """Both kernels refuse, with the same message, a relations buffer or a
    watch that is not whole words, an odd number of relation words, and
    a watch of other than two words."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kernel.run(2, relations, 100, 10**6, watch)


def test_kernels_read_any_bytes_like_words(kernel):
    """run reads a bytearray, or a memoryview starting at an odd byte
    offset, as it reads the same bytes, b"" among them."""
    def at_odd_offset(buf):
        return memoryview(b"\0" + buf)[1:]

    rels = encode((0, 1), (2,), (1, 1), ())
    watch = encode((0,), (0, 0))
    for relations, w in ((rels, None), (rels, watch), (b"", None), (b"", watch)):
        expected = kernel.run(3, relations, 100, 10**4, w)
        for view in (bytearray, at_odd_offset):
            assert kernel.run(3, view(relations), 100, 10**4, w and view(w)) == expected


def test_compiled_caps_beyond_c_types(compiled_kernel):
    """Class ids are C ints and the step count a C long long."""
    with pytest.raises(OverflowError):
        compiled_kernel.run(1, b"", 2**31, 10)
    with pytest.raises(OverflowError):
        compiled_kernel.run(1, b"", 10, 2**63)
    with pytest.raises(OverflowError):
        compiled_kernel.run(2**31, b"", 10, 10)
    # the largest caps are accepted (a negative step cap stops at once)
    capped = (_tc_py.STATUS_CAPPED, None)
    assert compiled_kernel.run(1, b"", 2**31 - 1, -1)[:2] == capped
    assert compiled_kernel.run(1, b"", 10, 2**63 - 1)[:2] == capped


def test_power_identities_follow_from_u():
    """x^j absorbs e_i on the right for i <= j, dually for y."""
    for n in (4, 5):
        p = build_relations(RelationFamily.U, n)
        for j in range(1, n + 1):
            for i in range(1, j + 1):
                xs = ("x",) * j
                assert is_consequence(p, Relation(xs + (f"e_{i}",), xs, ""))
                ys = ("y",) * j
                assert is_consequence(p, Relation((f"e_{i}",) + ys, ys, ""))


def test_rotation_shift_laws():
    """e_i g^m = g^m e_{i+m mod n}, from the full family and from the
    single commutation relation alone (whose quotient is infinite)."""
    for n in (4, 5):
        p = build_relations(RelationFamily.Q, n)
        for i in range(1, n + 1):
            for m in range(1, n):
                j = (i + m - 1) % n + 1
                rel = Relation(
                    (f"e_{i}",) + ("g",) * m, ("g",) * m + (f"e_{j}",), ""
                )
                assert is_consequence(p, rel)
    p = build_relations(RelationFamily.Q, 4)
    shifts_only = Presentation("shifts", p.letters, tagged(p, "Q_4"))
    for i in range(1, 5):
        for m in range(1, 4):
            j = (i + m - 1) % 4 + 1
            rel = Relation((f"e_{i}",) + ("g",) * m, ("g",) * m + (f"e_{j}",), "")
            assert is_consequence(p, rel)
            assert is_consequence(shifts_only, rel)


def test_rank_two_products_collapse():
    """All x_i x_j, y_i y_j, and mixed i != j products equal e_2...e_n."""
    for n in (4, 5):
        p = build_relations(RelationFamily.R, n)
        m = (n - 1) // 2
        bottom = tuple(f"e_{k}" for k in range(2, n + 1))
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                assert is_consequence(p, Relation((f"x_{i}", f"x_{j}"), bottom, ""))
                assert is_consequence(p, Relation((f"y_{i}", f"y_{j}"), bottom, ""))
                if i != j:
                    assert is_consequence(p, Relation((f"x_{i}", f"y_{j}"), bottom, ""))
                    assert is_consequence(p, Relation((f"y_{j}", f"x_{i}"), bottom, ""))


def test_reflection_conjugation_derivation():
    """hy = xh follows from h^2 = 1 and hx = yh, although the monoid
    presented by those two relations alone is infinite."""
    p = reflection()
    assert is_consequence(p, Relation(("h", "y"), ("x", "h"), ""))
    # but x = y does not follow: the run caps, and on two points h swapping
    # them, x sending both to 0 and y both to 1 satisfy h h = 1 and h x = y h
    caps = EnumerationCaps(max_classes=3000, max_steps=10**6)
    assert not is_consequence(p, Relation(("x",), ("y",), ""), caps)


def test_capped_without_a_small_witness_is_indeterminate():
    """Q(5) without Q_10[i=1] caps at 5000 classes, and no action on at
    most three points separates the deleted relation in the 124 nodes of
    its two searches.  The message gives the run's counters against both
    caps, so one capped by its steps names them."""
    p = build_relations(RelationFamily.Q, 5)
    rel = p.relations[42]
    assert rel.tag == "Q_10[i=1]"
    nodes = "no action on at most 3 points separates it in the 124 nodes searched"
    with pytest.raises(IndeterminateError, match=rf"^capped at 5000 classes defined "
                       rf"\(cap 5000\) after \d+ steps \(cap 100000000\) .*{nodes}$"):
        is_consequence(without(p, 42), rel, EnumerationCaps(max_classes=5000))
    with pytest.raises(IndeterminateError, match=rf"^capped at \d+ classes defined "
                       rf"\(cap 1000000\) after 1099 steps \(cap 1000\) .*{nodes}$"):
        is_consequence(without(p, 42), rel, EnumerationCaps(max_steps=1000))


@pytest.mark.parametrize("case, calls, answer", [
    # h swaps two points, x sends both to 0 and y both to 1
    pytest.param("x=y", [(2, 21, True)], False, id="found-on-2"),
    # a a = a a a a holds on two points; a 3-cycle separates it
    pytest.param("aa=aaaa", [(2, 4, False), (3, 6, True)], False, id="found-on-3"),
    # the 124 nodes that the IndeterminateError names
    pytest.param("Q(5) #42", [(2, 24, False), (3, 100, False)], None, id="none"),
])
def test_is_consequence_searches_two_points_then_three(monkeypatch, case, calls, answer):
    """A capped is_consequence asks the kernel for one search on at most
    2 points and, only if that finds no action, one on at most
    WITNESS_POINTS, each within WITNESS_NODES nodes."""
    q = build_relations(RelationFamily.Q, 5)
    p, rel, caps = {
        "x=y": (reflection(), Relation(("x",), ("y",), ""),
                EnumerationCaps(max_classes=3000, max_steps=10**6)),
        "aa=aaaa": (Presentation("free", ("a",), ()),
                    Relation(("a", "a"), ("a", "a", "a", "a"), ""),
                    EnumerationCaps(max_classes=100)),
        "Q(5) #42": (without(q, 42), q.relations[42], EnumerationCaps(max_classes=5000)),
    }[case]
    searches = []
    witness = congruence._kernel.witness

    def spy(*args):
        table, nodes = witness(*args)
        assert args[4] == congruence.WITNESS_NODES
        searches.append((args[3], nodes, table is not None))
        return table, nodes

    monkeypatch.setattr(congruence._kernel, "witness", spy)
    try:
        got = is_consequence(p, rel, caps)
    except IndeterminateError:
        got = None
    assert got is answer
    assert searches == calls


def test_is_consequence_false_on_finite():
    p = Presentation("t", ("a",), (Relation(("a", "a"), ("a",), "sq"),))
    assert not is_consequence(p, Relation(("a",), (), ""))
    assert is_consequence(p, Relation(("a", "a", "a"), ("a",), ""))


@pytest.mark.parametrize("family", tuple(RelationFamily))
@pytest.mark.parametrize("n", [4, 5])
def test_verify_presentation_passes(family, n):
    p = build_relations(family, n)
    m = build_named(TARGETS[family], n)
    v = verify_presentation(p, build_assignment(family, n), m)
    assert v.verdict is Verdict.PASS
    assert v.class_count == v.monoid_size == CLASS_COUNTS[family][n]
    assert v.stats == enumerate_congruence(p).stats


def test_verify_presentation_fails_without_r11():
    p = build_relations(RelationFamily.R, 4)
    mutated = without(p, p.relations.index(tagged(p, "R_11")[0]))
    v = verify_presentation(
        mutated,
        build_assignment(RelationFamily.R, 4),
        build_named(MonoidFamily.ODI, 4),
        EnumerationCaps(max_classes=20000),
    )
    assert v.verdict is Verdict.FAIL
    assert v.class_count == 45
    assert v.stats["classes_defined"] - v.stats["coincidences"] == 45


@pytest.mark.parametrize("family", (RelationFamily.R, RelationFamily.Q))
def test_verify_presentation_counts_every_larger_deletion(family):
    """Each relation of the family at n = 4 dropped in turn: a complete
    run with more classes than the monoid is FAIL with its class count,
    not unsound, and one with as many classes is PASS.  The relations
    all hold, so no tags are reported."""
    p = build_relations(family, 4)
    a = build_assignment(family, 4)
    m = build_named(TARGETS[family], 4)
    caps = EnumerationCaps(max_classes=5000, max_steps=10**7)
    larger = 0
    for i in range(len(p.relations)):
        smaller = without(p, i)
        r = enumerate_congruence(smaller, caps)
        v = verify_presentation(smaller, a, m, caps)
        assert v.failing_tags == () and v.stats == r.stats
        if not r.is_complete:
            assert v.verdict is Verdict.INDETERMINATE
        elif r.class_count > m.size:
            assert (v.verdict, v.class_count) == (Verdict.FAIL, r.class_count)
            larger += 1
        else:
            assert (v.verdict, v.class_count) == (Verdict.PASS, m.size)
    assert larger > 0


def test_verify_presentation_fails_on_bad_relation():
    p = build_relations(RelationFamily.R, 4)
    bad = Presentation(p.label, p.letters, p.relations + (Relation(("x",), ("y",), "bogus"),))
    v = verify_presentation(
        bad, build_assignment(RelationFamily.R, 4), build_named(MonoidFamily.ODI, 4)
    )
    assert v.verdict is Verdict.FAIL
    assert v.failing_tags == ("bogus",)


def test_verify_presentation_fails_on_bad_relation_when_capped():
    p = build_relations(RelationFamily.R, 5)
    bad = Presentation(p.label, p.letters, p.relations + (Relation(("x",), ("y",), "bogus"),))
    v = verify_presentation(
        bad, build_assignment(RelationFamily.R, 5), build_named(MonoidFamily.ODI, 5),
        EnumerationCaps(max_classes=10),
    )
    assert v.verdict is Verdict.FAIL
    assert v.failing_tags == ("bogus",) and v.class_count is None


def test_verify_presentation_checks_the_table_not_only_its_size(monkeypatch):
    """A complete table of the right size with one entry changed does
    not map onto the monoid, and the relations all hold: unsound."""
    p = build_relations(RelationFamily.R, 4)
    r = enumerate_congruence(p)
    t = memoryview(r.table).cast("i")[3 * len(r.letters) + 1]
    changed = with_entry(r, 3, 1, (t + 1) % r.class_count)
    monkeypatch.setattr(congruence, "enumerate_congruence", lambda p, caps: changed)
    with pytest.raises(RuntimeError, match="soundness"):
        verify_presentation(
            p, build_assignment(RelationFamily.R, 4), build_named(MonoidFamily.ODI, 4)
        )


def test_verify_presentation_indeterminate_and_generation_check():
    v = verify_presentation(
        build_relations(RelationFamily.R, 5),
        build_assignment(RelationFamily.R, 5),
        build_named(MonoidFamily.ODI, 5),
        EnumerationCaps(max_classes=30),
    )
    assert v.verdict is Verdict.INDETERMINATE
    with pytest.raises(ValueError):
        verify_presentation(
            build_relations(RelationFamily.U, 4),
            build_assignment(RelationFamily.U, 4),
            build_named(MonoidFamily.ODI, 4),
        )


def test_single_deletions_never_shrink_qprime():
    """Deleting any one defining relation can only coarsen the quotient
    monoid, never shrink the class count below the full presentation's."""
    p = build_relations(RelationFamily.Q_PRIME, 4)
    assert len(p.relations) == 18
    caps = EnumerationCaps(max_classes=5000, max_steps=10**7)
    for i in range(len(p.relations)):
        mutated = without(p, i)
        r = enumerate_congruence(mutated, caps)
        if r.is_complete:
            assert r.class_count >= 77
        # capped runs are fine: the deletion freed an infinite quotient


def test_verify_forms_set_trivial():
    from dimon.iperm import PartialPerm
    from dimon.presentations import Assignment

    # OCI_1 = {id, empty}: presented by one idempotent letter
    p = Presentation("t", ("a",), (Relation(("a", "a"), ("a",), "sq"),))
    a = Assignment(1, (("a", PartialPerm(bytes(2))),))
    m = build_named(MonoidFamily.OCI, 1)
    forms = FormsSet("t", ("a",), ((), ("a",)))
    v = verify_forms_set(p, forms, a, m)
    assert v.verdict is Verdict.PASS


@pytest.mark.parametrize("n", [4, 5])
def test_verify_forms_sets_pass(n):
    base_u = enumerate_congruence(build_relations(RelationFamily.U, n))
    w = build_forms(RelationFamily.R, n, base_u)
    v = verify_forms_set(
        build_relations(RelationFamily.R, n), w,
        build_assignment(RelationFamily.R, n), build_named(MonoidFamily.ODI, n),
    )
    assert v.verdict is Verdict.PASS and not v.problems

    base_v = enumerate_congruence(build_relations(RelationFamily.V, n))
    wbar = build_forms(RelationFamily.VBAR, n, base_v)
    v = verify_forms_set(
        build_relations(RelationFamily.VBAR, n), wbar,
        build_assignment(RelationFamily.VBAR, n), build_named(MonoidFamily.MDI, n),
    )
    assert v.verdict is Verdict.PASS and not v.problems

    qf = build_forms(RelationFamily.Q, n)
    v = verify_forms_set(
        build_relations(RelationFamily.Q, n), qf,
        build_assignment(RelationFamily.Q, n), build_named(MonoidFamily.OPDI, n),
    )
    assert v.verdict is Verdict.PASS and not v.problems


def test_verify_forms_set_reports_problems():
    n = 4
    p = build_relations(RelationFamily.Q, n)
    a = build_assignment(RelationFamily.Q, n)
    m = build_named(MonoidFamily.OPDI, n)
    good = build_forms(RelationFamily.Q, n)
    # replace the last word by the first: a shared class and a missing one
    words = good.words[:-1] + (good.words[0],)
    v = verify_forms_set(p, FormsSet(good.label, good.letters, words), a, m)
    assert v.verdict is Verdict.FAIL
    assert v.problems == ("two forms share a class", "forms do not cover every class")
    # drop one word: wrong count and a missing class
    words = good.words[:-1]
    v = verify_forms_set(p, FormsSet(good.label, good.letters, words), a, m)
    assert v.verdict is Verdict.FAIL
    assert v.problems == ("forms do not cover every class", "76 forms against monoid size 77")


def test_verify_forms_set_reports_unmapped_classes():
    n = 5
    p = build_relations(RelationFamily.R, n)
    a = build_assignment(RelationFamily.R, n)
    swap = {"x": "y", "y": "x"}
    swapped = Assignment(
        n, tuple((name, a.image(swap.get(name, name))) for name in a.names())
    )
    forms = build_forms(
        RelationFamily.R, n, enumerate_congruence(build_relations(RelationFamily.U, n))
    )
    v = verify_forms_set(p, forms, swapped, build_named(MonoidFamily.ODI, n))
    assert v.verdict is Verdict.FAIL
    assert v.problems == ("classes do not map onto the monoid's elements",)


def test_verify_forms_set_refuses_forms_over_other_letters():
    """R(4)'s forms against R(4) without e_4: refused up front, naming
    both alphabets, before any form is traced."""
    n = 4
    p = build_relations(RelationFamily.R, n)
    forms = build_forms(
        RelationFamily.R, n, enumerate_congruence(build_relations(RelationFamily.U, n))
    )
    smaller = eliminate_generator(p, "e_4", ("x", "y"))
    with pytest.raises(ValueError) as info:
        verify_forms_set(smaller, forms, build_assignment(RelationFamily.R, n),
                         build_named(MonoidFamily.ODI, n))
    assert str(forms.letters) in str(info.value)
    assert str(smaller.letters) in str(info.value)


def test_verify_closes_no_images_that_are_the_monoids_generators(monkeypatch):
    """V and QPrime assign the target monoid's own generators, in order:
    both verify paths then compare with the monoid's table and close
    nothing."""
    cases = [(family, n, build_named(TARGETS[family], n))
             for family, n in ((RelationFamily.V, 5), (RelationFamily.Q_PRIME, 5))]

    def closure(*args):
        raise AssertionError("closure called")

    monkeypatch.setattr(congruence.monoids, "closure", closure)
    for family, n, m in cases:
        p, a = build_relations(family, n), build_assignment(family, n)
        v = verify_presentation(p, a, m)
        assert (v.verdict, v.class_count) == (Verdict.PASS, m.size)
        forms = normal_forms(enumerate_congruence(p), p.letters)
        assert verify_forms_set(p, forms, a, m).verdict is Verdict.PASS


def test_verify_builds_no_key_index_it_does_not_read(monkeypatch):
    """A monoid holds its key buffer and right table and caches nothing per
    element that verification does not read.  Verifying U and QPrime,
    whose images are the monoid's own generators, checking that the
    images generate it, counting its Green's classes and testing
    membership leave it with neither its elements nor its left table;
    so do verifying R and the one closure of R's images it makes."""
    fields = {"degree", "key_bytes", "generators", "right_cayley"}
    for family, n in ((RelationFamily.U, 5), (RelationFamily.Q_PRIME, 5)):
        m = build_named(TARGETS[family], n)
        p, a = build_relations(family, n), build_assignment(family, n)
        assert verify_presentation(p, a, m).verdict is Verdict.PASS
        forms = normal_forms(enumerate_congruence(p), p.letters)
        assert verify_forms_set(p, forms, a, m).verdict is Verdict.PASS
        assert verify_generates(m, [f for _, f in a.images])
        assert green_classes(m).sizes[0] > 0
        assert named_generator("h", 5) not in m
        assert set(m.__dict__) == fields, family
    p, a = build_relations(RelationFamily.R, 5), build_assignment(RelationFamily.R, 5)
    m = build_named(MonoidFamily.ODI, 5)
    closed = []

    def recording_closure(*args, **kwargs):
        closed.append(closure(*args, **kwargs))
        return closed[-1]

    monkeypatch.setattr(congruence.monoids, "closure", recording_closure)
    assert verify_presentation(p, a, m).verdict is Verdict.PASS
    assert len(closed) == 1
    assert set(m.__dict__) == set(closed[0].__dict__) == fields


def test_capped_verify_closes_no_images(monkeypatch):
    """The images are closed only to compare with a complete run's table:
    a capped verify checks generation and closes nothing."""
    p, a = build_relations(RelationFamily.R, 5), build_assignment(RelationFamily.R, 5)
    m = build_named(MonoidFamily.ODI, 5)
    closed = []
    monkeypatch.setattr(congruence.monoids, "closure", lambda *args: closed.append(args))
    v = verify_presentation(p, a, m, EnumerationCaps(max_classes=20))
    assert v.verdict is Verdict.INDETERMINATE and closed == []


def test_verify_builds_no_elements_or_left_table():
    """The verify paths read the monoid's keys and right table only."""
    m = build_named(MonoidFamily.ODI, 5)
    v = verify_presentation(
        build_relations(RelationFamily.R, 5), build_assignment(RelationFamily.R, 5), m
    )
    assert v.verdict is Verdict.PASS
    assert "elements" not in m.__dict__ and "left_cayley" not in m.__dict__
    m = build_named(MonoidFamily.OPDI, 5)
    v = verify_forms_set(
        build_relations(RelationFamily.Q, 5), build_forms(RelationFamily.Q, 5),
        build_assignment(RelationFamily.Q, 5), m,
    )
    assert v.verdict is Verdict.PASS
    assert "elements" not in m.__dict__ and "left_cayley" not in m.__dict__


def test_normal_forms_u4():
    p = build_relations(RelationFamily.U, 4)
    r = enumerate_congruence(p)
    fs = normal_forms(r, build_alphabet(RelationFamily.U, 4))
    assert len(fs.words) == 38
    assert fs.words[0] == ()
    # representatives are indexed by class
    assert r.word_classes(fs.words) == list(range(len(fs.words)))
    # and are closed under taking prefixes
    reps = set(fs.words)
    for w in fs.words:
        assert w[:-1] in reps or w == ()
    # in shortlex order: by length, then letter by letter in alphabet order
    rank = {name: k for k, name in enumerate(fs.letters)}
    keys = [(len(w), [rank[a] for a in w]) for w in fs.words]
    assert keys == sorted(keys)
    with pytest.raises(ValueError):
        normal_forms(r, build_alphabet(RelationFamily.Q, 4))
    free = Presentation("free", ("a",), ())
    capped = enumerate_congruence(free, EnumerationCaps(max_classes=5))
    with pytest.raises(IndeterminateError):
        normal_forms(capped, ("a",))
