"""Alphabets, relation families, assignments and forms sets.

Words are tuples of letter names ("x", "e_3", "x_2", ...).  Each
relation family is parameterized by the chain length n and expanded
eagerly: powers are spelled out letter by letter and every index range
is instantiated.  A chain of equalities u1 = u2 = ... = uk contributes
the k-1 relations between consecutive members.

Every relation carries a tag such as "R_7[i=1,j=2]" naming the clause
and index values it came from, for failure diagnostics.  Relation
order within a family is fixed (clause by clause, indices ascending)
so builds are reproducible.

The families:

    R, U        order-preserving family and its two-sided-ideal core
                over the alphabets A = {x, y, e_1..e_n, x_i, y_i} and
                C = {x, y, e_1..e_n}
    V           R rewritten without e_1 and e_n (B = A minus those)
    Vbar        V extended by the reversal letter h
    VbarPrime   the h-extension over the smaller alphabet
                {h, x, e_2..e_q, x_i, y_i}, q = floor((n+1)/2)
    Q, Q0       orientation-preserving family over D = {g, e_1..e_n,
                x_i} and its core D0 = {g, e_1..e_n}
    QPrime      Q compressed to D' = {g, e_1, x_i}

Two clause shapes recur, each written once, with i = 1..floor((n-1)/2):

    absorption  x_i w_j = x_i and w_j y_i = y_i (R_7, V_10, Vp_10), or
                w_j x_i = x_i and y_i w_j = y_i (R_8, V_11, Vp_11), over a
                range of j; Q_7, Q_8, Qp_7, Qp_8 lack the y_i half.  R_7
                skips j = n-i+1 as x_i e_{n-i+1} heads R_10's chain; V_10
                and Vp_10 skip the heads of V_14's and Vp_14's chains.
    rank-2      x_i w = e_{i+1} x_i = y_i e_{i+1} = w y_i = bottom (R_10,
    chain       V_14, Vp_14).

Every family needs n >= 4.  ``build_alphabet`` and
``expected_relation_count`` check it; the relations, assignments and
forms builders reach that check through ``build_alphabet`` before they
build anything.  ``TARGET_MONOID`` names the monoid each family
presents, and ``FORMS_SEED`` the families with a forms set and the
family whose enumeration seeds each one.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import functools
import itertools
import struct

from .iperm import PartialPerm, compose, identity, named_generator
from .monoids import MonoidFamily, generator_names


@dataclasses.dataclass(frozen=True)
class Relation:
    """A pair of words, usually written lhs = rhs."""

    lhs: "tuple[str, ...]"
    rhs: "tuple[str, ...]"
    tag: str = ""


@dataclasses.dataclass(frozen=True)
class Presentation:
    """An alphabet of letter names with a finite list of defining relations.

    A letter's id, the integer the enumeration kernel reads, is its
    position in letters.  Construction checks the letters by encoding
    them: one pass builds the name-to-id map and relation_ids, and a
    name the map lacks is an unknown letter.
    """

    label: str
    letters: "tuple[str, ...]"
    relations: "tuple[Relation, ...]"
    _ids: "dict[str, int]" = dataclasses.field(init=False, repr=False, compare=False)
    #: Every relation's lhs and then its rhs, in encode's form: the
    #: enumeration kernel's input, encoded once, in __post_init__.
    relation_ids: bytes = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = {name: k for k, name in enumerate(self.letters)}
        if len(ids) != len(self.letters):
            raise ValueError("duplicate letter names")
        object.__setattr__(self, "_ids", ids)
        try:
            object.__setattr__(self, "relation_ids", self.encode(
                w for r in self.relations for w in (r.lhs, r.rhs)))
        except KeyError as exc:
            # relations are encoded in order, so the first one with a
            # name outside the map is the one that raised
            rel = next(r for r in self.relations if not ids.keys() >= {*r.lhs, *r.rhs})
            raise ValueError(
                f"relation {rel.tag or rel}: unknown letter {exc.args[0]!r}"
            ) from None

    def encode(self, words) -> bytes:
        """The words as the kernel reads them: native int32 cells, each word
        its length and then its letter ids; KeyError for an unknown name."""
        cells = []
        for w in words:
            cells.append(len(w))
            cells += map(self._ids.__getitem__, w)
        return struct.pack(f"{len(cells)}i", *cells)

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "letters": list(self.letters),
            "relations": [
                {"lhs": list(r.lhs), "rhs": list(r.rhs), "tag": r.tag}
                for r in self.relations
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Presentation":
        """The inverse of to_json_dict; ValueError unless the alphabet, the
        relations and every word are arrays, and each name a string."""
        rels = data["relations"]
        words = [data["letters"]] + [r[side] for r in rels for side in ("lhs", "rhs")]
        if not all(isinstance(v, list) for v in [rels] + words):
            raise ValueError("the alphabet, the relations and every word must be arrays")
        names = [data["label"]] + [r.get("tag", "") for r in rels]
        if not all(isinstance(x, str) for x in names + [x for w in words for x in w]):
            raise ValueError("every letter, the label and every tag must be strings")
        return cls(
            label=data["label"],
            letters=tuple(data["letters"]),
            relations=tuple(
                Relation(tuple(r["lhs"]), tuple(r["rhs"]), r.get("tag", ""))
                for r in rels
            ),
        )


@dataclasses.dataclass(frozen=True)
class Assignment:
    """The partial permutation of each letter name: a homomorphism."""

    degree: int
    images: "tuple[tuple[str, PartialPerm], ...]"

    def __post_init__(self):
        if len(self._map) != len(self.images):
            raise ValueError("duplicate letter names")
        for name, f in self.images:
            if f.degree != self.degree:
                raise ValueError(f"image of {name!r} has degree {f.degree}")

    @functools.cached_property
    def _map(self) -> "dict[str, PartialPerm]":
        return dict(self.images)

    def image(self, name: str) -> PartialPerm:
        return self._map[name]

    def names(self) -> "tuple[str, ...]":
        return tuple(name for name, _ in self.images)


@dataclasses.dataclass(frozen=True)
class FormsSet:
    """A list of candidate representative words, one per congruence class."""

    label: str
    letters: "tuple[str, ...]"
    words: "tuple[tuple[str, ...], ...]"


class RelationFamily(enum.Enum):
    """The relation families, in the order of the standard count table."""

    R = "R"
    V = "V"
    VBAR = "Vbar"
    VBAR_PRIME = "VbarPrime"
    Q = "Q"
    Q_PRIME = "QPrime"
    U = "U"
    Q0 = "Q0"

    @classmethod
    def parse(cls, text: str) -> "RelationFamily":
        """Accept the canonical spelling in any case ("R", "vbarprime")."""
        key = text.strip().lower().replace("_", "").replace("-", "")
        for fam in cls:
            if fam.value.lower() == key:
                return fam
        valid = ", ".join(f.value for f in cls)
        raise ValueError(f"unknown relation family {text!r}; expected one of {valid}")


# the monoid each relation family presents
TARGET_MONOID = {
    RelationFamily.R: MonoidFamily.ODI,
    RelationFamily.V: MonoidFamily.ODI,
    RelationFamily.U: MonoidFamily.OCI,
    RelationFamily.VBAR: MonoidFamily.MDI,
    RelationFamily.VBAR_PRIME: MonoidFamily.MDI,
    RelationFamily.Q: MonoidFamily.OPDI,
    RelationFamily.Q_PRIME: MonoidFamily.OPDI,
    RelationFamily.Q0: MonoidFamily.CI,
}

# the families with a forms set, and the family whose enumeration seeds
# each one; Q's forms are explicit
FORMS_SEED = {
    RelationFamily.R: RelationFamily.U,
    RelationFamily.VBAR: RelationFamily.V,
    RelationFamily.Q: None,
}


def _check_n(n: int) -> None:
    if n < 4:
        raise ValueError(f"relation families need n >= 4, got {n}")


def _erun(lo: int, hi: int) -> "list[str]":
    """The word e_lo e_{lo+1} ... e_hi; empty when lo > hi."""
    return [f"e_{i}" for i in range(lo, hi + 1)]


def _pow(name: str, k: int) -> "list[str]":
    return [name] * k


def build_alphabet(family: RelationFamily, n: int) -> "tuple[str, ...]":
    """The family's letter names in their standard listed order.

    U, V, VbarPrime and QPrime are written over the standard generating
    set of the monoid they present, so their alphabets are its names.

    >>> build_alphabet(RelationFamily.Q_PRIME, 4)
    ('g', 'e_1', 'x_1')
    >>> len(build_alphabet(RelationFamily.R, 4))
    8
    """
    _check_n(n)
    m = (n - 1) // 2
    xs = [f"x_{i}" for i in range(1, m + 1)]
    ys = [f"y_{i}" for i in range(1, m + 1)]
    if family == RelationFamily.R:
        return tuple(["x", "y"] + _erun(1, n) + xs + ys)
    if family == RelationFamily.VBAR:
        return ("h",) + build_alphabet(RelationFamily.V, n)
    if family == RelationFamily.Q:
        return tuple(["g"] + _erun(1, n) + xs)
    if family == RelationFamily.Q0:
        return tuple(["g"] + _erun(1, n))
    return tuple(generator_names(TARGET_MONOID[family], n))


class _Rels:
    """Relation list builder: collects pairs and expands chains."""

    def __init__(self):
        self.out: "list[Relation]" = []

    def add(self, lhs, rhs, tag):
        self.out.append(Relation(tuple(lhs), tuple(rhs), tag))

    def chain(self, words, tag):
        for a, b in zip(words, words[1:]):
            self.add(a, b, tag)


def _e(j: int) -> "list[str]":
    return [f"e_{j}"]


def _absorb(r: _Rels, clause, m, js, word, *, left, skip=None, ys=True) -> None:
    """The absorption clause for i = 1..m and j in js but skip(i), w = word(j):
    its y_i half mirrors the x_i half only because every w is a palindrome."""
    for i in range(1, m + 1):
        x, y = f"x_{i}", f"y_{i}"
        for j in js:
            if skip is not None and j == skip(i):
                continue
            w, tag = word(j), f"{clause}[i={i},j={j}]"
            r.add([x] + w if left else w + [x], [x], tag)
            if ys:
                r.add(w + [y] if left else [y] + w, [y], tag)


def _rank2_chain(r: _Rels, tag, i, w, bottom) -> None:
    """The chain x_i w = e_{i+1} x_i = y_i e_{i+1} = w y_i = bottom."""
    x, y, e = f"x_{i}", f"y_{i}", f"e_{i+1}"
    r.chain([[x] + w, [e, x], [y, e], w + [y], bottom], f"{tag}[i={i}]")


def _relations_r1_to_r5(n: int, r: _Rels) -> None:
    for i in range(1, n + 1):
        r.add([f"e_{i}", f"e_{i}"], [f"e_{i}"], f"R_1[i={i}]")
    r.add(["x", "y"], [f"e_{n}"], "R_2")
    r.add(["y", "x"], ["e_1"], "R_2")
    r.add(["x", "e_1"], ["x"], "R_3")
    r.add(["e_1", "y"], ["y"], "R_3")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            r.add([f"e_{i}", f"e_{j}"], [f"e_{j}", f"e_{i}"], f"R_4[i={i},j={j}]")
    for i in range(1, n):
        r.add([f"e_{i}", "x"], ["x", f"e_{i+1}"], f"R_5[i={i}]")


def _relation_r11(n: int, r: _Rels) -> None:
    r.add(["x"] + _erun(2, n), _erun(1, n), "R_11")


def _relations_R(n: int) -> "list[Relation]":
    m = (n - 1) // 2
    r = _Rels()
    _relations_r1_to_r5(n, r)
    for i in range(1, m + 1):
        r.add([f"x_{i}", f"y_{i}"], _erun(2, i) + _erun(i + 2, n), f"R_6[i={i}]")
        r.add([f"y_{i}", f"x_{i}"], _erun(2, n - i) + _erun(n - i + 2, n), f"R_6[i={i}]")
    _absorb(r, "R_7", m, range(2, n + 1), _e, left=True, skip=lambda i: n - i + 1)
    _absorb(r, "R_8", m, range(2, n + 1), _e, left=False, skip=lambda i: i + 1)
    for i in range(1, m + 1):
        rhs_x = _pow("x", n - 2 * i) + _erun(n - 2 * i + 1, n - i) + _erun(n - i + 2, n)
        r.chain([["e_1", f"x_{i}"], [f"x_{i}", "e_1"], rhs_x], f"R_9[i={i}]")
        rhs_y = _pow("y", n - 2 * i) + _erun(1, i) + _erun(i + 2, 2 * i)
        r.chain([["e_1", f"y_{i}"], [f"y_{i}", "e_1"], rhs_y], f"R_9[i={i}]")
    for i in range(1, m + 1):
        _rank2_chain(r, "R_10", i, _e(n - i + 1), _erun(2, n))
    _relation_r11(n, r)
    return r.out


def _relations_U(n: int) -> "list[Relation]":
    r = _Rels()
    _relations_r1_to_r5(n, r)
    _relation_r11(n, r)
    return r.out


def _relations_V(n: int) -> "list[Relation]":
    m = (n - 1) // 2
    xy = ["x", "y"]
    yx = ["y", "x"]
    u0 = _erun(2, n - 1) + xy
    r = _Rels()
    for i in range(2, n):
        r.add([f"e_{i}", f"e_{i}"], [f"e_{i}"], f"V_1[i={i}]")
    r.add(["x", "y", "x"], ["x"], "V_2")
    r.add(["y", "x", "y"], ["y"], "V_2")
    r.add(["y", "x", "x", "y"], ["x", "y", "y", "x"], "V_3")
    for i in range(2, n):
        for j in range(i + 1, n):
            r.add([f"e_{i}", f"e_{j}"], [f"e_{j}", f"e_{i}"], f"V_4[i={i},j={j}]")
    for i in range(2, n):
        r.add(xy + [f"e_{i}"], [f"e_{i}"] + xy, f"V_5[i={i}]")
        r.add(yx + [f"e_{i}"], [f"e_{i}"] + yx, f"V_5[i={i}]")
    for i in range(2, n - 1):
        r.add(["x", f"e_{i+1}"], [f"e_{i}", "x"], f"V_6[i={i}]")
    r.add(["x", "x", "y"], [f"e_{n-1}", "x"], "V_7")
    r.add(["y", "x", "x"], ["x", "e_2"], "V_7")
    r.add(yx + u0, ["x"] + u0, "V_8")
    for i in range(1, m + 1):
        r.add([f"x_{i}", f"y_{i}"], _erun(2, i) + _erun(i + 2, n - 1) + xy, f"V_9[i={i}]")
    r.add(["y_1", "x_1"], _erun(2, n - 1), "V_9[i=1]")
    for i in range(2, m + 1):
        r.add(
            [f"y_{i}", f"x_{i}"],
            _erun(2, n - i) + _erun(n - i + 2, n - 1) + xy,
            f"V_9[i={i}]",
        )
    _absorb(r, "V_10", m, range(2, n), _e, left=True, skip=lambda i: n - i + 1)
    _absorb(r, "V_11", m, range(2, n), _e, left=False, skip=lambda i: i + 1)
    for i in range(2, m + 1):
        r.chain([[f"x_{i}"] + xy, xy + [f"x_{i}"], [f"x_{i}"]], f"V_12[i={i}]")
        r.chain([xy + [f"y_{i}"], [f"y_{i}"] + xy, [f"y_{i}"]], f"V_12[i={i}]")
    r.add(xy + ["x_1"], ["x_1"], "V_12[i=1]")
    r.add(["y_1"] + xy, ["y_1"], "V_12[i=1]")
    r.chain(
        [yx + ["x_1"], ["x_1"] + yx, _pow("x", n - 2) + [f"e_{n-1}"]], "V_13[i=1]"
    )
    for i in range(2, m + 1):
        rhs = (
            _pow("x", n - 2 * i)
            + _erun(n - 2 * i + 1, n - i)
            + _erun(n - i + 2, n - 1)
            + xy
        )
        r.chain([yx + [f"x_{i}"], [f"x_{i}"] + yx, rhs], f"V_13[i={i}]")
    for i in range(1, m + 1):
        rhs = _pow("y", n - 2 * i + 1) + ["x"] + _erun(2, i) + _erun(i + 2, 2 * i)
        r.chain([yx + [f"y_{i}"], [f"y_{i}"] + yx, rhs], f"V_13[i={i}]")
    for i in range(1, m + 1):
        _rank2_chain(r, "V_14", i, xy if i == 1 else _e(n - i + 1), u0)
    return r.out


def _relations_Vbar(n: int) -> "list[Relation]":
    m = (n - 1) // 2
    r = _Rels()
    r.out.extend(_relations_V(n))
    r.add(["h", "h"], [], "Vbar_0")
    r.add(["h", "x"], ["y", "h"], "Vbar_1")
    for i in range(2, (n + 1) // 2 + 1):
        r.add(["h", f"e_{i}"], [f"e_{n-i+1}", "h"], f"Vbar_1[i={i}]")
    for i in range(1, m + 1):
        r.add(
            ["h", f"x_{i}"],
            _pow("y", n - i - 1) + [f"x_{i}"] + _pow("x", i - 1) + ["h"],
            f"Vbar_1[i={i}]",
        )
        r.add(
            ["h", f"y_{i}"],
            _pow("y", i - 1) + [f"y_{i}"] + _pow("x", n - i - 1) + ["h"],
            f"Vbar_1[i={i}]",
        )
    r.add(_erun(2, n - 1) + ["x", "y", "h"], _pow("x", n - 1), "Vbar_2")
    return r.out


def _relations_VbarPrime(n: int) -> "list[Relation]":
    m = (n - 1) // 2
    q = (n + 1) // 2
    p = n // 2
    xh2 = ["x", "h", "x", "h"]
    hx2 = ["h", "x", "h", "x"]

    def heh(j):
        return ["h", f"e_{j}", "h"]

    r = _Rels()
    for i in range(2, q + 1):
        r.add([f"e_{i}", f"e_{i}"], [f"e_{i}"], f"Vp_1[i={i}]")
    r.add(xh2 + ["x"], ["x"], "Vp_2")
    r.add(["x", "h", "x", "x", "h", "x", "h"], ["h", "x", "h", "x", "x", "h", "x"], "Vp_3")
    for i in range(2, q + 1):
        for j in range(i + 1, q + 1):
            r.add([f"e_{i}", f"e_{j}"], [f"e_{j}", f"e_{i}"], f"Vp_4[i={i},j={j}]")
    for i in range(2, q + 1):
        for j in range(2, p + 1):
            r.add([f"e_{i}"] + heh(j), heh(j) + [f"e_{i}"], f"Vp_4[i={i},j={j}]")
    for i in range(2, q + 1):
        r.add(xh2 + [f"e_{i}"], [f"e_{i}"] + xh2, f"Vp_5[i={i}]")
        r.add(hx2 + [f"e_{i}"], [f"e_{i}"] + hx2, f"Vp_5[i={i}]")
    for i in range(2, (n - 1) // 2 + 1):
        r.add(["x", f"e_{i+1}"], [f"e_{i}", "x"], f"Vp_6[i={i}]")
    r.add(["x"] + heh(p), [f"e_{q}", "x"], "Vp_6")
    for i in range(2, (n - 2) // 2 + 1):
        r.add(["x"] + heh(i), ["h", f"e_{i+1}", "h", "x"], f"Vp_6[i={i}]")
    r.add(["x"] + xh2, ["h", "e_2", "h", "x"], "Vp_7")
    r.add(hx2 + ["x"], ["x", "e_2"], "Vp_7")
    mid = _erun(2, q) + ["h"] + _erun(2, p)
    r.add(hx2 + mid + hx2, ["x"] + mid + hx2, "Vp_8")
    for i in range(1, m + 1):
        rhs = _erun(2, i) + _erun(i + 2, q) + ["h"] + _erun(2, p) + ["h"] + xh2
        r.add([f"x_{i}", f"y_{i}"], rhs, f"Vp_9[i={i}]")
    r.add(["y_1", "x_1"], _erun(2, q) + ["h"] + _erun(2, p) + ["h"], "Vp_9[i=1]")
    for i in range(2, m + 1):
        rhs = (
            _erun(2, q) + ["h"] + _erun(2, i - 1) + _erun(i + 1, p) + ["h"] + xh2
        )
        r.add([f"y_{i}", f"x_{i}"], rhs, f"Vp_9[i={i}]")
    _absorb(r, "Vp_10", m, range(2, q + 1), _e, left=True)
    _absorb(r, "Vp_10", m, range(2, p + 1), heh, left=True, skip=lambda i: i)
    _absorb(r, "Vp_11", m, range(2, q + 1), _e, left=False, skip=lambda i: i + 1)
    _absorb(r, "Vp_11", m, range(2, p + 1), heh, left=False)
    for i in range(2, m + 1):
        r.chain([[f"x_{i}"] + xh2, xh2 + [f"x_{i}"], [f"x_{i}"]], f"Vp_12[i={i}]")
        r.chain([xh2 + [f"y_{i}"], [f"y_{i}"] + xh2, [f"y_{i}"]], f"Vp_12[i={i}]")
    r.add(xh2 + ["x_1"], ["x_1"], "Vp_12[i=1]")
    r.add(["y_1"] + xh2, ["y_1"], "Vp_12[i=1]")
    r.chain(
        [hx2 + ["x_1"], ["x_1"] + hx2, _pow("x", n - 2) + ["h", "e_2", "h"]],
        "Vp_13[i=1]",
    )
    for i in range(2, m + 1):
        rhs = (
            _pow("x", n - 2 * i)
            + _erun(n - 2 * i + 1, q)
            + ["h"]
            + _erun(2, i - 1)
            + _erun(i + 1, p)
            + ["h"]
            + xh2
        )
        r.chain([hx2 + [f"x_{i}"], [f"x_{i}"] + hx2, rhs], f"Vp_13[i={i}]")
    for i in range(1, m + 1):
        rhs = (
            ["h"]
            + _pow("x", n - 2 * i + 1)
            + ["h", "x"]
            + _erun(2, i)
            + _erun(i + 2, q)
            + ["h"]
            + _erun(n - 2 * i + 1, p)
            + ["h"]
        )
        r.chain([hx2 + [f"y_{i}"], [f"y_{i}"] + hx2, rhs], f"Vp_13[i={i}]")
    u0p = _erun(2, q) + ["h"] + _erun(2, p) + ["h"] + xh2
    for i in range(1, m + 1):
        _rank2_chain(r, "Vp_14", i, xh2 if i == 1 else heh(i), u0p)
    r.add(["h", "h"], [], "Vbarp_0")
    if n % 2 == 1:
        r.add(["h", f"e_{q}"], [f"e_{q}", "h"], f"Vbarp_1[i={q}]")
    for i in range(1, m + 1):
        r.add(
            ["h", f"x_{i}"],
            ["h"] + _pow("x", n - i - 1) + ["h", f"x_{i}"] + _pow("x", i - 1) + ["h"],
            f"Vbarp_1[i={i}]",
        )
        r.add(
            ["h", f"y_{i}"],
            ["h"] + _pow("x", i - 1) + ["h", f"y_{i}"] + _pow("x", n - i - 1) + ["h"],
            f"Vbarp_1[i={i}]",
        )
    r.add(_erun(2, q) + ["h"] + _erun(2, p) + hx2, _pow("x", n - 1), "Vbarp_2")
    return r.out


def _relations_q1_to_q5(n: int, r: _Rels) -> None:
    r.add(_pow("g", n), [], "Q_1")
    for i in range(1, n + 1):
        r.add([f"e_{i}", f"e_{i}"], [f"e_{i}"], f"Q_2[i={i}]")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            r.add([f"e_{i}", f"e_{j}"], [f"e_{j}", f"e_{i}"], f"Q_3[i={i},j={j}]")
    r.add(["g", "e_1"], [f"e_{n}", "g"], "Q_4")
    for i in range(1, n):
        r.add(["g", f"e_{i+1}"], [f"e_{i}", "g"], f"Q_4[i={i}]")
    r.add(["g"] + _erun(1, n), _erun(1, n), "Q_5")


def _relations_Q(n: int) -> "list[Relation]":
    m = (n - 1) // 2
    r = _Rels()
    _relations_q1_to_q5(n, r)
    for i in range(1, m + 1):
        rhs = _pow("g", n - 2 * i) + _erun(1, n - i) + _erun(n - i + 2, n)
        r.chain([["e_1", f"x_{i}"], [f"x_{i}", "e_1"], rhs], f"Q_6[i={i}]")
    js = range(2, n + 1)
    _absorb(r, "Q_7", m, js, _e, left=True, skip=lambda i: n - i + 1, ys=False)
    _absorb(r, "Q_8", m, js, _e, left=False, skip=lambda i: i + 1, ys=False)
    for i in range(1, m + 1):
        r.chain(
            [[f"x_{i}", f"e_{n-i+1}"], [f"e_{i+1}", f"x_{i}"], _erun(2, n)],
            f"Q_9[i={i}]",
        )
    for i in range(1, m + 1):
        r.add(
            ([f"x_{i}"] + _pow("g", i)) * 2,
            _erun(2, i) + _erun(i + 2, n),
            f"Q_10[i={i}]",
        )
    return r.out


def _relations_Q0(n: int) -> "list[Relation]":
    r = _Rels()
    _relations_q1_to_q5(n, r)
    return r.out


def _relations_QPrime(n: int) -> "list[Relation]":
    m = (n - 1) // 2
    t = ["e_1"] + _pow("g", n - 1)

    def ebar(j):
        # e_j written over {g, e_1}: g^{n-j+1} e_1 g^{j-1}
        return _pow("g", n - j + 1) + ["e_1"] + _pow("g", j - 1)

    r = _Rels()
    r.add(_pow("g", n), [], "Qp_1")
    r.add(["e_1", "e_1"], ["e_1"], "Qp_2")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            r.add(
                ["e_1"] + _pow("g", n - j + i) + ["e_1"] + _pow("g", n - i + j),
                _pow("g", n - j + i) + ["e_1"] + _pow("g", n - i + j) + ["e_1"],
                f"Qp_3[i={i},j={j}]",
            )
    r.add(["g"] + t * n, t * n, "Qp_5")
    for i in range(1, m + 1):
        # e_1...e_{n-i} = t^{n-i-1} e_1 g^{n-i-1} and e_{n-i+2}...e_n =
        # g^{i-1} t^{i-1}; the powers of g between them fuse to g^{n-2}.
        rhs = (
            _pow("g", n - 2 * i)
            + t * (n - i - 1)
            + ["e_1"]
            + _pow("g", n - 2)
            + t * (i - 1)
        )
        r.chain([["e_1", f"x_{i}"], [f"x_{i}", "e_1"], rhs], f"Qp_6[i={i}]")
    js = range(2, n + 1)
    _absorb(r, "Qp_7", m, js, ebar, left=True, skip=lambda i: n - i + 1, ys=False)
    _absorb(r, "Qp_8", m, js, ebar, left=False, skip=lambda i: i + 1, ys=False)
    for i in range(1, m + 1):
        r.chain(
            [
                [f"x_{i}"] + _pow("g", i) + ["e_1"] + _pow("g", n - i),
                _pow("g", n - i) + ["e_1"] + _pow("g", i) + [f"x_{i}"],
                _pow("g", n - 1) + t * (n - 1),
            ],
            f"Qp_9[i={i}]",
        )
    for i in range(1, m + 1):
        lhs = ([f"x_{i}"] + _pow("g", i)) * 2
        if i == 1:
            # e_3...e_n = g^{n-2} t^{n-2}
            rhs = _pow("g", n - 2) + t * (n - 2)
        else:
            rhs = (
                _pow("g", n - 1)
                + t * (i - 2)
                + ["e_1"]
                + _pow("g", n - 2)
                + t * (n - i - 1)
            )
        r.add(lhs, rhs, f"Qp_10[i={i}]")
    return r.out


_BUILDERS = {
    RelationFamily.R: _relations_R,
    RelationFamily.U: _relations_U,
    RelationFamily.V: _relations_V,
    RelationFamily.VBAR: _relations_Vbar,
    RelationFamily.VBAR_PRIME: _relations_VbarPrime,
    RelationFamily.Q: _relations_Q,
    RelationFamily.Q0: _relations_Q0,
    RelationFamily.Q_PRIME: _relations_QPrime,
}


def build_relations(family: RelationFamily, n: int) -> Presentation:
    """The family's full relation list at chain length n.

    >>> len(build_relations(RelationFamily.R, 4).relations)
    36
    >>> len(build_relations(RelationFamily.Q_PRIME, 4).relations)
    18
    """
    return Presentation(
        label=f"{family.value}(n={n})",
        letters=build_alphabet(family, n),
        relations=tuple(_BUILDERS[family](n)),
    )


def expected_relation_count(family: RelationFamily, n: int) -> int:
    """Closed-form relation count for each family.

    Each value equals len(build_relations(family, n).relations); s is
    +1 for even n and -1 for odd n.  The VbarPrime count sums the index
    ranges of _relations_VbarPrime clause by clause: clauses Vp_10 and
    Vp_11 grow like 2n^2 and Vp_4 like 3n^2/8.  The list is the one
    shown correct: it presents MDI_n, and its 32 relations at n = 4
    agree with a count by hand.

    >>> expected_relation_count(RelationFamily.R, 4)
    36
    >>> expected_relation_count(RelationFamily.U, 5)
    24
    >>> expected_relation_count(RelationFamily.VBAR_PRIME, 4)
    32
    """
    _check_n(n)
    s = 1 if n % 2 == 0 else -1
    if family == RelationFamily.R:
        return (5 * n * n - (1 + 2 * s) * n - s + 5) // 2
    if family == RelationFamily.U:
        return (n * n + 3 * n + 8) // 2
    if family == RelationFamily.V:
        return (5 * n * n - (1 + 2 * s) * n - s - 3) // 2
    if family == RelationFamily.VBAR:
        return (10 * n * n + (4 - 4 * s) * n - (3 + 5 * s)) // 4
    if family == RelationFamily.VBAR_PRIME:
        return (38 * n * n - 2 * (1 + 9 * s) * n + 13 - 29 * s) // 16
    if family == RelationFamily.Q:
        return (6 * n * n + 2 * (1 - s) * n + 6 - (1 + s)) // 4
    if family == RelationFamily.Q0:
        return (n * n + 3 * n + 4) // 2
    if family == RelationFamily.Q_PRIME:
        return (6 * n * n - 2 * (3 + s) * n + 10 - (1 + s)) // 4
    raise ValueError(f"unknown family {family!r}")


def build_assignment(family: RelationFamily, n: int) -> Assignment:
    """Map each letter of the family's alphabet to its named generator.

    >>> build_assignment(RelationFamily.R, 4).image("x").pairs()
    ((1, 2), (2, 3), (3, 4))
    """
    return Assignment(
        degree=n,
        images=tuple(
            (name, named_generator(name, n)) for name in build_alphabet(family, n)
        ),
    )


def evaluate(w: "tuple[str, ...]", a: Assignment) -> PartialPerm:
    """Image of a word: left-to-right product of the letter images.

    >>> phi = build_assignment(RelationFamily.R, 4)
    >>> evaluate(("x", "y"), phi) == phi.image("e_4")
    True
    >>> evaluate((), phi).images
    (1, 2, 3, 4)
    """
    result = identity(a.degree)
    for name in w:
        result = compose(result, a.image(name))
    return result


def check_relations_hold(
    p: Presentation, a: Assignment
) -> "tuple[Relation, ...]":
    """The relations of p whose two sides differ under a; empty when all hold.

    >>> n = 5
    >>> check_relations_hold(build_relations(RelationFamily.Q, n),
    ...                      build_assignment(RelationFamily.Q, n))
    ()
    """
    have = set(a.names())
    missing = [name for name in p.letters if name not in have]
    if missing:
        raise ValueError(f"assignment lacks letters {missing}")
    return tuple(
        rel for rel in p.relations
        if evaluate(rel.lhs, a) != evaluate(rel.rhs, a)
    )


def eliminate_generator(
    p: Presentation, name: str, replacement: "tuple[str, ...]"
) -> Presentation:
    """Remove a generator, rewriting occurrences to the replacement word.

    Relations that become syntactically trivial (identical sides) are
    dropped.

    >>> p = Presentation("t", ("a", "b"),
    ...                  (Relation(("b",), ("a", "a"), "def_b"),))
    >>> eliminate_generator(p, "b", ("a", "a")).relations
    ()
    """
    replacement = tuple(replacement)
    if name not in p.letters:
        raise KeyError(f"{name!r} not in the alphabet")
    if name in replacement:
        raise ValueError(f"replacement word contains {name!r}")
    remaining = tuple(nm for nm in p.letters if nm != name)
    for nm in replacement:
        if nm not in remaining:
            raise ValueError(f"replacement letter {nm!r} not in the alphabet")

    def subst(w):
        out = []
        for nm in w:
            out.extend(replacement if nm == name else (nm,))
        return tuple(out)

    rels = []
    for rel in p.relations:
        lhs, rhs = subst(rel.lhs), subst(rel.rhs)
        if lhs == rhs:
            continue
        rels.append(Relation(lhs, rhs, rel.tag))
    return Presentation(
        label=f"{p.label}-{name}", letters=remaining, relations=tuple(rels)
    )


def delete_relation(p: Presentation, rel: Relation, caps=None) -> Presentation:
    """Remove the first relation with the same sides as rel.

    The removed relation must be a consequence of the remaining ones,
    checked by congruence.is_consequence: ValueError when it is not,
    because the watched run completed without merging its sides or, once
    capped, a small action of the letters separates them; and
    IndeterminateError when the run capped and no such action turned up.
    """
    # a relation's cells, 4 bytes each, are its two lengths and its letters
    start = 0
    for index, r in enumerate(p.relations):
        end = start + 4 * (2 + len(r.lhs) + len(r.rhs))
        if r.lhs == rel.lhs and r.rhs == rel.rhs:
            break
        start = end
    else:
        raise KeyError(f"{rel.lhs} = {rel.rhs} not present")
    # the parent passed __post_init__'s checks, and its letters with fewer
    # relations pass them too, so copy it rather than check again, with
    # its encoding minus that relation's cells: nothing is encoded again
    smaller = copy.copy(p)
    ids = p.relation_ids
    object.__setattr__(smaller, "relations", p.relations[:index] + p.relations[index + 1:])
    object.__setattr__(smaller, "relation_ids", ids[:start] + ids[end:])
    from .congruence import is_consequence

    if not is_consequence(smaller, rel, caps):
        raise ValueError(f"{rel.lhs} = {rel.rhs} is not a consequence of the rest")
    return smaller


def odi_elimination_chain(n: int) -> "tuple[Presentation, ...]":
    """R, then R with e_n := xy removed, then also e_1 := yx removed.

    All three present the same monoid.
    """
    p0 = build_relations(RelationFamily.R, n)
    p1 = eliminate_generator(p0, f"e_{n}", ("x", "y"))
    p2 = eliminate_generator(p1, "e_1", ("y", "x"))
    return (p0, p1, p2)


def opdi_elimination_chain(n: int) -> "tuple[Presentation, ...]":
    """Q, then Q with e_i := g^{n-i+1} e_1 g^{i-1} removed for i = 2..n."""
    chain = [build_relations(RelationFamily.Q, n)]
    for i in range(2, n + 1):
        replacement = tuple(_pow("g", n - i + 1) + ["e_1"] + _pow("g", i - 1))
        chain.append(eliminate_generator(chain[-1], f"e_{i}", replacement))
    return tuple(chain)


#: Each generator-elimination chain by its ``dimon tietze --chain`` name:
#: the relation family its first presentation is built from, and the
#: builder of the chain.  Every step drops letters and keeps the rest, so
#: it presents the family's TARGET_MONOID under the family's assignment.
ELIMINATION_CHAINS = {
    "odi": (RelationFamily.R, odi_elimination_chain),
    "opdi": (RelationFamily.Q, opdi_elimination_chain),
}


def wprime1_words(n: int) -> "tuple[tuple[str, ...], ...]":
    """The 1 + n^2 required representatives of the empty and rank-1 maps.

    All are words over the V alphabet built around u0 = e_2...e_{n-1}xy.

    >>> len(wprime1_words(4))
    17
    """
    u0 = _erun(2, n - 1) + ["x", "y"]

    def left(i):
        return _erun(i + 1, n - 1) + ["x"] + _pow("y", i)

    def right(j):
        return _pow("x", j - 1) + _erun(j + 1, n - 1) + ["x", "y"]

    words = [("y", "x") + tuple(u0)]
    for i in range(1, n):
        for j in range(1, n):
            words.append(tuple(left(i) + u0 + right(j)))
    for i in range(1, n):
        words.append(tuple(left(i) + u0 + _pow("x", n - 1)))
    for j in range(1, n):
        words.append(tuple(_pow("y", n - 1) + u0 + right(j)))
    words.append(tuple(_pow("y", n - 1) + u0 + _pow("x", n - 1)))
    return tuple(words)


def w1_w2_words(n: int) -> "tuple[tuple[str, ...], ...]":
    """The explicit rank-2 representatives y^r x_i x^s and y^r y_i x^s.

    Index constraints: s+1 <= i <= n-r-1 for the x_i family and
    r+1 <= i <= n-s-1 for the y_i family, with 0 <= r, s <= n-1 and
    1 <= i <= floor((n-1)/2).

    >>> len(w1_w2_words(4))
    6
    """
    m = (n - 1) // 2
    words = []
    for r in range(n):
        for i in range(1, m + 1):
            for s in range(n):
                if s + 1 <= i <= n - r - 1:
                    words.append(tuple(_pow("y", r) + [f"x_{i}"] + _pow("x", s)))
    for r in range(n):
        for i in range(1, m + 1):
            for s in range(n):
                if r + 1 <= i <= n - s - 1:
                    words.append(tuple(_pow("y", r) + [f"y_{i}"] + _pow("x", s)))
    return tuple(words)


def build_forms(family: RelationFamily, n: int, enumeration=None) -> FormsSet:
    """Candidate forms for the R, Vbar and Q presentations.

    For R the enumeration of the U presentation supplies the shortlex
    core W0; the explicit rank-2 words are appended.  For Vbar the
    enumeration of the V presentation supplies shortlex forms W', the
    1 + n^2 words of wprime1_words replace the representatives of
    their classes, and each remaining form w contributes a second form
    wh.  For Q the forms are fully explicit: g^m times a product of
    distinct e_i (any proper subset, ascending), the all-e product,
    and the conjugates g^r x_i g^s.  FORMS_SEED names the seed family.
    """
    letters = build_alphabet(family, n)
    if family not in FORMS_SEED:
        raise ValueError(f"no forms family for {family.value}")
    seed = FORMS_SEED[family]
    if seed is not None:
        if enumeration is None:
            raise ValueError(
                f"forms for {family.value} need the enumeration of {seed.value}"
            )
        from .congruence import normal_forms

        reps = normal_forms(enumeration, build_alphabet(seed, n)).words
    if family == RelationFamily.R:
        return FormsSet(f"W(n={n})", letters, reps + w1_w2_words(n))
    if family == RelationFamily.VBAR:
        reps = list(reps)
        required = wprime1_words(n)
        for c, w in zip(enumeration.word_classes(required), required):
            reps[c] = w
        required_set = set(required)
        tail = [w + ("h",) for w in reps if w not in required_set]
        return FormsSet(f"Wbar(n={n})", letters, tuple(reps) + tuple(tail))
    es = tuple(_erun(1, n))
    g_powers = [("g",) * r for r in range(n)]
    words = [
        g_r + subset
        for g_r in g_powers
        for k in range(n)
        for subset in itertools.combinations(es, k)
    ]
    words.append(es)
    words += [
        g_r + (f"x_{i}",) + g_s
        for i in range(1, (n - 1) // 2 + 1)
        for g_r in g_powers
        for g_s in g_powers
    ]
    return FormsSet(f"Qforms(n={n})", letters, tuple(words))
