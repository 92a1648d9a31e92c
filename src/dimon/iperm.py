"""Partial permutations on the finite chain {1 < 2 < ... < n}.

A partial permutation is an injective map between two subsets of
{1, ..., n}.  Under composition they form the symmetric inverse monoid
on n points; every monoid this package builds lives inside it.

Composition is read left to right: ``compose(f, g)`` applies ``f``
first and then ``g``, so the product is defined on the points p for
which both p.f and (p.f).g are defined.  All the generator identities
used elsewhere (for instance ``compose(x, y) == e_n``) assume this
order.

A map of degree n is stored as its key, n + 1 bytes: byte 0 is 0,
and byte p is the image of the point p, or 0 when p is outside the
domain.  A point must fit in a byte, so the degree is 1 to 255.  Two
maps are equal iff their keys are, that is iff they have the same
degree and the same graph.  f then g is ``f.key.translate(g.table())``,
``table()`` being g's key padded to 256 bytes: byte 0 maps to 0, so
an undefined point stays undefined.

The standard generating maps are named by the letters that stand for
them in the presentations: ``named_generator("e_3", n)`` is the map of
the letter e_3.  The monoids' generating sets and the presentations'
assignments both go from a letter name to its map through it.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Iterable

Point = int


def check_degree(degree: int) -> None:
    """A point is stored in a byte, so the degree is 1 to 255."""
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    if degree > 255:
        raise ValueError(f"degree {degree} above 255: a point must fit in a byte")


@dataclasses.dataclass(frozen=True)
class PartialPerm:
    """An injective partial map on {1, ..., degree}, stored as its key.

    The key has degree + 1 bytes: byte 0 is 0, and byte p is the image
    of p, or 0 when p is outside the domain.  The degree is 1 to 255.
    Every map is checked here, products included.

    >>> f = PartialPerm.from_pairs(4, [(1, 2), (3, 4)])
    >>> f.key
    b'\\x00\\x02\\x00\\x04\\x00'
    >>> f.images
    (2, 0, 4, 0)
    >>> f.pairs()
    ((1, 2), (3, 4))
    """

    key: bytes

    def __post_init__(self) -> None:
        key = self.key
        if type(key) is not bytes:
            raise TypeError(f"key must be bytes, got {type(key).__name__}")
        n = len(key) - 1
        check_degree(n)
        if key[0]:
            raise ValueError(f"byte 0 of a key must be 0, got {key[0]}")
        if max(key) > n:
            raise ValueError(f"image point {max(key)} outside 1..{n}")
        # byte 0 is 0, so the distinct points are the distinct bytes but 0
        if len(set(key)) - 1 != n + 1 - key.count(0):
            raise ValueError("image point repeated: map not injective")

    @property
    def degree(self) -> int:
        return len(self.key) - 1

    @property
    def images(self) -> tuple[int, ...]:
        """images[p - 1] is the image of p, or 0 when p has none."""
        return tuple(self.key[1:])

    def table(self) -> bytes:
        """The key padded to 256 bytes, for ``bytes.translate``."""
        return self.key.ljust(256, b"\0")

    @classmethod
    def from_pairs(
        cls, degree: int, pairs: Iterable[tuple[Point, Point]]
    ) -> "PartialPerm":
        """Build a map from (point, image) pairs."""
        check_degree(degree)
        key = bytearray(degree + 1)
        for p, q in pairs:
            if not 1 <= p <= degree:
                raise ValueError(f"domain point {p} outside 1..{degree}")
            if not 1 <= q <= degree:
                raise ValueError(f"image point {q} of {p} outside 1..{degree}")
            if key[p]:
                raise ValueError(f"domain point {p} listed twice")
            key[p] = q
        return cls(bytes(key))

    def pairs(self) -> tuple[tuple[Point, Point], ...]:
        """The graph of the map, sorted by domain point."""
        return tuple((p, q) for p, q in enumerate(self.key) if q)

    def __repr__(self) -> str:
        body = ", ".join(f"{p}->{q}" for p, q in self.pairs())
        return f"PartialPerm({self.degree}; {body})"

    def to_dict(self) -> dict:
        """JSON-ready form: {"n": degree, "map": [[p, q], ...]}."""
        return {"n": self.degree, "map": [list(pq) for pq in self.pairs()]}


def compose(f: PartialPerm, g: PartialPerm) -> PartialPerm:
    """Apply f first, then g.

    >>> x = named_generator("x", 4)
    >>> y = named_generator("y", 4)
    >>> compose(x, y) == named_generator("e_4", 4)
    True
    >>> compose(y, x) == named_generator("e_1", 4)
    True
    """
    if f.degree != g.degree:
        raise ValueError(f"degree mismatch: {f.degree} != {g.degree}")
    return PartialPerm(f.key.translate(g.table()))


def inverse(f: PartialPerm) -> PartialPerm:
    """The inverse partial permutation (graph transposed).

    >>> x = named_generator("x", 5)
    >>> inverse(x) == named_generator("y", 5)
    True
    """
    return PartialPerm.from_pairs(f.degree, ((q, p) for p, q in f.pairs()))


def identity(n: int) -> PartialPerm:
    """The total identity map on {1, ..., n}."""
    check_degree(n)
    return PartialPerm(bytes(range(n + 1)))


def named_generator(name: str, n: int) -> PartialPerm:
    """The standard generating map of degree n with the given letter name.

    g      rotation p -> p + 1 (mod n), a total n-cycle
    h      reflection p -> n + 1 - p, total, needs n >= 2
    x      p -> p + 1 on domain {1..n-1}
    y      inverse of x: p -> p - 1 on domain {2..n}
    e_i    identity on {1..n} minus {i}, for 1 <= i <= n
    x_i    {1 -> 1, 1+i -> n-i+1}, for 1 <= i <= (n-1)//2
    y_i    inverse of x_i: {1 -> 1, n-i+1 -> 1+i}

    In an indexed name the index is written out in decimal without
    leading zeros ("e_3", "x_2"), so each map has exactly one name.
    Any other name, or an index out of range at degree n, raises
    ValueError.  Each map's key bytes are written here directly, and
    PartialPerm checks them as it checks every key.

    >>> named_generator("g", 4).pairs()
    ((1, 2), (2, 3), (3, 4), (4, 1))
    >>> named_generator("x_2", 5).pairs()
    ((1, 1), (3, 4))
    """
    check_degree(n)
    if name == "g":
        return PartialPerm(bytes((0, *range(2, n + 1), 1)))
    if name == "h":
        if n < 2:
            raise ValueError("reflection needs degree at least 2")
        return PartialPerm(bytes((0, *range(n, 0, -1))))
    if name == "x":
        return PartialPerm(bytes((0, *range(2, n + 1), 0)))
    if name == "y":
        return PartialPerm(bytes((0, *range(n))))
    match = re.fullmatch(r"([exy])_([1-9][0-9]*)", name)
    if match is None:
        raise ValueError(f"unknown generator {name!r}")
    kind, i = match[1], int(match[2])
    key = bytearray(n + 1)
    if kind == "e":
        if i > n:
            raise ValueError(f"{name} needs degree at least {i}, got {n}")
        key[1:] = range(1, n + 1)
        key[i] = 0
        return PartialPerm(bytes(key))
    if i > (n - 1) // 2:
        raise ValueError(f"{name} needs degree at least {2 * i + 1}, got {n}")
    key[1] = 1
    if kind == "x":
        key[1 + i] = n - i + 1
    else:
        key[n - i + 1] = 1 + i
    return PartialPerm(bytes(key))
