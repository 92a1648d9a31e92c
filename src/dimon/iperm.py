"""Partial permutations on the finite chain {1 < 2 < ... < n}.

A partial permutation is an injective map between two subsets of
{1, ..., n}.  Under composition they form the symmetric inverse monoid
on n points; every monoid this package builds lives inside it.

Composition is read left to right: ``compose(f, g)`` applies ``f``
first and then ``g``, so the product is defined on the points p for
which both p.f and (p.f).g are defined.  All the generator identities
used elsewhere (for instance ``compose(x, y) == e_n``) assume this
order.

Maps are stored densely: ``images[p - 1]`` holds the image of the
point p, or 0 when p is outside the domain.  Two maps are equal iff
they have the same degree and the same graph.

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


@dataclasses.dataclass(frozen=True)
class PartialPerm:
    """An injective partial map on {1, ..., degree}.

    >>> f = PartialPerm.from_pairs(4, [(1, 2), (3, 4)])
    >>> f.images
    (2, 0, 4, 0)
    >>> f.pairs()
    ((1, 2), (3, 4))
    """

    degree: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.degree
        if n < 1:
            raise ValueError(f"degree must be at least 1, got {n}")
        if len(self.images) != n:
            raise ValueError(
                f"images has length {len(self.images)}, expected degree {n}"
            )
        seen = 0
        for img in self.images:
            if img == 0:
                continue
            if not 1 <= img <= n:
                raise ValueError(f"image point {img} outside 1..{n}")
            bit = 1 << img
            if seen & bit:
                raise ValueError(f"image point {img} repeated: map not injective")
            seen |= bit

    @classmethod
    def from_pairs(
        cls, degree: int, pairs: Iterable[tuple[Point, Point]]
    ) -> "PartialPerm":
        """Build a map from (point, image) pairs."""
        images = [0] * degree
        for p, q in pairs:
            if not 1 <= p <= degree:
                raise ValueError(f"domain point {p} outside 1..{degree}")
            if images[p - 1]:
                raise ValueError(f"domain point {p} listed twice")
            images[p - 1] = q
        return cls(degree, tuple(images))

    def pairs(self) -> tuple[tuple[Point, Point], ...]:
        """The graph of the map, sorted by domain point."""
        return tuple(
            (p, img) for p, img in enumerate(self.images, start=1) if img
        )

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
    gi = g.images
    return PartialPerm(
        f.degree,
        tuple(gi[img - 1] if img else 0 for img in f.images),
    )


def inverse(f: PartialPerm) -> PartialPerm:
    """The inverse partial permutation (graph transposed).

    >>> x = named_generator("x", 5)
    >>> inverse(x) == named_generator("y", 5)
    True
    """
    images = [0] * f.degree
    for p, img in enumerate(f.images, start=1):
        if img:
            images[img - 1] = p
    return PartialPerm(f.degree, tuple(images))


def partial_identity(n: int, points: Iterable[Point]) -> PartialPerm:
    """Identity map restricted to the given set of points."""
    images = [0] * n
    for p in points:
        if not 1 <= p <= n:
            raise ValueError(f"point {p} outside 1..{n}")
        images[p - 1] = p
    return PartialPerm(n, tuple(images))


def identity(n: int) -> PartialPerm:
    """The total identity map on {1, ..., n}."""
    return PartialPerm(n, tuple(range(1, n + 1)))


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
    ValueError.

    >>> named_generator("g", 4).pairs()
    ((1, 2), (2, 3), (3, 4), (4, 1))
    >>> named_generator("x_2", 5).pairs()
    ((1, 1), (3, 4))
    """
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")
    if name == "g":
        return PartialPerm(n, tuple(p % n + 1 for p in range(1, n + 1)))
    if name == "h":
        if n < 2:
            raise ValueError("reflection needs degree at least 2")
        return PartialPerm(n, tuple(range(n, 0, -1)))
    if name == "x":
        return PartialPerm(n, tuple(p + 1 for p in range(1, n)) + (0,))
    if name == "y":
        return inverse(named_generator("x", n))
    match = re.fullmatch(r"([exy])_([1-9][0-9]*)", name)
    if match is None:
        raise ValueError(f"unknown generator {name!r}")
    kind, i = match[1], int(match[2])
    if kind == "e":
        if i > n:
            raise ValueError(f"{name} needs degree at least {i}, got {n}")
        return partial_identity(n, (p for p in range(1, n + 1) if p != i))
    if i > (n - 1) // 2:
        raise ValueError(f"{name} needs degree at least {2 * i + 1}, got {n}")
    x_i = PartialPerm.from_pairs(n, [(1, 1), (1 + i, n - i + 1)])
    return x_i if kind == "x" else inverse(x_i)
