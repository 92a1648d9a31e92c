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
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

Point = int


@dataclasses.dataclass(frozen=True)
class PartialPerm:
    """An injective partial map on {1, ..., degree}.

    >>> f = PartialPerm.from_pairs(4, [(1, 2), (3, 4)])
    >>> f.domain()
    (1, 3)
    >>> f.image()
    (2, 4)
    >>> f.rank()
    2
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

    def apply(self, p: Point) -> Point | None:
        """Image of p, or None when p is outside the domain."""
        if not 1 <= p <= self.degree:
            raise ValueError(f"point {p} outside 1..{self.degree}")
        img = self.images[p - 1]
        return img if img else None

    def pairs(self) -> tuple[tuple[Point, Point], ...]:
        """The graph of the map, sorted by domain point."""
        return tuple(
            (p, img) for p, img in enumerate(self.images, start=1) if img
        )

    def domain(self) -> tuple[Point, ...]:
        return tuple(p for p, img in enumerate(self.images, start=1) if img)

    def image(self) -> tuple[Point, ...]:
        return tuple(sorted(img for img in self.images if img))

    def rank(self) -> int:
        """Number of points in the domain (= size of the image)."""
        return sum(1 for img in self.images if img)

    def is_total(self) -> bool:
        return all(self.images)

    def __mul__(self, other: "PartialPerm") -> "PartialPerm":
        return compose(self, other)

    def __repr__(self) -> str:
        body = ", ".join(f"{p}->{q}" for p, q in self.pairs())
        return f"PartialPerm({self.degree}; {body})"

    def to_dict(self) -> dict:
        """JSON-ready form: {"n": degree, "map": [[p, q], ...]}."""
        return {"n": self.degree, "map": [list(pq) for pq in self.pairs()]}

    @classmethod
    def from_dict(cls, data: dict) -> "PartialPerm":
        return cls.from_pairs(data["n"], [tuple(pq) for pq in data["map"]])


def compose(f: PartialPerm, g: PartialPerm) -> PartialPerm:
    """Apply f first, then g.

    >>> x = named_generator("x", 4)
    >>> y = named_generator("y", 4)
    >>> compose(x, y) == named_generator("e_i", 4, 4)
    True
    >>> compose(y, x) == named_generator("e_i", 4, 1)
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


def empty_map(n: int) -> PartialPerm:
    """The nowhere-defined map of degree n (the zero of the monoid)."""
    return PartialPerm(n, (0,) * n)


#: Valid `kind` arguments of named_generator.
GENERATOR_KINDS = ("g", "h", "e_i", "x", "y", "x_i", "y_i")


def named_generator(kind: str, n: int, i: int | None = None) -> PartialPerm:
    """The standard generating maps, by name.

    kind "g"    rotation p -> p + 1 (mod n), a total n-cycle
    kind "h"    reflection p -> n + 1 - p, total, needs n >= 2
    kind "e_i"  identity on {1..n} minus {i}, needs i in 1..n
    kind "x"    p -> p + 1 on domain {1..n-1}
    kind "y"    inverse of x: p -> p - 1 on domain {2..n}
    kind "x_i"  {1 -> 1, 1+i -> n-i+1}, needs 1 <= i <= (n-1)//2
    kind "y_i"  inverse of x_i: {1 -> 1, n-i+1 -> 1+i}

    >>> named_generator("g", 4).pairs()
    ((1, 2), (2, 3), (3, 4), (4, 1))
    >>> named_generator("x_i", 5, 2).pairs()
    ((1, 1), (3, 4))
    """
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")
    if kind in ("e_i", "x_i", "y_i"):
        if i is None:
            raise ValueError(f"kind {kind!r} needs an index i")
    elif i is not None:
        raise ValueError(f"kind {kind!r} takes no index")

    if kind == "g":
        return PartialPerm(n, tuple(p % n + 1 for p in range(1, n + 1)))
    if kind == "h":
        if n < 2:
            raise ValueError("reflection needs degree at least 2")
        return PartialPerm(n, tuple(range(n, 0, -1)))
    if kind == "x":
        return PartialPerm(n, tuple(p + 1 for p in range(1, n)) + (0,))
    if kind == "y":
        return inverse(named_generator("x", n))
    if kind == "e_i":
        if not 1 <= i <= n:
            raise ValueError(f"e_i needs 1 <= i <= {n}, got i={i}")
        return partial_identity(n, (p for p in range(1, n + 1) if p != i))
    if kind == "x_i":
        if not 1 <= i <= (n - 1) // 2:
            raise ValueError(f"x_i needs 1 <= i <= {(n - 1) // 2}, got i={i}")
        return PartialPerm.from_pairs(n, [(1, 1), (1 + i, n - i + 1)])
    if kind == "y_i":
        return inverse(named_generator("x_i", n, i))
    raise ValueError(f"unknown generator kind {kind!r}")
