"""Brute-force reference constructions, independent of the package.

Everything here recomputes family elements from first principles,
representing a partial injection as a frozenset of (point, image)
pairs.  Tests compare the package's breadth-first closures, cardinality
formulas and Green's classes against these direct constructions, so a
bug would have to appear in two unrelated code paths to go unnoticed.
Six helpers touch the package: keys_of cuts a monoid's key buffer
into its keys by slicing, not through FiniteMonoid.key, for the
tests' key-to-index lookups, o_closure closes a generating set by
composing with iperm.compose, not on bytes as closure does,
o_mutual_reachability reads its Cayley tables but finds their strongly
connected components by brute force, a check of Green's classes that
does not go through domains and images as o_green does,
all_partial_perms enumerates test inputs as the package's PartialPerm,
tagged selects a presentation's relations by the clause named in their
tags, and without builds a presentation with one of them deleted,
unchecked.
"""

from __future__ import annotations

import itertools

from dimon.iperm import PartialPerm, compose, identity
from dimon.presentations import Presentation

Graph = frozenset  # of (point, image) pairs


def o_compose(f: Graph, g: Graph) -> Graph:
    gd = dict(g)
    return frozenset((p, gd[q]) for p, q in f if q in gd)


def o_rotations(n: int) -> list[Graph]:
    """The n rotations of the n-gon as total maps."""
    return [
        frozenset((p, (p + k - 1) % n + 1) for p in range(1, n + 1))
        for k in range(n)
    ]


def o_symmetries(n: int) -> list[Graph]:
    """All 2n symmetries of the n-gon: rotations and reflections."""
    flip = frozenset((p, n + 1 - p) for p in range(1, n + 1))
    rots = o_rotations(n)
    return rots + [o_compose(flip, r) for r in rots]


def o_restrictions(perms: list[Graph], n: int) -> set[Graph]:
    """Every restriction of every map in perms to a subset of {1..n}."""
    out: set[Graph] = set()
    for perm in perms:
        graph = sorted(perm)
        for k in range(n + 1):
            for rows in itertools.combinations(graph, k):
                out.add(frozenset(rows))
    return out


def _image_seq(f: Graph) -> list[int]:
    return [q for _, q in sorted(f)]


def o_order_preserving(f: Graph) -> bool:
    seq = _image_seq(f)
    return all(a < b for a, b in zip(seq, seq[1:]))


def o_order_reversing(f: Graph) -> bool:
    seq = _image_seq(f)
    return all(a > b for a, b in zip(seq, seq[1:]))


def o_monotone(f: Graph) -> bool:
    return o_order_preserving(f) or o_order_reversing(f)


def o_orientation_preserving(f: Graph) -> bool:
    seq = _image_seq(f)
    t = len(seq)
    return sum(seq[k] > seq[(k + 1) % t] for k in range(t)) <= 1


def o_family_elements(family: str, n: int) -> set[Graph]:
    """Direct construction of each monoid family, no generator closure."""
    if family == "di":
        return o_restrictions(o_symmetries(n), n)
    if family == "ci":
        return o_restrictions(o_rotations(n), n)
    if family == "odi":
        return {f for f in o_family_elements("di", n) if o_order_preserving(f)}
    if family == "mdi":
        return {f for f in o_family_elements("di", n) if o_monotone(f)}
    if family == "opdi":
        return {
            f for f in o_family_elements("di", n) if o_orientation_preserving(f)
        }
    if family == "oci":
        return {f for f in o_family_elements("ci", n) if o_order_preserving(f)}
    raise ValueError(f"unknown family {family!r}")


def o_family_size(family: str, n: int) -> int:
    return len(o_family_elements(family, n))


def _dense(keys) -> tuple[int, ...]:
    """Renumber keys 0, 1, ... by first occurrence."""
    ids: dict = {}
    return tuple(ids.setdefault(key, len(ids)) for key in keys)


def o_green(elements: list[Graph]) -> dict[str, tuple[int, ...]]:
    """Green's classes of an inverse monoid of partial injections.

    No Cayley table: f R g iff dom f = dom g, f L g iff im f = im g, and
    the D-classes are those of the domains joined by every element's
    dom(f) ~ im(f).  Classes are numbered by first occurrence in the
    given order.  Valid only when the elements form an inverse monoid.
    """
    dom = [frozenset(p for p, _ in f) for f in elements]
    im = [frozenset(q for _, q in f) for f in elements]
    parent: dict[frozenset, frozenset] = {}

    def find(s: frozenset) -> frozenset:
        parent.setdefault(s, s)
        while parent[s] != s:
            s = parent[s]
        return s

    for a, b in zip(dom, im):
        parent[find(a)] = find(b)
    return {
        "r": _dense(dom),
        "l": _dense(im),
        "h": _dense(zip(dom, im)),
        "d": _dense(find(a) for a in dom),
    }


def o_mutual_reachability(succ) -> tuple[int, ...]:
    """Classes of mutually reachable vertices of the graph i -> succ[i].

    Brute force: one search per vertex, then i ~ j iff each reaches the
    other.  Numbered by first occurrence.
    """
    reach = []
    for start in range(len(succ)):
        seen = {start}
        todo = [start]
        while todo:
            for w in succ[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    return _dense(
        frozenset(j for j in reach[i] if i in reach[j]) for i in range(len(succ))
    )


def keys_of(m) -> list[bytes]:
    """Monoid m's keys in element order, cut from m.key_bytes."""
    width = m.degree + 1
    return [m.key_bytes[i:i + width] for i in range(0, len(m.key_bytes), width)]


def o_closure(degree: int, gens: list) -> tuple[list, list, list]:
    """Breadth-first closure of gens by iperm.compose, with both tables.

    Elements are numbered in discovery order from the identity, trying
    the generators in the given order at each element, as closure
    documents.  Returns (elements, right rows, left rows); every left
    product is composed directly, not read off BFS parents.
    """
    elements = [identity(degree)]
    index = {elements[0]: 0}
    for f in elements:  # grows while it is walked
        for g in gens:
            product = compose(f, g)
            if product not in index:
                index[product] = len(elements)
                elements.append(product)
    right = [[index[compose(f, g)] for g in gens] for f in elements]
    left = [[index[compose(g, f)] for g in gens] for f in elements]
    return elements, right, left


def all_partial_perms(n: int):
    """Every partial permutation of degree n, smallest rank first."""
    points = range(1, n + 1)
    for k in range(n + 1):
        for dom in itertools.combinations(points, k):
            for img_set in itertools.combinations(points, k):
                for img in itertools.permutations(img_set):
                    yield PartialPerm.from_pairs(n, zip(dom, img))


def tagged(p, prefix: str) -> tuple:
    """The relations of presentation p whose tag is prefix or prefix[indices].

    The tag prefix is exact: "R_1" does not select the R_11 relations.
    """
    return tuple(
        r for r in p.relations if r.tag == prefix or r.tag.startswith(prefix + "[")
    )


def without(p, i: int):
    """Presentation p with its relation i deleted, built directly."""
    return Presentation(p.label, p.letters, p.relations[:i] + p.relations[i + 1:])
