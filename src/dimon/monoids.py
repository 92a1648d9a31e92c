"""Finite monoids of partial permutations.

Monoids are built by breadth-first closure of a generating set and
stored as what closure computes: one buffer of the elements' byte keys
end to end and the right Cayley table (right multiplication by each
generator).  The elements as ``PartialPerm`` and the left table, which
is read off the right table, are built on first use.  The named
families live inside the symmetric inverse monoid on the chain
{1 < ... < n}:

    DI    restrictions of the 2n symmetries of the regular n-gon
    CI    restrictions of the n rotations only
    ODI   order-preserving elements of DI
    MDI   monotone (order-preserving or -reversing) elements of DI
    OPDI  orientation-preserving elements of DI
    OCI   order-preserving elements of CI

plus the dihedral and cyclic groups themselves as total maps.
Element order is fixed by the deterministic closure, so element
indices are reproducible across runs and platforms.

Closure works on each element's ``PartialPerm.key`` and composes with
``table()``.  The monoid keeps no index of its keys: membership scans
the key buffer.  The Cayley tables are flat buffers, as every kernel
table is: bytes of native int32 cells, row-major, with entry (i, k) at
cell i * len(generators) + k.  Two monoids closed from the same
generators in the same order have equal tables, byte for byte, which is
what dimon.congruence compares a standardized congruence table with.

The closure loop and Green's class counts run in a kernel: the compiled
extension dimon._tc_core when it was built, the pure-Python
dimon._tc_py otherwise, which the C one follows step for step.  This
module chooses it once, as _kernel, and BACKEND names it ("compiled"
or "pure"); dimon.congruence enumerates with the same module.
closure and green_classes check their input and call the kernel.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from array import array

from .iperm import PartialPerm, check_degree, compose, inverse, named_generator

try:
    from . import _tc_core as _kernel

    BACKEND = "compiled"
except ImportError:
    from . import _tc_py as _kernel

    BACKEND = "pure"


class MonoidFamily(enum.Enum):
    DI = "di"
    ODI = "odi"
    MDI = "mdi"
    OPDI = "opdi"
    CI = "ci"
    OCI = "oci"
    DIHEDRAL_GROUP = "dihedral"
    CYCLIC_GROUP = "cyclic"

    @classmethod
    def parse(cls, text: str) -> "MonoidFamily":
        """Accept the lowercase tag used by the CLI ("odi", "dihedral"...)."""
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(f.value for f in cls)
            raise ValueError(f"unknown family {text!r}; expected one of {valid}")


class ClosureCapError(RuntimeError):
    """Raised when a closure has more elements than fit in its byte
    budget, CLOSURE_BYTES."""


#: The memory a closure may hold, in bytes: closure caps the element
#: count at the elements that fit in it.
CLOSURE_BYTES = 2**30


@dataclasses.dataclass(frozen=True)
class FiniteMonoid:
    """A closed set of partial permutations: key buffer and right table.

    key_bytes holds the elements' keys end to end, degree + 1 bytes
    each: key(i) is the ``PartialPerm.key`` of element i, key(0) the
    identity's.  right_cayley is int32 bytes whose cell
    i * len(generators) + k is the index of element i times gen_k
    (apply element i first), where gen_k is element generators[k].
    The elements as PartialPerm and left_cayley (gen_k times element
    i, read off the right table) are built on first use.
    """

    degree: int
    key_bytes: bytes
    generators: tuple[int, ...]
    right_cayley: bytes

    @property
    def size(self) -> int:
        return len(self.key_bytes) // (self.degree + 1)

    def key(self, i: int) -> bytes:
        """The key of element i, read out of key_bytes."""
        start = range(0, len(self.key_bytes), self.degree + 1)[i]
        return self.key_bytes[start:start + self.degree + 1]

    def element(self, i: int) -> PartialPerm:
        """Element i as a checked PartialPerm."""
        return PartialPerm(self.key(i))

    @functools.cached_property
    def elements(self) -> tuple[PartialPerm, ...]:
        return tuple(self.element(i) for i in range(self.size))

    @functools.cached_property
    def left_cayley(self) -> bytes:
        # Froidure & Pin (1997): reading the right table row by row, each
        # element j > 0 is first met as right[i][a], element i times gen_a,
        # with i < j, and after element j - 1 is.  So gen_k times j is
        # (gen_k times i) times gen_a: left[j][k] = right[left[i][k]][a].
        # Row 0 is the generators.
        width = len(self.generators)
        right = array("i", self.right_cayley)
        left = array("i", self.generators)
        cell = 0
        for j in range(1, self.size):
            cell = right.index(j, cell)
            i, a = divmod(cell, width)
            left.extend([right[x * width + a] for x in left[i * width:(i + 1) * width]])
        return left.tobytes()

    def __contains__(self, f: PartialPerm) -> bool:
        """Membership, by a scan of key_bytes that stops at the first
        match aligned to a key and skips every other one."""
        key, width = f.key, self.degree + 1
        at = self.key_bytes.find(key) if len(key) == width else -1
        while at > 0 and at % width:
            at = self.key_bytes.find(key, at + 1)
        return at >= 0

    def is_closure_of(self, gens: "list[PartialPerm] | tuple[PartialPerm, ...]") -> bool:
        """Whether gens are this monoid's generators, in order: closure
        is deterministic, so closing them would rebuild it exactly."""
        return [f.key for f in gens] == [self.key(g) for g in self.generators]

    def to_json_dict(self) -> dict:
        width = len(self.generators)
        return {
            "degree": self.degree,
            "elements": [f.to_dict() for f in self.elements],
            "generators": list(self.generators),
            "right_cayley": table_rows(self.right_cayley, self.size, width),
            "left_cayley": table_rows(self.left_cayley, self.size, width),
        }


def table_rows(table: bytes, count: int, width: int) -> list[list[int]]:
    """The count rows of a flat int32 table of the given width, as lists.

    >>> table_rows(array("i", [1, 0, 1, 1]).tobytes(), 2, 2)
    [[1, 0], [1, 1]]
    """
    cells = memoryview(table).cast("i")
    return [cells[i * width:(i + 1) * width].tolist() for i in range(count)]


def closure(
    degree: int, gens: "list[PartialPerm] | tuple[PartialPerm, ...]"
) -> FiniteMonoid:
    """Smallest monoid containing the identity and the generators.

    Breadth-first over (element, generator) pairs: elements are indexed
    in discovery order starting from the identity, generators in the
    given order.  Only the right products are composed (Froidure & Pin,
    1997), by the kernel's close; FiniteMonoid builds the rest on first
    use.  Row 0 of the right table, the identity's, holds each
    generator's index.

    An element is its ``PartialPerm.key``, and f then g is
    ``f.key.translate(g.table())``.  A degree outside 1..255, or a
    generator of another degree, raises ValueError; a closure with more
    elements than fit in CLOSURE_BYTES raises ClosureCapError.  The
    compiled close holds about 4 * len(gens) + degree + 22 bytes per element
    while it runs, and copies the degree + 1 bytes of key and
    4 * len(gens) bytes of right table per element that the monoid
    keeps into its result before it frees its own arrays: at the peak,
    8 * len(gens) + 2 * degree + 23 bytes per element (439 bytes on
    ODI(24), whose 46 generators make 184-byte table rows).  So the cap
    is the elements that fit in CLOSURE_BYTES at that peak.

    >>> g = named_generator("g", 4)
    >>> closure(4, [g]).size
    4
    """
    check_degree(degree)
    gens = list(gens)
    for f in gens:
        if f.degree != degree:
            raise ValueError(f"generator degree {f.degree} != {degree}")
    per_element = 8 * len(gens) + 2 * degree + 23
    cap = CLOSURE_BYTES // per_element
    closed = _kernel.close(degree, b"".join(f.key for f in gens), cap)
    if closed is None:
        raise ClosureCapError(f"closure exceeded cap of {cap} elements ({CLOSURE_BYTES} "
                              f"bytes at {per_element} bytes an element)")
    key_bytes, rows = closed
    generators = tuple(memoryview(rows).cast("i")[:len(gens)])
    return FiniteMonoid(degree, key_bytes, generators, rows)


#: Minimum degree at which each family is defined, checked by _check_n
#: for the generating sets and both formulas.
_FAMILY_MIN_N = {
    MonoidFamily.DI: 3,
    MonoidFamily.ODI: 4,
    MonoidFamily.MDI: 4,
    MonoidFamily.OPDI: 4,
    MonoidFamily.CI: 1,
    MonoidFamily.OCI: 1,
    MonoidFamily.DIHEDRAL_GROUP: 3,
    MonoidFamily.CYCLIC_GROUP: 1,
}


def _check_n(family: MonoidFamily, n: int) -> None:
    low = _FAMILY_MIN_N[family]
    if n < low:
        raise ValueError(f"{family.value} needs n >= {low}, got {n}")


# the generating sets that do not grow with n
_FIXED_GENERATORS = {
    MonoidFamily.DI: ("g", "h", "e_1"),
    MonoidFamily.CI: ("g", "e_1"),
    MonoidFamily.DIHEDRAL_GROUP: ("g", "h"),
    MonoidFamily.CYCLIC_GROUP: ("g",),
}


def generator_names(family: MonoidFamily, n: int) -> list[str]:
    """The letter names of a family's standard generating set, in order.

    These are the generating sets of minimum size for ODI, MDI and OPDI;
    the other families use their usual two- or three-element sets.

    >>> generator_names(MonoidFamily.MDI, 6)
    ['h', 'x', 'e_2', 'e_3', 'x_1', 'x_2', 'y_1', 'y_2']
    """
    _check_n(family, n)
    if family in _FIXED_GENERATORS:
        return list(_FIXED_GENERATORS[family])
    if family == MonoidFamily.OCI:
        return ["x", "y"] + [f"e_{i}" for i in range(1, n + 1)]
    m = (n - 1) // 2
    xs = [f"x_{i}" for i in range(1, m + 1)]
    if family == MonoidFamily.OPDI:
        return ["g", "e_1"] + xs
    ys = [f"y_{i}" for i in range(1, m + 1)]
    if family == MonoidFamily.ODI:
        return ["x", "y"] + [f"e_{i}" for i in range(2, n)] + xs + ys
    # MDI, the one family left
    return ["h", "x"] + [f"e_{i}" for i in range(2, (n + 1) // 2 + 1)] + xs + ys


def generating_maps(
    family: MonoidFamily, n: int
) -> tuple[tuple[str, PartialPerm], ...]:
    """The standard generating set of a family, as (name, map) pairs."""
    return tuple((name, named_generator(name, n)) for name in generator_names(family, n))


def build_named(family: MonoidFamily, n: int) -> FiniteMonoid:
    """Closure of the family's standard generating set.

    >>> build_named(MonoidFamily.OCI, 4).size
    38
    >>> build_named(MonoidFamily.ODI, 4).size
    44
    """
    maps = [f for _, f in generating_maps(family, n)]
    return closure(n, maps)


def _odi_size(n: int) -> int:
    correction = n * n // 4 if n % 2 == 0 else 0
    return 3 * 2**n + (n + 1) * n * (n - 1) // 6 - correction - 2 * n - 2


def _mdi_size(n: int) -> int:
    correction = 3 * n * n // 2 if n % 2 == 0 else n * n
    return 3 * 2 ** (n + 1) + (n + 1) * n * (n - 1) // 3 - correction - 4 * n - 5


def _oci_size(n: int) -> int:
    return 3 * 2**n - 2 * n - 2


#: The closed-form size of each family that has one, in the order
#: ``dimon formulas`` prints them; cardinality_formula reads it.
CARDINALITY_FORMS = {
    MonoidFamily.ODI: _odi_size,
    MonoidFamily.MDI: _mdi_size,
    MonoidFamily.OCI: _oci_size,
}


def cardinality_formula(family: MonoidFamily, n: int) -> int:
    """Closed-form size for the families in CARDINALITY_FORMS.

    >>> cardinality_formula(MonoidFamily.ODI, 5)
    104
    >>> cardinality_formula(MonoidFamily.MDI, 4)
    71
    >>> cardinality_formula(MonoidFamily.OCI, 5)
    84
    """
    _check_n(family, n)
    if family not in CARDINALITY_FORMS:
        raise ValueError(
            f"no closed cardinality form for family {family.value}; "
            "size is defined operationally by closure"
        )
    return CARDINALITY_FORMS[family](n)


def rank_formula(family: MonoidFamily, n: int) -> int:
    """Minimum generating-set size of ODI, MDI or OPDI.

    >>> [rank_formula(f, 4) for f in (MonoidFamily.ODI, MonoidFamily.MDI, MonoidFamily.OPDI)]
    [6, 5, 3]
    """
    _check_n(family, n)
    m = (n - 1) // 2
    if family == MonoidFamily.ODI:
        return n + 2 * m
    if family == MonoidFamily.MDI:
        return 2 + 3 * m
    if family == MonoidFamily.OPDI:
        return 2 + m
    raise ValueError(f"no rank formula for family {family.value}")


def verify_generates(
    m: FiniteMonoid, gens: "list[PartialPerm] | tuple[PartialPerm, ...]"
) -> bool:
    """True iff the closure of gens has exactly m's element set.

    m must be closed under products and generated by m.generators, as
    every monoid built by closure is.  Then the closure of gens is m
    exactly when every map in gens lies in m and the closure reaches
    every generator of m.  So the check is: membership of gens, then a
    breadth-first search from the identity over the products with gens,
    kept as keys, that stops once it has seen every generator of m.
    """
    for f in gens:
        if f.degree != m.degree:
            raise ValueError(f"generator degree {f.degree} != {m.degree}")
    if not all(f in m for f in gens):
        return False
    identity = m.element(0)
    missing = {m.key(g) for g in m.generators} - {identity.key}
    seen = {identity.key}
    queue = [identity]
    for f in queue:
        if not missing:
            return True
        for g in gens:
            h = compose(f, g)
            if h.key not in seen:
                seen.add(h.key)
                missing.discard(h.key)
                queue.append(h)
    return not missing


@dataclasses.dataclass(frozen=True)
class GreenClasses:
    """The numbers of R-, L-, H- and D-classes, in sizes, as the kernel
    counted them."""

    sizes: tuple[int, int, int, int]

    def counts(self) -> dict[str, int]:
        return dict(zip("rlhd", self.sizes))


def green_classes(m: FiniteMonoid) -> GreenClasses:
    """Green's R, L, H and D (= J, the monoid is finite) classes of an
    inverse monoid.

    m must be closed under inverses, and ValueError is raised
    otherwise: m is when every generator's inverse is in it, since
    (s_1...s_k)^-1 = s_k^-1...s_1^-1.  In an inverse monoid of partial
    permutations f R g iff dom f = dom g and f L g iff im f = im g, so
    the kernel's green counts R off the keys' domains and L off their
    images.  H is the common refinement of R and L.  D = R o L in every
    semigroup, so D is the join of R and L.
    """
    for g in m.generators:
        if inverse(m.element(g)) not in m:
            raise ValueError(
                "Green's classes need an inverse monoid: the inverse of "
                f"element {g}, a generator, is not in the monoid"
            )
    return GreenClasses(_kernel.green(m.degree, m.key_bytes))


def right_cayley_dot(m: FiniteMonoid) -> str:
    """GraphViz source of the right Cayley graph, edge k labeled g<k>."""
    lines = ["digraph right_cayley {"]
    for i, f in enumerate(m.elements):
        label = ",".join(f"{p}:{q}" for p, q in f.pairs()) or "empty"
        lines.append(f'  n{i} [label="{i}: {label}"];')
    width = len(m.generators)
    for cell, target in enumerate(memoryview(m.right_cayley).cast("i")):
        i, k = divmod(cell, width)
        lines.append(f'  n{i} -> n{target} [label="g{k}"];')
    lines.append("}")
    return "\n".join(lines)
