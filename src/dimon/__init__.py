"""Workbench for dihedral-type inverse monoids of partial permutations.

The package builds the monoids of those partial permutations of the
chain {1 < ... < n} that extend to symmetries of a regular n-gon
(rotations alone, or rotations and reflections), together with their
order-preserving, monotone and orientation-preserving submonoids.  It
constructs finite presentations for these families, and checks the
presentations mechanically by enumerating two-sided congruence classes
and comparing against the concrete monoids.

Modules:

    iperm          partial permutations and the named generating maps
    monoids        breadth-first closure, named families, Green's classes
    presentations  alphabets, relation families, Tietze moves, forms sets
    congruence     two-sided congruence enumeration and verification
    cli            command-line front end

The closure loop, Green's class counts, the enumeration and the witness
search run in one kernel module: the compiled extension _tc_core (run,
witness, close and green, from the hand-written _tc_core.c) when it was
built, and the pure-Python _tc_py, which it follows step for step,
otherwise.  BACKEND says which ("compiled" or "pure").
"""

from .congruence import (
    BACKEND,
    EnumerationCaps,
    IndeterminateError,
    Verdict,
    enumerate_congruence,
    is_consequence,
    normal_forms,
    verify_forms_set,
    verify_presentation,
)
from .iperm import PartialPerm, compose, inverse, named_generator
from .monoids import (
    FiniteMonoid,
    MonoidFamily,
    build_named,
    cardinality_formula,
    closure,
    green_classes,
    rank_formula,
)
from .presentations import (
    Assignment,
    Presentation,
    Relation,
    RelationFamily,
    build_assignment,
    build_forms,
    build_relations,
    check_relations_hold,
    expected_relation_count,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Assignment",
    "EnumerationCaps",
    "FiniteMonoid",
    "IndeterminateError",
    "MonoidFamily",
    "PartialPerm",
    "Presentation",
    "Relation",
    "RelationFamily",
    "Verdict",
    "build_assignment",
    "build_forms",
    "build_named",
    "build_relations",
    "cardinality_formula",
    "check_relations_hold",
    "closure",
    "compose",
    "enumerate_congruence",
    "expected_relation_count",
    "green_classes",
    "inverse",
    "is_consequence",
    "named_generator",
    "normal_forms",
    "rank_formula",
    "verify_forms_set",
    "verify_presentation",
    "__version__",
]
