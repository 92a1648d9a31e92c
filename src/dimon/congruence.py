"""Two-sided congruence enumeration for finitely presented monoids.

The engine fills the right-action table of classes under letters,
applying every defining relation at every class.  A right congruence
that contains (w u, w v) for every word w and defining pair (u, v) is
closed under multiplication on both sides, so this computes the full
two-sided congruence and the class count is the size of the presented
monoid when enumeration completes.

Runs are deterministic: classes are processed in creation order,
relations in list order tracing left to right, remaining edges filled
in letter order, and coincidences handled first-in first-out with the
smaller class id surviving.  Capped runs are reported as such, never
as a wrong answer; a completed run can overcount nothing and
undercount nothing.

The kernel is the compiled extension dimon._tc_core when it was built,
and the pure-Python dimon._tc_py otherwise; dimon.monoids chooses it
once, for closure as well, and this module re-exports that choice as
_kernel and BACKEND ("compiled" or "pure").  Both kernels implement the
identical procedure and return identical (status, table, stats)
triples: the table a tuple of tuple rows or None, which
EnumerationResult keeps as it came, and stats the run's counters
(classes defined, peak live classes, coincidences, steps), which it
keeps too.  setup.py compiles the extension from the hand-written C
source _tc_core.c, which follows _tc_py step for step.  The kernel
reads each presentation's relations as Presentation.relation_ids,
encoded once; both kernels raise ValueError for a letter id outside
range(n_letters).  A watched run (is_consequence) that completes never
merged its pair, so the answer is no: the watch is checked after every
scan, and only scans merge classes.

Checking a presentation or a forms set against a concrete monoid goes
through class_elements: a complete table is walked breadth-first from
class 0 alongside the monoid's right action, which gives each class
its element and checks every edge of the table.  verify_presentation
checks generation, then enumerates, then walks; it evaluates the
relations word by word only when the walk fails or the run was capped,
so a presentation whose relations fail under its assignment pays for
one enumeration before its FAIL.  verify_forms_set reads each form's
element off its class instead of evaluating the form.

The environment variable DIMON_MAX_CLASSES overrides the default class
cap.  Caps are checked where they are made: the compiled kernel holds
class ids in a C int and its step count in a C long long.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import os

from .monoids import BACKEND, FiniteMonoid, _kernel, verify_generates
from .presentations import (
    Assignment,
    FormsSet,
    Presentation,
    Relation,
    check_relations_hold,
)

class IndeterminateError(RuntimeError):
    """A capped enumeration left the question undecided."""


class Verdict(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INDETERMINATE = "INDETERMINATE"


# the compiled kernel doubles its class capacity in a C int, and counts
# steps in a C long long
MAX_CLASSES = 2**30
MAX_STEPS = 2**63 - 1


@dataclasses.dataclass(frozen=True)
class EnumerationCaps:
    """Budgets for one enumeration run."""

    max_classes: int = 10**6
    max_steps: int = 10**8

    def __post_init__(self):
        if self.max_classes <= 0 or self.max_steps <= 0:
            raise ValueError("caps must be positive")
        if self.max_classes > MAX_CLASSES:
            raise ValueError(
                f"max_classes must be at most 2**30, got {self.max_classes}"
            )
        if self.max_steps > MAX_STEPS:
            raise ValueError(
                f"max_steps must be at most 2**63 - 1, got {self.max_steps}"
            )

    @classmethod
    def default(cls) -> "EnumerationCaps":
        """The default caps, with max_classes from DIMON_MAX_CLASSES if set."""
        env = os.environ.get("DIMON_MAX_CLASSES")
        if not env:
            return cls()
        try:
            return cls(max_classes=int(env))
        except ValueError as exc:
            raise ValueError(
                f"DIMON_MAX_CLASSES={env!r} is not a class cap: {exc}"
            ) from None


@dataclasses.dataclass(frozen=True)
class EnumerationResult:
    """Outcome of one enumeration.

    When complete, table[c][k] is the class of (word of class c)
    followed by letter k, and class 0 is the class of the empty word.
    A capped run has no table.  stats holds the kernel's counters at
    the run's stop, complete or capped: classes_defined,
    peak_live_classes, coincidences and steps.
    """

    letters: "tuple[str, ...]"
    table: "tuple[tuple[int, ...], ...] | None"
    caps: EnumerationCaps
    stats: "dict[str, int]"

    @property
    def is_complete(self) -> bool:
        return self.table is not None

    @property
    def class_count(self) -> "int | None":
        return None if self.table is None else len(self.table)

    @functools.cached_property
    def _letter_ids(self) -> "dict[str, int]":
        return {name: k for k, name in enumerate(self.letters)}

    def word_class(self, w: "tuple[str, ...]") -> int:
        """Class of a word, by replaying letter actions from class 0."""
        if not self.is_complete:
            raise IndeterminateError("enumeration was capped")
        c = 0
        for name in w:
            c = self.table[c][self._letter_ids[name]]
        return c

    def to_json_dict(self) -> dict:
        if self.is_complete:
            return {"status": "complete", "classes": self.class_count,
                    "stats": dict(self.stats)}
        return {
            "status": "capped",
            "max_classes": self.caps.max_classes,
            "max_steps": self.caps.max_steps,
            "stats": dict(self.stats),
        }


def enumerate_congruence(
    p: Presentation, caps: "EnumerationCaps | None" = None
) -> EnumerationResult:
    """Classes of the smallest congruence containing p's relations.

    >>> from .presentations import Presentation, Relation
    >>> p = Presentation("t", ("a",), (Relation(("a", "a"), ("a",), ""),))
    >>> enumerate_congruence(p).class_count
    2
    """
    caps = caps or EnumerationCaps.default()
    _, table, stats = _kernel.run(
        len(p.letters), p.relation_ids, caps.max_classes, caps.max_steps
    )
    return EnumerationResult(p.letters, table, caps, stats)


def is_consequence(
    p: Presentation, rel: Relation, caps: "EnumerationCaps | None" = None
) -> bool:
    """Whether rel holds in every monoid satisfying p's relations.

    The run exits early once the two sides provably coincide, so true
    consequences are confirmed even when the presented monoid is
    infinite.  A capped run without a merge raises IndeterminateError.
    """
    caps = caps or EnumerationCaps.default()
    watch = (p.word_ids(rel.lhs), p.word_ids(rel.rhs))
    status, _, _ = _kernel.run(
        len(p.letters), p.relation_ids, caps.max_classes, caps.max_steps, watch
    )
    if status == _kernel.STATUS_CAPPED:
        raise IndeterminateError(
            f"capped at {caps.max_classes} classes before deciding "
            f"{rel.lhs} = {rel.rhs}"
        )
    return status == _kernel.STATUS_WATCH_MERGED


def class_elements(
    result: EnumerationResult, a: Assignment, m: FiniteMonoid
) -> "list[int] | None":
    """The index in m of each class's element under a, or None.

    Breadth-first from class 0, which maps to the identity (element 0):
    the first edge c -k-> t to reach t sets t's element to c's element
    times the image of letter k, and every edge must then agree.  So a
    list comes back only when every class is reached and every edge of
    the table agrees with m's right action; then the element of the
    class of any word is the word's value under a.  None when the run
    was capped, a letter's image is not in m, an edge disagrees or a
    class is not reached; KeyError when a has no image for a letter.
    """
    if not result.is_complete:
        return None
    images = [a.image(name) for name in result.letters]
    try:
        cols = [m.right_action(f) for f in images]
    except KeyError:
        return None
    table = result.table
    elems = [-1] * len(table)
    elems[0] = 0
    queue = [0]
    for c in queue:
        e = elems[c]
        for t, col in zip(table[c], cols):
            f = col[e]
            s = elems[t]
            if s != f:
                if s >= 0:
                    return None
                elems[t] = f
                queue.append(t)
    return elems if len(queue) == len(table) else None


@dataclasses.dataclass(frozen=True)
class PresentationVerdict:
    verdict: Verdict
    class_count: "int | None"
    monoid_size: int
    failing_tags: "tuple[str, ...]"


def verify_presentation(
    p: Presentation,
    a: Assignment,
    m: FiniteMonoid,
    caps: "EnumerationCaps | None" = None,
) -> PresentationVerdict:
    """Decide whether p presents m via the assignment a.

    First the assignment images must generate m (checked, ValueError
    otherwise); then p is enumerated.  After a complete run the table
    is walked alongside m (class_elements).  A walk that agrees on every
    edge proves every relation holds under a, and maps the classes onto
    m, since the images generate it; so the verdict is PASS exactly
    when the class count equals m.size.

    The relations are evaluated word by word only when there is no
    walk: a relation that fails under a gives FAIL with the failing
    tags and no class count.  So such a presentation pays for one
    enumeration (capped or not) before its FAIL; every built-in family
    holds its relations.  A complete run whose table does not map onto
    m although every relation holds raises RuntimeError, and a capped
    one is INDETERMINATE.
    """
    images = [a.image(name) for name in p.letters]
    if not verify_generates(m, images):
        raise ValueError("assignment images do not generate the monoid")
    result = enumerate_congruence(p, caps)
    if class_elements(result, a, m) is None:
        failing = check_relations_hold(p, a)
        if failing:
            return PresentationVerdict(
                Verdict.FAIL, None, m.size, tuple(r.tag for r in failing)
            )
        if not result.is_complete:
            return PresentationVerdict(Verdict.INDETERMINATE, None, m.size, ())
        raise RuntimeError(
            "classes do not map onto the monoid's elements although every "
            "relation holds: enumeration soundness violated"
        )
    verdict = Verdict.PASS if result.class_count == m.size else Verdict.FAIL
    return PresentationVerdict(verdict, result.class_count, m.size, ())


@dataclasses.dataclass(frozen=True)
class FormsVerdict:
    """forms_count is None when the forms could not be built: their seed
    enumeration was capped."""

    verdict: Verdict
    forms_count: "int | None"
    class_count: "int | None"
    monoid_size: int
    problems: "tuple[str, ...]"


def verify_forms_set(
    p: Presentation,
    forms: FormsSet,
    a: Assignment,
    m: FiniteMonoid,
    caps: "EnumerationCaps | None" = None,
) -> FormsVerdict:
    """Check that forms is a transversal of p's classes matching m.

    PASS means: the forms fall in pairwise distinct classes, cover
    every class, number exactly m.size, and evaluate bijectively onto
    m's elements.  A form's element is read off its class through
    class_elements, not evaluated letter by letter; when the classes
    do not map onto m's elements under a, that is the one problem
    reported about the images.
    """
    result = enumerate_congruence(p, caps)
    if not result.is_complete:
        return FormsVerdict(
            Verdict.INDETERMINATE, len(forms.words), None, m.size, ()
        )
    problems = []
    classes = [result.word_class(w) for w in forms.words]
    if len(set(classes)) != len(classes):
        problems.append("two forms share a class")
    if set(classes) != set(range(result.class_count)):
        problems.append("forms do not cover every class")
    if len(forms.words) != m.size:
        problems.append(
            f"{len(forms.words)} forms against monoid size {m.size}"
        )
    elements = class_elements(result, a, m)
    if elements is None:
        problems.append("classes do not map onto the monoid's elements")
    else:
        distinct = len({elements[c] for c in classes})
        if distinct != len(classes):
            problems.append("two forms evaluate to one element")
        if distinct != m.size:
            problems.append("form images are not the monoid's elements")
    verdict = Verdict.PASS if not problems else Verdict.FAIL
    return FormsVerdict(
        verdict, len(forms.words), result.class_count, m.size, tuple(problems)
    )


def normal_forms(r: EnumerationResult, alphabet: "tuple[str, ...]") -> FormsSet:
    """Shortlex-least representative of every class, indexed by class.

    Breadth-first over the completed table: the first word reaching a
    class, generating letters in alphabet order, is its shortlex-least
    representative (least representatives are prefix-closed).
    """
    if not r.is_complete:
        raise IndeterminateError("enumeration was capped")
    names = tuple(alphabet)
    if names != r.letters:
        raise ValueError(f"alphabet {names} does not match enumeration letters")
    reps: "list[tuple[str, ...] | None]" = [None] * r.class_count
    reps[0] = ()
    queue = [0]
    head = 0
    while head < len(queue):
        c = queue[head]
        head += 1
        for k in range(len(names)):
            t = r.table[c][k]
            name = names[k]
            if reps[t] is None:
                reps[t] = reps[c] + (name,)
                queue.append(t)
    return FormsSet(label="shortlex", letters=names, words=tuple(reps))
