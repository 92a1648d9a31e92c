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
undercount nothing.  A completed table is standardized: classes are
numbered breadth-first from class 0, letters in order, so class c's
shortlex-least word is its breadth-first parent's word plus one letter,
and the classes come in shortlex order of those words.

The kernel is the compiled extension dimon._tc_core when it was built,
and the pure-Python dimon._tc_py otherwise; dimon.monoids chooses it
once, for closure as well, and this module re-exports that choice as
_kernel and BACKEND ("compiled" or "pure").  Both kernels implement the
identical procedures: run returns identical (status, table, stats)
triples: the table int32 bytes, row-major, or None, which
EnumerationResult keeps as it came, and stats the run's counters
(classes defined, peak live classes, coincidences, steps), which it
keeps too; witness returns identical (table, nodes) pairs.  setup.py
compiles the extension from the hand-written C source _tc_core.c, which
follows _tc_py step for step.  The kernel
reads each presentation's relations as Presentation.relation_ids, int32
words encoded once, when the Presentation is made and checks its letters
by encoding them; both kernels raise ValueError for a letter id outside
range(n_letters).

is_consequence watches the pair's two sides.  A run that merges them
answers True, and one that completes never merged them, so it answers
False: the watch is checked after every scan that merged classes, and
only scans merge classes.  A capped run decides nothing, as the monoid
may be too large for the caps or infinite; a finite model can: an
action of the letters, reached from point 0, in which every relation
acts equally at every point and the pair's sides act differently at
some point (a bounded low-index search, as in Anagnostopoulou-Merkouri,
Cirpons, Mitchell and Tsalakou, 2023).  Such an action is one of the
presented monoid, in which the two sides are then distinct, so the
answer is False once is_consequence has traced the action again here,
one bytes.translate per letter; an action that fails that trace raises
RuntimeError.  The schedule is is_consequence's alone: one kernel
witness call searches actions on at most two points, and, when it finds
none, a second on at most WITNESS_POINTS points, each within
WITNESS_NODES nodes (so up to twice that in all).

is_consequence races the two, as libsemigroups' Congruence races its
algorithms: the search runs on one helper thread while the watched run
runs in the calling thread, over the kernels' one-byte stop flag (its
contract is in _tc_py's module docstring).  Each call builds its search
as one local function: it holds the schedule, skips a search whose run
has already merged, appends its (table, nodes), or what it raised, to
the call's own list, and then, in a finally, sets the flag to 1 for an
action, which stops the run (STATUS_STOPPED), or to 2 for none.  A run
that merges sets the flag to 1, which ends the search within one node.
A run that caps or completes first waits for the flag, so its status
depends on its arguments alone, and only a stopped run's counters on
which thread finished first.  The outcome is in the list by then: the
search appends it before it writes the flag, and is_consequence reads
it only once it holds the GIL again.  A capped run thus waits for the
whole search, and with no action found raises IndeterminateError, whose
message gives the run's counters against both caps and the nodes
searched.  An action and a merged run exclude each other, and a
complete run and an action both mean False, so the answers are those of
the run followed by the search.  The compiled kernels release the GIL,
so the two use two cores; the pure ones interleave under the GIL.  The
helper is one daemon thread, started by the first is_consequence call
and again when it is not alive (in a forked child), that runs the
functions queued for it in turn.
verify_presentation searches for no action.

Checking a presentation or a forms set against a concrete monoid is a
comparison of two tables.  monoids.closure numbers the elements that
the assignment's images generate breadth-first over the images, in
letter order, which is how the standardized table numbers classes.  So
the enumeration's table equals the closure's right table, byte for
byte, exactly when the presentation presents the monoid through the
assignment, and then class c is closure element c.
verify_presentation checks generation, then enumerates, then compares;
it evaluates the relations word by word only when the tables differ or
the run was capped, so a presentation whose relations fail under its
assignment pays for one enumeration before its FAIL.  verify_forms_set
evaluates no form: equal tables map the classes one to one onto the
monoid's elements, so forms in distinct classes covering every class
evaluate one to one onto the elements; it takes every form's class in
one call of EnumerationResult.word_classes, the one walk of a table.
When the images are the monoid's own generators in order, as for U, V,
VbarPrime and QPrime, their closure is the monoid itself: both checks
then compare with its right table and neither closes the images again.

Results depend on their arguments alone: a call without caps always
gets EnumerationCaps(), and nothing here reads the environment.  Caps
are checked where they are made: the compiled kernel holds class ids in
a C int and its step count in a C long long.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import threading

from . import monoids
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


# a capped watched run searches for an action that separates the watch
# on at most two points and then, if none does, on at most
# WITNESS_POINTS points, each search within WITNESS_NODES nodes
WITNESS_POINTS = 3
WITNESS_NODES = 100

# the compiled kernel holds class ids in C ints, hence a round bound
# below INT_MAX (its capacity doubles in a Py_ssize_t, not an int), and
# counts steps in a C long long
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

    def report(self, stats) -> str:
        """The report of a run capped under these caps, from its stats:
        both counters against both caps, whichever bound."""
        return (f"capped at {stats['classes_defined']} classes defined "
                f"(cap {self.max_classes}) after {stats['steps']} steps "
                f"(cap {self.max_steps})")


@dataclasses.dataclass(frozen=True)
class EnumerationResult:
    """Outcome of one enumeration.

    When complete, table is the kernel's standardized table: int32
    bytes whose cell c * len(letters) + k is the class of (word of class
    c) followed by letter k, class 0 being the class of the empty word.
    With no letters the table is b"" and there is one class.  A capped
    run has no table.  stats holds the kernel's counters at
    the run's stop, complete or capped: classes_defined,
    peak_live_classes, coincidences and steps.
    """

    letters: "tuple[str, ...]"
    table: "bytes | None"
    caps: EnumerationCaps
    stats: "dict[str, int]"

    @property
    def is_complete(self) -> bool:
        return self.table is not None

    @property
    def class_count(self) -> "int | None":
        if self.table is None:
            return None
        return len(self._cells) // len(self.letters) if self.letters else 1

    @functools.cached_property
    def _cells(self) -> memoryview:
        """The table's cells as ints."""
        return memoryview(self.table).cast("i")

    def word_classes(self, words) -> "list[int]":
        """The class of each word, by replaying letter actions from class 0.

        The table is read once into one column per letter, so a letter
        costs one lookup of its column and one read of the column.  A
        word with a letter outside letters raises ValueError naming both.
        """
        if not self.is_complete:
            raise IndeterminateError("enumeration was capped")
        cells, width = self._cells, len(self.letters)
        columns = {name: cells[k::width].tolist() for k, name in enumerate(self.letters)}
        column = columns.__getitem__
        classes = []
        try:
            for w in words:
                c = 0
                for col in map(column, w):
                    c = col[c]
                classes.append(c)
        except KeyError as e:
            raise ValueError(
                f"word {w!r} has letter {e.args[0]!r}, not in {self.letters}"
            ) from None
        return classes

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
    caps = caps or EnumerationCaps()
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
    infinite.  A run that completes without merging them answers False.
    A capped run is decided by a search for a small action that
    separates them, raced against the run on a helper thread (see the
    module docstring): False when it finds one, IndeterminateError when
    it does not.  The answers are those of running the two one after
    the other.  A letter outside p's alphabet raises ValueError.
    """
    caps = caps or EnumerationCaps()
    try:
        watch = p.encode((rel.lhs, rel.rhs))
    except KeyError as e:
        raise ValueError(f"relation {rel.lhs} = {rel.rhs} has letter {e.args[0]!r}, "
                         f"not in {p.letters}") from None
    n_letters, relations, witness = len(p.letters), p.relation_ids, _kernel.witness
    stop, outcome = bytearray(1), []

    def search():
        if stop[0]:  # the run merged first: no one waits for this search
            return
        table, nodes = None, 0
        try:
            for points in (2, WITNESS_POINTS):
                table, searched = witness(
                    n_letters, relations, watch, points, WITNESS_NODES, stop
                )
                nodes += searched
                if table is not None or stop[0]:
                    break
            outcome.append((table, nodes))
        except BaseException as e:  # raised again below
            outcome.append(e)
        finally:
            # after a merged run no one reads the flag, so this may overwrite it
            stop[0] = 1 if table is not None else 2

    _search(search)
    status, _, stats = _kernel.run(
        n_letters, relations, caps.max_classes, caps.max_steps, watch, stop
    )
    if status == _kernel.STATUS_WATCH_MERGED:
        stop[0] = 1  # ends the search
        return True
    if status == _kernel.STATUS_COMPLETE:  # and the search found no action
        return False
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    table, nodes = outcome[0]
    if table is None and status == _kernel.STATUS_STOPPED:
        raise RuntimeError(
            "the run was stopped although the witness search found no action: "
            "stop flag protocol violated"
        )
    if table is None:
        raise IndeterminateError(
            f"{caps.report(stats)} before deciding {rel.lhs} = {rel.rhs}, and "
            f"no action on at most {WITNESS_POINTS} points separates it in the "
            f"{nodes} nodes searched"
        )
    if not _separates(p, rel, table):
        raise RuntimeError(
            f"the kernel's action does not separate {rel.lhs} = {rel.rhs} "
            "in a model of the relations: witness search soundness violated"
        )
    return False


# the helper thread that runs is_consequence's searches, and its queue of
# them: started by the first search, and again when it is not alive
_helper = None
_jobs = None


def _search(job):
    """Queue job, a callable, for the helper thread, which is started
    first when it is not alive (the first call, or in a forked child)."""
    global _helper, _jobs
    if _helper is None or not _helper.is_alive():
        import queue  # here: importing dimon loads no more modules

        _jobs = queue.SimpleQueue()
        _helper = threading.Thread(target=_serve, args=(_jobs,), daemon=True,
                                   name="dimon-witness")
        _helper.start()
    _jobs.put(job)


def _serve(jobs):
    """The helper thread: runs each queued job in turn."""
    while True:
        jobs.get()()


def _separates(p: Presentation, rel: Relation, table: bytes) -> bool:
    """Whether table, an action of p's letters as witness returns it, is
    one in which each of p's relations acts equally at every point and
    rel's two sides act differently at some point.

    Each letter's column is a bytes.translate table, so a word acts on
    all the points at once, one translate per letter.
    """
    width = len(p.letters)
    cells = memoryview(table).cast("i")
    points = len(cells) // width
    if not 0 < points * width == len(cells) or not 0 <= min(cells) <= max(cells) < points:
        return False
    columns = {name: bytes(cells[k::width].tolist()).ljust(256, b"\0")
               for k, name in enumerate(p.letters)}
    start = bytes(range(points))

    def act(word):
        q = start
        for name in word:
            q = q.translate(columns[name])
        return q

    return (all(act(r.lhs) == act(r.rhs) for r in p.relations)
            and act(rel.lhs) != act(rel.rhs))


def _closure_of_images(m: FiniteMonoid, images: list):
    """None when the images do not generate m, else a function returning
    their closure, which is m itself when they are its generators in order."""
    if m.is_closure_of(images):
        return lambda: m
    if not verify_generates(m, images):
        return None
    return lambda: monoids.closure(m.degree, images)


@dataclasses.dataclass(frozen=True)
class PresentationVerdict:
    """stats holds the enumeration's counters (see EnumerationResult)."""

    verdict: Verdict
    class_count: "int | None"
    monoid_size: int
    failing_tags: "tuple[str, ...]"
    stats: "dict[str, int]"


def verify_presentation(
    p: Presentation,
    a: Assignment,
    m: FiniteMonoid,
    caps: "EnumerationCaps | None" = None,
) -> PresentationVerdict:
    """Decide whether p presents m via the assignment a.

    First the assignment images must generate m (checked, ValueError
    otherwise; KeyError when a has no image for a letter of p); then p
    is enumerated.  After a complete run the table is compared with the
    right table of the closure of the images: PASS exactly when the two
    are equal (see the module docstring).

    The relations are evaluated word by word only when the tables
    differ or the run was capped: a relation that fails under a gives
    FAIL with the failing tags and no class count.  Each tag is listed
    once, in order of first occurrence, since a chain of equalities
    gives several relations one tag.  So such a presentation pays for
    one enumeration (capped or not) before its FAIL; every built-in
    family holds its relations.  When every relation holds, the
    classes map onto m, so a capped run is INDETERMINATE, a complete
    one with more classes than m.size is FAIL with its class count,
    and any other complete one raises RuntimeError.
    """
    close = _closure_of_images(m, [a.image(name) for name in p.letters])
    if close is None:
        raise ValueError("assignment images do not generate the monoid")
    result = enumerate_congruence(p, caps)
    count, stats = result.class_count, result.stats
    if result.is_complete and result.table == close().right_cayley:
        return PresentationVerdict(Verdict.PASS, count, m.size, (), stats)
    failing = check_relations_hold(p, a)
    if failing:
        tags = tuple(dict.fromkeys(r.tag for r in failing))
        return PresentationVerdict(Verdict.FAIL, None, m.size, tags, stats)
    if not result.is_complete:
        return PresentationVerdict(Verdict.INDETERMINATE, None, m.size, (), stats)
    if count > m.size:
        return PresentationVerdict(Verdict.FAIL, count, m.size, (), stats)
    raise RuntimeError(
        "classes do not map onto the monoid's elements although every "
        "relation holds: enumeration soundness violated"
    )


@dataclasses.dataclass(frozen=True)
class FormsVerdict:
    """stats holds the enumeration's counters (see EnumerationResult)."""

    verdict: Verdict
    forms_count: int
    class_count: "int | None"
    monoid_size: int
    problems: "tuple[str, ...]"
    stats: "dict[str, int]"


def verify_forms_set(
    p: Presentation,
    forms: FormsSet,
    a: Assignment,
    m: FiniteMonoid,
    caps: "EnumerationCaps | None" = None,
) -> FormsVerdict:
    """Check that forms is a transversal of p's classes matching m.

    PASS means: the forms fall in pairwise distinct classes, cover
    every class, number exactly m.size, and p's table equals the right
    table of the closure of a's images, which must generate m.  Equal
    tables number the classes as m's elements (see the module
    docstring), so the forms then evaluate bijectively onto m's
    elements; no form is evaluated.  When the images do not generate m
    or the tables differ, that is the one problem reported about the
    images.  Forms over letters other than p's, or a form with a letter
    outside them, raise ValueError.
    """
    if forms.letters != p.letters:
        raise ValueError(
            f"forms over letters {forms.letters} do not match "
            f"the presentation's letters {p.letters}"
        )
    result = enumerate_congruence(p, caps)
    if not result.is_complete:
        return FormsVerdict(
            Verdict.INDETERMINATE, len(forms.words), None, m.size, (), result.stats
        )
    problems = []
    classes = result.word_classes(forms.words)
    distinct = set(classes)
    if len(distinct) != len(classes):
        problems.append("two forms share a class")
    if len(distinct) != result.class_count:  # every class id is below the count
        problems.append("forms do not cover every class")
    if len(forms.words) != m.size:
        problems.append(
            f"{len(forms.words)} forms against monoid size {m.size}"
        )
    close = _closure_of_images(m, [a.image(name) for name in p.letters])
    if close is None or result.table != close().right_cayley:
        problems.append("classes do not map onto the monoid's elements")
    verdict = Verdict.PASS if not problems else Verdict.FAIL
    return FormsVerdict(
        verdict, len(forms.words), result.class_count, m.size, tuple(problems),
        result.stats,
    )


def normal_forms(r: EnumerationResult, alphabet: "tuple[str, ...]") -> FormsSet:
    """Shortlex-least representative of every class, indexed by class.

    The standardized table numbers classes breadth-first, generating
    letters in alphabet order, so reading it row by row meets each
    class first at the edge from its breadth-first parent, in class
    order.  The first word reaching a class is its shortlex-least
    representative (least representatives are prefix-closed), so class
    c's form is its parent's form plus that edge's letter, and the
    forms come out in shortlex order.
    """
    if not r.is_complete:
        raise IndeterminateError("enumeration was capped")
    names = tuple(alphabet)
    if names != r.letters:
        raise ValueError(f"alphabet {names} does not match enumeration letters")
    cells = iter(r._cells)
    reps: "list[tuple[str, ...]]" = [()]
    new = 1  # the class a row meets next for the first time
    for rep in reps:
        # zip draws this class's row from cells: one cell per letter
        for name, t in zip(names, cells):
            if t == new:
                reps.append(rep + (name,))
                new += 1
    return FormsSet(label="shortlex", letters=names, words=tuple(reps))
