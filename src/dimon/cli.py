"""Batch command-line front end for reproduction runs and CI.

Verbs: build, verify-presentation, enumerate, check-relations, forms,
tietze, green, formulas.  Reports are line-oriented text by default
and machine-readable JSON behind --json; the JSON of every verb that
runs the enumeration kernel names it under "backend", and that of
verify-presentation and forms, and each step of tietze's, holds the
enumeration's counters under "stats".  Each verdict is the library's;
tietze's is its worst step's, and forms reports a capped seed
enumeration as the seed's, whose label its JSON holds under "seed".
The exit code is 0 when every requested verdict is PASS, 1 when one is
FAIL, 3 when one is INDETERMINATE (an enumeration or a monoid closure
hit its cap, or a kernel ran out of memory), and 2 for a usage or
input error: an invalid option value, an --n outside the family's
range, a malformed --presentation file, or an --out or --dot path
that cannot be written.  Every verb that enumerates takes
--max-classes and --max-steps, and reports a capped enumeration by
both its counters against both caps.

    dimon build --family odi --n 5 --out m.json
    dimon verify-presentation --family R --n 4
    dimon formulas --n-range 4..10
"""

import json as _json
import sys

import click

from . import congruence, monoids, presentations
from .congruence import MAX_CLASSES, MAX_STEPS, EnumerationCaps, Verdict
from .monoids import MonoidFamily
from .presentations import (
    ELIMINATION_CHAINS,
    FORMS_SEED,
    TARGET_MONOID,
    RelationFamily,
)

EXIT_CODES = {Verdict.PASS: 0, Verdict.FAIL: 1, Verdict.INDETERMINATE: 3}
WORST_FIRST = (Verdict.FAIL, Verdict.INDETERMINATE, Verdict.PASS)


def _family_help(kind, families):
    return f"{kind} ({', '.join(f.value for f in families)})"


MONOID_HELP = _family_help("monoid family", MonoidFamily)
RELATION_HELP = _family_help("relation family", RelationFamily)
FORMS_HELP = _family_help("relation family with a forms set", FORMS_SEED)


def _emit(lines, payload, verdict, as_json):
    if as_json:
        click.echo(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            click.echo(line)
    sys.exit(EXIT_CODES[verdict])


def _from_input(param, call, *args):
    """call(*args) on command-line input; its ValueError is a usage error."""
    try:
        return call(*args)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint=param) from exc


def _family_inputs(fam, n):
    """The monoid that relation family fam presents at n, and fam's
    assignment: the family's range is checked first, so the message
    names it, and the monoid's degree before anything large is built."""
    _from_input("'--n'", presentations.build_alphabet, fam, n)
    m = _from_input("'--n'", monoids.build_named, TARGET_MONOID[fam], n)
    return m, presentations.build_assignment(fam, n)


def _write(param, path, text):
    """Write text to the file at path; an OSError is a usage error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise click.BadParameter(str(exc), param_hint=param) from exc


def _budgets(command):
    """Declare the enumeration budgets --max-classes and --max-steps,
    which default to EnumerationCaps()'s."""
    caps = EnumerationCaps()
    steps = click.option("--max-steps", type=click.IntRange(1, MAX_STEPS),
                         default=caps.max_steps, show_default=True)
    classes = click.option("--max-classes", type=click.IntRange(1, MAX_CLASSES),
                           default=caps.max_classes, show_default=True)
    return classes(steps(command))


def _parse_range(text):
    """Parse "4..10" (or a single "6") into an inclusive range."""
    lo, sep, hi = text.partition("..")
    try:
        lo_n = int(lo)
        hi_n = int(hi) if sep else lo_n
    except ValueError:
        raise click.BadParameter(f"bad range {text!r}, expected like 4..10",
                                 param_hint="'--n-range'")
    if hi_n < lo_n:
        raise click.BadParameter(f"empty range {text!r}", param_hint="'--n-range'")
    return range(lo_n, hi_n + 1)


class _Verbs(click.Group):
    """Ends any verb INDETERMINATE, on one line of standard error, when a
    monoid closure exceeds its cap or a kernel runs out of memory."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except monoids.ClosureCapError as exc:
            reason = str(exc)
        except MemoryError:
            reason = "out of memory before the run finished"
        # echoed once the except clause has released the run's frames
        click.echo(f"INDETERMINATE, {reason}", err=True)
        sys.exit(EXIT_CODES[Verdict.INDETERMINATE])


@click.group(cls=_Verbs)
def main():
    """Dihedral inverse monoid workbench."""


@main.command()
@click.option("--family", required=True, help=MONOID_HELP)
@click.option("--n", type=int, required=True, help="degree of the chain")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="write the monoid as JSON")
@click.option("--dot", type=click.Path(dir_okay=False), default=None,
              help="write the right Cayley graph in DOT format")
@click.option("--json", "as_json", is_flag=True, help="machine-readable report")
def build(family, n, out, dot, as_json):
    """Build a monoid family by closure and report its size."""
    fam = _from_input("'--family'", MonoidFamily.parse, family)
    m = _from_input("'--n'", monoids.build_named, fam, n)
    lines = [f"{fam.value} n={n}: size {m.size}, degree {m.degree}, "
             f"{len(m.generators)} generators"]
    if out:
        _write("'--out'", out, _json.dumps(m.to_json_dict()))
        lines.append(f"wrote {out}")
    if dot:
        _write("'--dot'", dot, monoids.right_cayley_dot(m))
        lines.append(f"wrote {dot}")
    payload = {"verb": "build", "family": fam.value, "n": n, "size": m.size,
               "degree": m.degree, "generators": len(m.generators),
               "out": out, "dot": dot}
    _emit(lines, payload, Verdict.PASS, as_json)


@main.command("verify-presentation")
@click.option("--family", required=True, help=RELATION_HELP)
@click.option("--n", type=int, required=True)
@_budgets
@click.option("--json", "as_json", is_flag=True)
def verify_presentation(family, n, max_classes, max_steps, as_json):
    """Check a relation family presents its monoid, by enumeration."""
    fam = _from_input("'--family'", RelationFamily.parse, family)
    m, a = _family_inputs(fam, n)
    p = presentations.build_relations(fam, n)
    caps = EnumerationCaps(max_classes, max_steps)
    v = congruence.verify_presentation(p, a, m, caps)
    if v.verdict is Verdict.PASS:
        lines = [f"PASS, reports {v.class_count} = {v.monoid_size}"]
    elif v.verdict is Verdict.FAIL and v.failing_tags:
        lines = [f"FAIL, relations do not hold: {', '.join(v.failing_tags)}"]
    elif v.verdict is Verdict.FAIL:
        lines = [f"FAIL, reports {v.class_count} != {v.monoid_size}"]
    else:
        lines = [f"INDETERMINATE, {caps.report(v.stats)}"]
    payload = {"verb": "verify-presentation", "family": fam.value, "n": n,
               "monoid": TARGET_MONOID[fam].value, "verdict": v.verdict.value,
               "classes": v.class_count, "size": v.monoid_size,
               "failing": list(v.failing_tags), "backend": congruence.BACKEND,
               "stats": dict(v.stats)}
    _emit(lines, payload, v.verdict, as_json)


@main.command("enumerate")
@click.option("--presentation", "path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="presentation JSON file")
@_budgets
@click.option("--json", "as_json", is_flag=True)
def enumerate_presentation(path, max_classes, max_steps, as_json):
    """Enumerate the congruence classes of a presentation file."""
    with open(path) as fh:
        try:
            p = presentations.Presentation.from_json_dict(_json.load(fh))
        except (ValueError, KeyError, TypeError) as exc:
            raise click.BadParameter(
                f"malformed presentation: {type(exc).__name__}: {exc}",
                param_hint="'--presentation'",
            ) from exc
    r = congruence.enumerate_congruence(p, EnumerationCaps(max_classes, max_steps))
    outcome = (f"complete, {r.class_count} classes" if r.is_complete
               else r.caps.report(r.stats))
    payload = {"verb": "enumerate", "presentation": path, "label": p.label,
               "result": r.to_json_dict(), "backend": congruence.BACKEND}
    verdict = Verdict.PASS if r.is_complete else Verdict.INDETERMINATE
    _emit([f"{p.label}: {outcome}"], payload, verdict, as_json)


@main.command("check-relations")
@click.option("--family", required=True, help=RELATION_HELP)
@click.option("--n", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def check_relations(family, n, as_json):
    """Check every relation of a family holds under its generator maps."""
    fam = _from_input("'--family'", RelationFamily.parse, family)
    a = _from_input("'--n'", presentations.build_assignment, fam, n)
    p = _from_input("'--n'", presentations.build_relations, fam, n)
    failing = presentations.check_relations_hold(p, a)
    tags = list(dict.fromkeys(rel.tag for rel in failing))
    if failing:
        lines = [f"{p.label}: {len(failing)} relations fail: {', '.join(tags)}"]
    else:
        lines = [f"{p.label}: all {len(p.relations)} relations hold"]
    payload = {"verb": "check-relations", "family": fam.value, "n": n,
               "relations": len(p.relations), "all_hold": not failing,
               "failing": tags}
    _emit(lines, payload, Verdict.FAIL if failing else Verdict.PASS, as_json)


@main.command()
@click.option("--family", required=True, help=FORMS_HELP)
@click.option("--n", type=int, required=True)
@_budgets
@click.option("--json", "as_json", is_flag=True)
def forms(family, n, max_classes, max_steps, as_json):
    """Verify the candidate forms set is a transversal of the classes."""
    fam = _from_input("'--family'", RelationFamily.parse, family)
    if fam not in FORMS_SEED:
        raise click.BadParameter(f"no forms construction for {fam.value}",
                                 param_hint="'--family'")
    m, a = _family_inputs(fam, n)
    caps = EnumerationCaps(max_classes, max_steps)
    payload = {"verb": "forms", "family": fam.value, "n": n,
               "monoid": TARGET_MONOID[fam].value, "seed": None, "size": m.size,
               "backend": congruence.BACKEND}
    base = None
    if FORMS_SEED[fam] is not None:
        seed = presentations.build_relations(FORMS_SEED[fam], n)
        payload["seed"] = seed.label
        base = congruence.enumerate_congruence(seed, caps)
        if not base.is_complete:
            # the forms are read off the seed's classes: none to check
            payload.update(verdict=Verdict.INDETERMINATE.value, forms=None,
                           classes=None, problems=[], stats=dict(base.stats))
            lines = [f"INDETERMINATE, seed {seed.label}: {caps.report(base.stats)}"]
            return _emit(lines, payload, Verdict.INDETERMINATE, as_json)
    v = congruence.verify_forms_set(presentations.build_relations(fam, n),
                                    presentations.build_forms(fam, n, base), a, m, caps)
    if v.verdict is Verdict.PASS:
        lines = [f"PASS, {v.forms_count} forms cover {v.class_count} classes "
                 f"of a monoid of size {v.monoid_size}"]
    elif v.verdict is Verdict.FAIL:
        lines = [f"FAIL: {'; '.join(v.problems)}"]
    else:
        lines = [f"INDETERMINATE, {caps.report(v.stats)}"]
    payload.update(verdict=v.verdict.value, forms=v.forms_count,
                   classes=v.class_count, problems=list(v.problems),
                   stats=dict(v.stats))
    _emit(lines, payload, v.verdict, as_json)


@main.command()
@click.option("--chain", type=click.Choice(list(ELIMINATION_CHAINS)), required=True)
@click.option("--n", type=int, required=True)
@_budgets
@click.option("--json", "as_json", is_flag=True)
def tietze(chain, n, max_classes, max_steps, as_json):
    """Replay a generator-elimination chain and verify every step.

    Each step is checked as verify-presentation checks a family: against
    the target monoid, under the assignment of the chain's family.  The
    chain's verdict is its worst step's.
    """
    family, build_chain = ELIMINATION_CHAINS[chain]
    m, a = _family_inputs(family, n)
    caps = EnumerationCaps(max_classes, max_steps)
    lines, rows, verdicts = [], [], []
    for p in build_chain(n):
        v = congruence.verify_presentation(p, a, m, caps)
        verdicts.append(v.verdict)
        outcome = (caps.report(v.stats) if v.verdict is Verdict.INDETERMINATE
                   else f"relations do not hold: {', '.join(v.failing_tags)}"
                   if v.failing_tags else f"{v.class_count} classes")
        lines.append(f"{p.label}: {len(p.letters)} letters, {outcome}")
        rows.append({"label": p.label, "letters": len(p.letters),
                     "classes": v.class_count, "stats": dict(v.stats)})
    verdict = min(verdicts, key=WORST_FIRST.index)
    if verdict is Verdict.PASS:
        lines.append(f"PASS, class count preserved at {m.size} = "
                     f"|{TARGET_MONOID[family].value}({n})|")
    else:
        lines.append(f"{verdict.value}, {verdicts.count(verdict)} of {len(verdicts)} "
                     f"presentations {'fail' if verdict is Verdict.FAIL else 'capped'}")
    payload = {"verb": "tietze", "chain": chain, "n": n, "steps": rows,
               "verdict": verdict.value, "size": m.size,
               "backend": congruence.BACKEND}
    _emit(lines, payload, verdict, as_json)


@main.command()
@click.option("--family", required=True, help=MONOID_HELP)
@click.option("--n", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def green(family, n, as_json):
    """Report Green's relation class counts for a monoid family."""
    fam = _from_input("'--family'", MonoidFamily.parse, family)
    m = _from_input("'--n'", monoids.build_named, fam, n)
    g = monoids.green_classes(m)
    c = g.counts()
    lines = [f"{fam.value} n={n}: size {m.size}, R-classes {c['r']}, "
             f"L-classes {c['l']}, H-classes {c['h']}, D-classes {c['d']}"]
    payload = {"verb": "green", "family": fam.value, "n": n, "size": m.size,
               "r_classes": c["r"], "l_classes": c["l"],
               "h_classes": c["h"], "d_classes": c["d"]}
    _emit(lines, payload, Verdict.PASS, as_json)


@main.command()
@click.option("--n-range", "n_range", required=True, help="inclusive range like 4..10")
@click.option("--json", "as_json", is_flag=True)
def formulas(n_range, as_json):
    """Evaluate the closed-form size and relation-count formulas.

    Cardinality formulas are cross-checked against built monoids; the
    eight relation-count columns are the formula values.
    """
    rng = _parse_range(n_range)
    lines, rows, ok = [], [], True
    for n in rng:
        cards, parts = {}, []
        for fam in monoids.CARDINALITY_FORMS:
            want = _from_input("'--n-range'", monoids.cardinality_formula, fam, n)
            got = _from_input("'--n-range'", monoids.build_named, fam, n).size
            ok &= want == got
            cards[fam.value] = {"formula": want, "built": got, "ok": want == got}
            parts.append(f"|{fam.value.upper()}|={want}"
                         + ("" if want == got else f"!={got}"))
        counts = {}
        for fam in RelationFamily:
            value = presentations.expected_relation_count(fam, n)
            counts[fam.value] = value
            parts.append(f"|{fam.value}|={value}")
        lines.append(f"n={n}: " + " ".join(parts))
        rows.append({"n": n, "cardinalities": cards, "relation_counts": counts})
    lines.append("cardinality cross-checks " + ("ok" if ok else "FAILED"))
    verdict = Verdict.PASS if ok else Verdict.FAIL
    payload = {"verb": "formulas", "rows": rows, "verdict": verdict.value}
    _emit(lines, payload, verdict, as_json)


if __name__ == "__main__":
    main()
