"""The benchmark's three job lists and the checks of their answers.

A job calls dimon's public functions the way one CLI verb does and
returns its answer as a plain dict; ``check`` compares that answer with
``reference.json``.  Answers never depend on the order jobs run in, so
the seed only shuffles the list.

Sizes are chosen so that one 30-second run holds at least 110 job
samples on every workload (ten beyond the 90th percentile) on a 2-core
machine with the pure-Python kernel.
"""

import hashlib
import json
import os

from dimon import congruence, monoids, presentations
from dimon.congruence import EnumerationCaps, IndeterminateError
from dimon.monoids import MonoidFamily
from dimon.presentations import RelationFamily

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# relation family, n, the monoid it presents (as `dimon verify-presentation`)
VERIFY = (
    ("R", 6, "odi"),
    ("V", 6, "odi"),
    ("U", 7, "oci"),
    ("Vbar", 6, "mdi"),
    ("VbarPrime", 5, "mdi"),
    ("Q", 7, "opdi"),
    ("QPrime", 6, "opdi"),
    ("Q0", 7, "ci"),
)
# relation family, n, target monoid, the family whose enumeration seeds
# the forms (as `dimon forms`)
FORMS = (
    ("R", 6, "odi", "U"),
    ("Vbar", 6, "mdi", "V"),
    ("Q", 7, "opdi", None),
)
MONOIDS = (
    ("di", 8),
    ("odi", 8),
    ("mdi", 8),
    ("opdi", 8),
    ("ci", 8),
    ("oci", 8),
)
CONSEQUENCE = (("R", 5), ("Q", 5), ("Vbar", 5), ("QPrime", 6), ("U", 6))
CONSEQUENCE_CAPS = EnumerationCaps(max_classes=5000)

WORKLOADS = ("verify", "monoid", "consequence")

# captured before any tracer wraps the module attribute, so the
# benchmark's own digests are not counted as program work
_normal_forms = congruence.normal_forms


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class Job:
    """One call sequence into dimon, named by a key unique in its workload."""

    def __init__(self, key, run):
        self.key = key
        self.run = run


class EnumerationRecorder:
    """Keeps every result of ``dimon.congruence.enumerate_congruence``.

    Used as a context manager around a verify run, traced or not; the
    digests are taken from the recorded results after each job is timed.
    """

    def __init__(self):
        self.results = []
        self._original = congruence.enumerate_congruence

    def __enter__(self):
        original, results = self._original, self.results

        def enumerate_congruence(*args, **kwargs):
            result = original(*args, **kwargs)
            results.append(result)
            return result

        congruence.enumerate_congruence = enumerate_congruence
        return self

    def __exit__(self, *exc):
        congruence.enumerate_congruence = self._original

    def take_digest(self):
        """Digest of the results recorded since the last call.

        Each complete enumeration contributes the sorted set of its
        shortlex normal forms, which does not depend on class numbering.
        """
        h = hashlib.sha256()
        for r in self.results:
            if r.is_complete:
                forms = sorted(" ".join(w) for w in _normal_forms(r, r.letters).words)
                h.update("\n".join(forms).encode())
            h.update(b"\0")
        self.results.clear()
        return h.hexdigest()[:16]


def _verify_job(family, n, target):
    fam, mon = RelationFamily.parse(family), MonoidFamily.parse(target)

    def run():
        p = presentations.build_relations(fam, n)
        a = presentations.build_assignment(fam, n)
        m = monoids.build_named(mon, n)
        v = congruence.verify_presentation(p, a, m)
        return {"verdict": v.verdict.value, "classes": v.class_count, "size": v.monoid_size}

    return Job(f"verify {family}:{n}", run)


def _forms_job(family, n, target, seed_family):
    fam, mon = RelationFamily.parse(family), MonoidFamily.parse(target)

    def run():
        base = None
        if seed_family is not None:
            base = congruence.enumerate_congruence(
                presentations.build_relations(RelationFamily.parse(seed_family), n)
            )
        fs = presentations.build_forms(fam, n, base)
        p = presentations.build_relations(fam, n)
        a = presentations.build_assignment(fam, n)
        m = monoids.build_named(mon, n)
        v = congruence.verify_forms_set(p, fs, a, m)
        return {"verdict": v.verdict.value, "classes": v.class_count, "size": v.monoid_size,
                "forms": v.forms_count}

    return Job(f"forms {family}:{n}", run)


def _monoid_job(family, n):
    fam = MonoidFamily.parse(family)

    def run():
        m = monoids.build_named(fam, n)
        maps = [f for _, f in monoids.generating_maps(fam, n)]
        generates = monoids.verify_generates(m, maps)
        green = monoids.green_classes(m).counts()
        return {"size": m.size, "generates": generates, "green": green}

    return Job(f"monoid {family}:{n}", run)


def _consequence_job(p, k):
    rel = p.relations[k]

    def run(caps=CONSEQUENCE_CAPS):
        try:
            presentations.delete_relation(p, rel, caps=caps)
        except IndeterminateError:
            return {"outcome": "capped"}
        except ValueError as exc:
            # only dimon's own verdict; any other ValueError is an error
            if "is not a consequence" not in str(exc):
                raise
            return {"outcome": "not_consequence"}
        return {"outcome": "consequence"}

    return Job(f"consequence {p.label}#{k}", run)


def build_jobs(workload):
    """The workload's job list; building it is the run's input generation."""
    if workload == "verify":
        return [_verify_job(*spec) for spec in VERIFY] + [_forms_job(*spec) for spec in FORMS]
    if workload == "monoid":
        return [_monoid_job(*spec) for spec in MONOIDS]
    if workload == "consequence":
        jobs = []
        for family, n in CONSEQUENCE:
            p = presentations.build_relations(RelationFamily.parse(family), n)
            jobs.extend(_consequence_job(p, k) for k in range(len(p.relations)))
        return jobs
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def check(reference, workload, key, answer):
    """Problems with one answer, as strings; empty when it is correct.

    A consequence job whose seed answer at the cap was decided must give
    that answer; returning capped means the undecided share rose.  A job
    the seed left capped may stay capped, and a decided answer for it
    must agree with the answer recorded at the high cap, when there is one.
    """
    expected = reference[workload].get(key)
    if expected is None:
        return [f"{key}: no reference answer"]
    if "error" in answer:
        return [f"{key}: {answer['error']}"]
    if workload != "consequence":
        return [] if answer == expected else [f"{key}: got {answer}, expected {expected}"]
    got = answer["outcome"]
    if expected["at_cap"] != "capped":
        ok = got == expected["at_cap"]
    else:
        ok = got == "capped" or expected["at_high_cap"] in ("capped", got)
    return [] if ok else [f"{key}: got {got}, expected {expected}"]
