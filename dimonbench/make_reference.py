"""Write reference.json, the answers every benchmark job is checked against.

Run from the repository root:

    PYTHONPATH=src python3 dimonbench/make_reference.py

Where each value comes from:

- Monoid sizes and Green's class counts are counted here without dimon:
  each family is the set of restrictions of the n-gon's symmetries (or
  rotations) that pass its pointwise condition, and since every family is
  an inverse monoid, R-, L- and H-classes are the distinct domains, images
  and (domain, image) pairs, and D-classes the components of the graph
  joining each element's domain to its image.  For odi, mdi and oci the
  count must also equal dimon's ``cardinality_formula``.
- A presentation job must PASS with the class count equal to that size.
- Digests (sorted shortlex normal forms of every complete enumeration of a
  verify job) are taken from dimon's enumeration at the time of writing.
- Consequence outcomes at the benchmark's cap are taken from dimon at the
  time of writing, and so are the answers of the jobs capped there when
  run again under HIGH_CAPS.  The stored file was written with the
  compiled kernel (a gcc build of ``src/dimon/_tc_core.c``); the pure
  kernel gives the same answers at the benchmark's cap, and takes far
  longer under HIGH_CAPS.
"""

import itertools
import json
import sys

import workloads
from dimon import congruence, monoids
from dimon.congruence import EnumerationCaps
from dimon.monoids import MonoidFamily

# caps under which the consequence jobs capped at the benchmark's cap run again
HIGH_CAPS = EnumerationCaps(max_classes=2_000_000, max_steps=10**10)


def _symmetries(n, reflections):
    """The n rotations, and the n reflections if asked, as image tuples."""
    maps = [tuple((p - 1 + k) % n + 1 for p in range(1, n + 1)) for k in range(n)]
    if reflections:
        maps += [tuple((k - p) % n + 1 for p in range(1, n + 1)) for k in range(n)]
    return maps


def _images(f):
    return [img for img in f if img]


def _order_preserving(f):
    seq = _images(f)
    return all(a < b for a, b in zip(seq, seq[1:]))


def _monotone(f):
    seq = _images(f)
    return _order_preserving(f) or all(a > b for a, b in zip(seq, seq[1:]))


def _orientation_preserving(f):
    seq = _images(f)
    return sum(seq[k] > seq[(k + 1) % len(seq)] for k in range(len(seq))) <= 1


FAMILIES = {
    "di": (True, lambda f: True),
    "ci": (False, lambda f: True),
    "odi": (True, _order_preserving),
    "mdi": (True, _monotone),
    "opdi": (True, _orientation_preserving),
    "oci": (False, _order_preserving),
}


def elements(family, n):
    """Every partial map of the family, as tuples with 0 for undefined."""
    reflections, keep = FAMILIES[family]
    out = set()
    for s in _symmetries(n, reflections):
        for mask in range(1 << n):
            f = tuple(s[p] if mask >> p & 1 else 0 for p in range(n))
            if keep(f):
                out.add(f)
    return out


def green_counts(elems):
    def dom(f):
        return frozenset(p for p, img in enumerate(f) if img)

    def im(f):
        return frozenset(img - 1 for img in f if img)

    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for f in elems:
        parent[find(dom(f))] = find(im(f))
    return {
        "r": len({dom(f) for f in elems}),
        "l": len({im(f) for f in elems}),
        "h": len({(dom(f), im(f)) for f in elems}),
        "d": len({find(x) for x in parent}),
    }


def monoid_size(family, n):
    size = len(elements(family, n))
    if family in ("odi", "mdi", "oci"):
        formula = monoids.cardinality_formula(MonoidFamily.parse(family), n)
        if formula != size:
            sys.exit(f"{family}:{n}: {size} restrictions but cardinality_formula {formula}")
    return size


def main():
    ref = {"verify": {}, "monoid": {}, "consequence": {}}

    specs = zip(workloads.build_jobs("verify"), itertools.chain(workloads.VERIFY, workloads.FORMS))
    with workloads.EnumerationRecorder() as recorder:
        for job, (_, n, target, *_) in specs:
            size = monoid_size(target, n)
            expected = {"verdict": "PASS", "classes": size, "size": size}
            if job.key.startswith("forms"):
                expected["forms"] = size
            answer = job.run()
            expected["digest"] = recorder.take_digest()
            if {**answer, "digest": expected["digest"]} != expected:
                sys.exit(f"{job.key}: dimon answers {answer}, expected {expected}")
            ref["verify"][job.key] = expected

    for family, n in workloads.MONOIDS:
        ref["monoid"][f"monoid {family}:{n}"] = {
            "size": monoid_size(family, n),
            "generates": True,
            "green": green_counts(elements(family, n)),
        }

    for job in workloads.build_jobs("consequence"):
        at_cap = at_high_cap = job.run()["outcome"]
        if at_cap == "capped":
            at_high_cap = job.run(HIGH_CAPS)["outcome"]
        ref["consequence"][job.key] = {"at_cap": at_cap, "at_high_cap": at_high_cap}
    backend = f"{congruence.BACKEND} kernel"
    ref["sources"] = {
        "size": "restrictions of the n-gon's symmetries counted by make_reference.py "
                "without dimon; odi, mdi and oci also equal cardinality_formula",
        "green": "domains, images, (domain, image) pairs and their components, "
                 "counted by make_reference.py without dimon",
        "verdict, classes, forms": "PASS with one class per monoid element",
        "digest": f"dimon normal_forms, {backend}, at the time of writing",
        "at_cap": f"dimon delete_relation at max_classes="
                  f"{workloads.CONSEQUENCE_CAPS.max_classes}, {backend}",
        "at_high_cap": f"dimon delete_relation at max_classes={HIGH_CAPS.max_classes}, "
                       f"max_steps={HIGH_CAPS.max_steps}, {backend}",
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
