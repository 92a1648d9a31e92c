"""The compiled kernels under AddressSanitizer.

_tc_core.c is built with -fsanitize=address and driven by a child
Python that preloads the sanitizer's runtime and sends every allocation
through malloc (PYTHONMALLOC=malloc), so a read or write outside a
kernel's buffers, or a use after free, ends the child with a sanitizer
report.  The child's answers must equal those of the kernel built
without the sanitizer, so every call was made.  One call races witness
on a second thread against run, both with the GIL released, as
dimon.congruence.is_consequence does.
"""

import inspect
import marshal
import os
import subprocess
import sys
from array import array

import pytest

from conftest import CC, build_kernel
from dimon.monoids import MonoidFamily, build_named
from dimon.presentations import Presentation, Relation, RelationFamily, build_relations


def answers(kernel, calls):
    """Each call's answer, or the name of the error it raised.  A call is
    (name, args), or (name, args, flag) to pass a stop flag after args, a
    bytearray of flag's bytes (marshal gives a bytearray back as bytes).
    The name race stands for witness on a second thread and run on this
    one, sharing one flag that the search sets once it ends, to 1 when
    it found an action and to 2 otherwise: its answer is the search's
    and the run's status, which the flag decides wherever it finds the
    run."""
    import threading

    def race(width, relations, watch, max_classes, max_points, max_nodes):
        flag, found = bytearray(1), []

        def search():
            found.append(kernel.witness(width, relations, watch, max_points, max_nodes, flag))
            flag[0] = 1 if found[0][0] is not None else 2

        thread = threading.Thread(target=search)
        thread.start()
        status = kernel.run(width, relations, max_classes, 10**8, watch, flag)[0]
        thread.join()
        return found[0], status

    out = []
    for name, args, *flag in calls:
        try:
            args = (*args, *map(bytearray, flag))
            out.append(race(*args) if name == "race" else getattr(kernel, name)(*args))
        except (ValueError, TypeError) as e:
            out.append(type(e).__name__)
    return out


# the child: loads the kernel built at argv[1], makes the calls it reads
# from stdin and writes their answers, with answers itself
PROBE = f"""
import importlib.util, marshal, sys
spec = importlib.util.spec_from_file_location("dimon._tc_core", sys.argv[1])
kernel = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel)
{inspect.getsource(answers)}
marshal.dump(answers(kernel, marshal.load(sys.stdin.buffer)), sys.stdout.buffer)
"""


def words(*ws):
    """Letter-id words as the kernels read them."""
    return array("i", [cell for w in ws for cell in (len(w), *w)]).tobytes()


def probe_calls():
    """(kernel function, arguments) of every call the child makes: on
    each relation family at n = 4, run, and each relation deleted in
    turn as a watched run and as witness at 2 and at 3 points; on each
    monoid family at n = 4 and the cyclic group of degree 255, close
    (complete, capped one element short and at the identity) and green;
    on DI(8), whose 3,985 elements grow every record table past its
    first 1,024 records, close at caps beside the doublings and at its
    size, and green; the edge buffers; on h h = 1, h x = y h, whose
    monoid is infinite, run with and without a watch given a flag of 1,
    which stops it at its first class visit, and a watched run given a
    flag of 2, which goes on to its step cap, witness given a flag of 1,
    and both given an empty one; and the race of witness against run there,
    watching x = y at 10**6 classes, where an action on two points
    separates them."""
    calls = []
    for family in RelationFamily:
        p = build_relations(family, 4)
        width, rels = len(p.letters), [p.encode((r.lhs, r.rhs)) for r in p.relations]
        calls.append(("run", (width, p.relation_ids, 10**6, 10**8)))
        for i, watch in enumerate(rels):
            others = b"".join(rels[:i] + rels[i + 1:])
            calls.append(("run", (width, others, 2000, 10**5, watch)))
            calls += [("witness", (width, others, watch, points, 100)) for points in (2, 3)]
    monoids = [(4, build_named(family, 4)) for family in MonoidFamily]
    for degree, m in monoids + [(255, build_named(MonoidFamily.CYCLIC_GROUP, 255))]:
        keys = b"".join(m.key(k) for k in m.generators)
        calls += [("close", (degree, keys, cap)) for cap in (m.size, m.size - 1, 1)]
        calls.append(("green", (degree, m.key_bytes)))
    m = build_named(MonoidFamily.DI, 8)
    keys = b"".join(m.key(k) for k in m.generators)
    calls += [("close", (8, keys, cap)) for cap in (1024, 1025, 2049, m.size)]
    calls.append(("green", (8, m.key_bytes)))
    calls += [
        ("run", (0, b"", 10, 10)),
        ("run", (2, b"", 10, 100)),
        ("run", (1, words((), ()), 10, 10, words((), ()))),
        ("run", (2, words((0, 1), ()), 100, 1000, words((0,), (1,)))),
        ("run", (2, b"\0" * 3, 10, 10)),
        ("run", (2, array("i", [5, 0]).tobytes(), 10, 10)),
        ("run", (2, words((0,), (2,)), 10, 10)),
        ("run", (2, words((0,)), 10, 10)),
        ("run", (2, b"", 10, 10, words((0,)))),
        ("run", (-1, b"", 10, 10)),
        ("witness", (0, b"", words((), ()), 3, 5)),
        ("witness", (2, b"", words((0,), ()), 256, 1000)),
        ("witness", (2, b"", array("i", [3, 0]).tobytes(), 3, 10)),
        ("close", (4, b"", 5)),
        ("close", (4, b"\0" * 3, 5)),
        ("close", (0, b"", 1)),
        ("green", (4, b"")),
        ("green", (4, b"\0" * 3)),
    ]
    p = Presentation("reflection", ("h", "x", "y"), (
        Relation(("h", "h"), (), "inv"), Relation(("h", "x"), ("y", "h"), "conj")))
    rels, watch = p.relation_ids, p.encode((("x",), ("y",)))
    calls += [
        ("run", (3, rels, 10**6, 10**8, None), b"\1"),
        ("run", (3, rels, 10**6, 10**8, watch), b"\1"),
        ("run", (3, rels, 10**6, 10**4, watch), b"\2"),
        ("witness", (3, rels, watch, 3, 100), b"\1"),
        ("run", (3, rels, 10**6, 10**8, None), b""),
        ("witness", (3, rels, watch, 3, 100), b""),
        ("race", (3, rels, watch, 10**6, 2, 100)),
    ]
    return calls


def test_kernels_run_clean_under_address_sanitizer(compiled_kernel, tmp_path):
    libasan = subprocess.run([CC, "-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(libasan):
        pytest.skip("the C compiler has no libasan to preload")
    built = build_kernel(tmp_path, "-fsanitize=address -fno-omit-frame-pointer")
    calls = probe_calls()
    env = {**os.environ, "LD_PRELOAD": libasan, "ASAN_OPTIONS": "detect_leaks=0",
           "PYTHONMALLOC": "malloc"}
    done = subprocess.run([sys.executable, "-c", PROBE, str(built)],
                          input=marshal.dumps(calls), capture_output=True, env=env)
    report = done.stderr.decode(errors="replace")
    assert done.returncode == 0 and "Sanitizer" not in report, report[-4000:]
    assert marshal.loads(done.stdout) == answers(compiled_kernel, calls)
