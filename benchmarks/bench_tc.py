"""Compare the pure and compiled congruence kernels on real inputs.

Run as: python3 benchmarks/bench_tc.py
"""

import time

from dimon import _tc_py
from dimon.presentations import RelationFamily, build_relations

try:
    from dimon import _tc_core
except ImportError:
    _tc_core = None

CASES = (
    (RelationFamily.R, 8),
    (RelationFamily.VBAR, 8),
    (RelationFamily.Q, 9),
    (RelationFamily.Q_PRIME, 9),
)


def timed(kernel, n_letters, rels):
    t0 = time.perf_counter()
    status, table, _ = kernel.run(n_letters, rels, 10**6, 10**8)
    dt = time.perf_counter() - t0
    assert status == kernel.STATUS_COMPLETE
    return dt, len(table)


def main():
    if _tc_core is None:
        print("compiled kernel unavailable; timing the pure kernel only")
    print(f"{'presentation':>16s} {'classes':>8s} {'pure':>9s} {'compiled':>9s} {'speedup':>8s}")
    for family, n in CASES:
        p = build_relations(family, n)
        rels = p.relation_ids
        t_py, classes = timed(_tc_py, len(p.letters), rels)
        if _tc_core is None:
            print(f"{p.label:>16s} {classes:8d} {t_py:8.3f}s {'-':>9s} {'-':>8s}")
            continue
        t_c, classes_c = timed(_tc_core, len(p.letters), rels)
        assert classes_c == classes
        print(
            f"{p.label:>16s} {classes:8d} {t_py:8.3f}s {t_c:8.3f}s "
            f"{t_py / t_c:7.1f}x"
        )


if __name__ == "__main__":
    main()
