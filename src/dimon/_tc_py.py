"""Pure-Python congruence enumeration kernel.

Table-filling over the right action of letters on classes, in the HLT
style: classes are visited in creation order, every relation is traced
at each live class (defining classes along the way), the class's row
is then filled with new classes, and coincidences go through a FIFO
queue with the smaller class id surviving.  This module is the
reference and the fallback when no C compiler is available; the
compiled kernel, the hand-written C extension _tc_core, implements the
same procedure step for step, so both return equal tuples and stop
at the same step cap.

A step is one letter traced, one letter of a row merged in a
coincidence, or one class defined while filling a row.  The budget is
checked before each class is visited, so max_steps bounds a run whose
classes all come from row filling, such as one with no relations.

No final pass re-checks the relations, because every relation holds
at every live class once the main loop ends:

- A relation scanned at class c leaves both sides traced from c ending
  in one class.  A coincidence merges rows without dropping an entry,
  and the queue is drained before the scan returns, so the two traces
  from find(c) still end in one class after any later coincidence.
- The loop visits every class ever created, and a class never comes
  back to life once merged away.  A class live at the end was live
  when the loop reached it, so every relation was scanned at that very
  class and its row was filled then.

Both kernels return (status, table), the table a tuple of tuple rows:

    status 0  complete: table is the dense right-action table
    status 1  capped: class or step budget exhausted, no table
    status 2  the watch pair merged before completion, no table

A complete watched run never merged its pair: the watch is checked
after every scan, and only scans merge classes.
"""

from collections import deque

UNDEF = -1

STATUS_COMPLETE = 0
STATUS_CAPPED = 1
STATUS_WATCH_MERGED = 2


class _Capped(Exception):
    pass


def _checked(word, n_letters):
    """word as a tuple of letter ids, each in range(n_letters)."""
    word = tuple(word)
    for a in word:
        if not 0 <= a < n_letters:
            raise ValueError(f"letter id {a!r} is not in range({n_letters})")
    return word


def _checked_pair(pair, n_letters):
    pair = tuple(pair)
    if len(pair) != 2:
        raise ValueError(
            f"expected an (lhs, rhs) pair of words, got {len(pair)} items"
        )
    return _checked(pair[0], n_letters), _checked(pair[1], n_letters)


def run(n_letters, relations, max_classes, max_steps, watch=None):
    """Enumerate the classes of the two-sided congruence.

    relations: sequence of (lhs, rhs) pairs of letter-id tuples.
    watch: optional (lhs, rhs) pair; when given, the run stops as soon
    as the two words provably fall in one class.

    Returns (status, table): table is a tuple of rows (one tuple per
    class, class 0 = empty word) when status is 0, else None.  Status 0
    with a watch means the pair is in two classes of the table.  A
    letter id outside range(n_letters), in a relation or in the watch
    pair, raises ValueError, as does a negative n_letters.
    """
    if n_letters < 0:
        raise ValueError(f"n_letters must be non-negative, got {n_letters}")
    relations = [_checked_pair(pair, n_letters) for pair in relations]
    if watch is not None:
        watch = _checked_pair(watch, n_letters)
    parent = [0]
    table = [[UNDEF] * n_letters]
    queue = deque()
    steps = 0

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def new_class():
        cid = len(parent)
        if cid >= max_classes:
            raise _Capped
        parent.append(cid)
        table.append([UNDEF] * n_letters)
        return cid

    def trace_define(c, word):
        nonlocal steps
        for a in word:
            steps += 1
            t = table[c][a]
            if t == UNDEF:
                t = new_class()
                table[c][a] = t
            else:
                t = find(t)
            c = t
        return c

    def coincide(a, b):
        nonlocal steps
        queue.append((a, b))
        while queue:
            u, v = queue.popleft()
            u = find(u)
            v = find(v)
            if u == v:
                continue
            if v < u:
                u, v = v, u
            # smaller id survives, so class 0 is never displaced
            parent[v] = u
            row_v = table[v]
            row_u = table[u]
            for k in range(n_letters):
                steps += 1
                t = row_v[k]
                if t == UNDEF:
                    continue
                s = row_u[k]
                if s == UNDEF:
                    row_u[k] = t
                else:
                    fs = find(s)
                    ft = find(t)
                    if fs != ft:
                        queue.append((fs, ft))
            table[v] = None

    def scan(c, lhs, rhs):
        nonlocal steps
        p = trace_define(c, lhs)
        if not rhs:
            q = find(c)
            if q != p:
                coincide(p, q)
            return
        d = trace_define(find(c), rhs[:-1])
        last = rhs[-1]
        steps += 1
        t = table[d][last]
        if t == UNDEF:
            table[d][last] = p
        else:
            t = find(t)
            if t != p:
                coincide(t, p)

    w1 = w2 = UNDEF

    def watch_merged():
        return w1 != UNDEF and find(w1) == find(w2)

    try:
        if watch is not None:
            w1 = trace_define(0, watch[0])
            w2 = trace_define(find(0), watch[1])
            if watch_merged():
                return (STATUS_WATCH_MERGED, None)

        c_idx = 0
        while c_idx < len(parent):
            if steps > max_steps:
                return (STATUS_CAPPED, None)
            if find(c_idx) != c_idx:
                c_idx += 1
                continue
            for lhs, rhs in relations:
                scan(find(c_idx), lhs, rhs)
                if watch_merged():
                    return (STATUS_WATCH_MERGED, None)
            if find(c_idx) == c_idx:
                row = table[c_idx]
                for k in range(n_letters):
                    if row[k] == UNDEF:
                        steps += 1
                        row[k] = new_class()
            c_idx += 1
    except _Capped:
        return (STATUS_CAPPED, None)

    live = [c for c in range(len(parent)) if find(c) == c]
    renumber = {c: i for i, c in enumerate(live)}
    out = tuple(tuple([renumber[find(t)] for t in table[c]]) for c in live)
    return (STATUS_COMPLETE, out)
