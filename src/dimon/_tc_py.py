"""Pure-Python kernels: congruence enumeration, a search for a small
model, monoid closure, Green's.

This module is the reference and the fallback when no C compiler is
available.  The hand-written C extension _tc_core implements the same
four functions: run, witness, close and green.  Each C function follows
its Python twin step for step and returns equal values.

run: congruence enumeration.  Table-filling over the right action of
letters on classes, in the HLT style: classes are visited in creation
order, every relation is traced at each live class (defining classes
along the way), the class's row is then filled with new classes, and
coincidences are merged first in, first out, with the smaller class id
surviving: coincide appends pairs to a list that it scans in order, and
no pair is pending once it returns, where classes may be renumbered.

A step is one letter traced, one letter of a row merged in a
coincidence, or one class defined while filling a row.  The budget is
checked before each class is visited, so max_steps bounds a run whose
classes all come from row filling, such as one with no relations.

A table cell is UNDEF or a class id, and the class may have been merged
away since the cell was written.  Every read compares a cell with UNDEF
or passes it through find(); so does every later read of a raw cell
that a coincidence copies into the surviving row, and so does the
standardizing pass.  The kernels therefore rewrite a cell to its
representative, path compression applied to the table (Tarjan, 1975),
at three reads: each defined edge that trace_define follows, the last
edge of a scan's right-hand side, and the surviving row's cell in a
coincidence when both rows have the edge.  Only a cell whose target was
merged away is written (parent[t] != t), and always into a live row: no
coincidence happens inside a trace or between a read and its write.
find() answers the same for a class and its representative, so no step,
class definition, coincidence, counter or table changes; later reads
just walk shorter parent chains.

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

Every table a kernel returns is one flat buffer: bytes of native int32
cells, row-major, so entry (c, k) of a table of width L is cell c * L + k
(``memoryview(table).cast("i")`` reads it).  With no letters or no
generators the table is b"".  run's relations and watch come in as
such buffers too, each word its length and then its letter ids.

run returns (status, table, stats):

    status 0  complete: table is the dense right-action table
    status 1  capped: class or step budget exhausted, no table
    status 2  the watch pair merged before completion, no table
    status 3  stopped by the stop flag before completion, no table

A complete table is standardized: the live classes are numbered
breadth-first from class 0, each class's targets read in letter order,
so the table depends only on the congruence, not on the order in which
classes were defined.  Every live class is reached, because each class
is defined as the target of an edge from a class reached before it, and
a coincidence keeps every edge of the class it merges away.  Standardizing
runs after the enumeration and counts no steps.

A complete watched run never merged its pair: the watch is checked
after every scan that merged classes, and only scans merge classes.
stats is a dict of the run's counters at its stop, whatever the
status: classes_defined (class 0 included), peak_live_classes,
coincidences (classes merged away) and steps.

run and witness take an optional stop flag, so that a caller can run
both at once, on two threads, and end the one whose answer it no longer
needs: None, or a writable buffer of at least one byte, whose byte 0 is
the flag.  It is checked where it enters: a read-only buffer (bytes, say)
raises BufferError, an empty one ValueError and an object that is no
buffer TypeError, in both kernels.  This is the flag's one contract:

    0  both go on
    1  one decided: the search found an action, or the run merged its
       watch (then the caller writes it, once run has returned)
    2  the search ended without an action

run checks the flag before each class visit, after the step cap, and
returns status 3 on a 1; a run that caps or completes first waits until
the flag is nonzero and returns status 3 on a 1 too.  So a run's status
does not depend on which finished first, and a flag that stays 0 keeps a
run that caps or completes waiting for good.  witness checks the flag
before each node and returns (None, nodes) once it is nonzero.  With no
flag, or one of 2, both return what they return without it.  The
compiled kernels release the GIL while they enumerate, search or wait,
which their one raw allocator (it needs no GIL) allows, and read the
flag through a volatile pointer; here the two threads interleave under
the GIL, and the wait sleeps to let the other one run.

witness: what a capped watched run cannot decide, a small model can.
It searches depth first, with the relations pruning each branch, for
an action of the letters on at most max_points points in which every
relation acts equally at every point and the watch's two words act
differently at some point: a bounded low-index search
(Anagnostopoulou-Merkouri, Cirpons, Mitchell & Tsalakou, 2023).  After
each choice of a cell's target, each cell defined since the choice is
traced in turn, through the relations holding its letter, for the edges
they force.  One call is one search, on at most max_points points and
within max_nodes nodes; it returns the action as int32 bytes or None,
and the nodes searched.

close: the breadth-first closure of a set of maps under right
products (Froidure & Pin, 1997), on the maps' byte keys (see
dimon.iperm), returns the elements' keys and the right table only.
green: the numbers of Green's R-, L-, H- and D-classes of an inverse
monoid, read off its elements' keys in one pass.  Keys cross the kernel
boundary as one buffer, key i at bytes i * (degree + 1) to
(i + 1) * (degree + 1), and both raise ValueError for a buffer that is
not whole keys.  close numbers distinct keys and green distinct
domains, images and (R, L) pairs, here with dicts and a set; the C
kernels do it with one record table, whose arrays close grows to at
most max_elements elements, so a capped compiled closure allocates in
proportion to its cap.
"""

import time
from array import array
from itertools import islice

UNDEF = -1

STATUS_COMPLETE = 0
STATUS_CAPPED = 1
STATUS_WATCH_MERGED = 2
STATUS_STOPPED = 3


class _Capped(Exception):
    pass


def _words(buf, n_letters):
    """The words in buf as lists of letter ids, checked as _tc_core's
    count_words checks them, with its errors and messages."""
    cells = array("i")
    try:
        cells.frombytes(buf)  # TypeError or BufferError as in count_words
    except ValueError:
        raise ValueError(f"{len(bytes(buf))} bytes are not whole int32 cells") from None
    cells, words, i = cells.tolist(), [], 0
    while i < len(cells):
        n, left, word = cells[i], len(cells) - i - 1, cells[i + 1:i + 1 + cells[i]]
        if not 0 <= n <= left:
            raise ValueError(f"word {len(words)} has length {n}, not 0 to {left}")
        if word and (min(word) < 0 or max(word) >= n_letters):
            bad = next(a for a in word if not 0 <= a < n_letters)
            raise ValueError(f"letter id {bad} is not in range({n_letters})")
        words.append(word)
        i += 1 + n
    return words


def _relation_pairs(buf, n_letters):
    """The relations in buf as (lhs, rhs) pairs of letter-id lists."""
    if n_letters < 0:
        raise ValueError(f"n_letters must be non-negative, got {n_letters}")
    words = _words(buf, n_letters)
    if len(words) % 2:
        raise ValueError(f"relation words come in (lhs, rhs) pairs, got {len(words)}")
    return list(zip(words[0::2], words[1::2]))


def _watch(buf, n_letters):
    """The two words of the watch in buf."""
    watch = _words(buf, n_letters)
    if len(watch) != 2:
        raise ValueError(f"a watch is two words, got {len(watch)}")
    return watch


def _stop_flag(stop):
    """The flag in stop as a one-byte-per-item view, byte 0 the flag, or
    None for None; refused as _tc_core's stop_flag refuses it."""
    if stop is None:
        return None
    view = memoryview(stop)  # TypeError for an object that is no buffer
    if view.readonly:
        raise BufferError("Object is not writable.")
    if not view.c_contiguous:
        raise BufferError("memoryview: underlying buffer is not C-contiguous")
    if not view.nbytes:
        raise ValueError("stop must be at least one byte")
    return view.cast("B")


def _find(parent, c):
    """The root of c in a union-find forest, halving the path to it."""
    while parent[c] != c:
        parent[c] = parent[parent[c]]
        c = parent[c]
    return c


def run(n_letters, relations, max_classes, max_steps, watch=None, stop=None, /):
    """Enumerate the classes of the two-sided congruence.

    relations: a bytes-like buffer of native int32 cells, each word its
    length and then its letter ids, lhs then rhs of each relation.
    watch: None, or such a buffer of two words; the run then stops as
    soon as the two words provably fall in one class.
    stop: None, or a stop flag (see the module docstring).

    Returns (status, table, stats): table is the standardized table as
    int32 bytes (class 0 = empty word) when status is 0, else None, and
    stats the run's counters (see the module docstring).  Status 0
    with a watch means the pair is in two classes of the table.  A
    buffer that is not whole words, an odd number of relation words, a
    watch of other than two words, a letter id outside range(n_letters)
    or a negative n_letters raises ValueError, and a buffer that is not
    bytes-like TypeError; a stop flag is refused as the module docstring
    says.  Every argument is positional only.
    """
    flag = _stop_flag(stop)
    relations = _relation_pairs(relations, n_letters)
    if watch is not None:
        watch = _watch(watch, n_letters)
    parent = [0]
    table = [[UNDEF] * n_letters]
    steps = 0
    live = peak = 1
    merges = 0

    def new_class():
        nonlocal live, peak
        cid = len(parent)
        if cid >= max_classes:
            raise _Capped
        parent.append(cid)
        table.append([UNDEF] * n_letters)
        live += 1
        peak = max(peak, live)
        return cid

    def trace_define(c, word):
        nonlocal steps
        for a in word:
            steps += 1
            t = table[c][a]
            if t == UNDEF:
                t = new_class()
                table[c][a] = t
            elif parent[t] != t:
                t = table[c][a] = _find(parent, t)
            c = t
        return c

    def coincide(a, b):
        nonlocal steps, live, merges
        queue = [(a, b)]
        for u, v in queue:  # the loop reaches every pair appended
            u = _find(parent, u)
            v = _find(parent, v)
            if u == v:
                continue
            if v < u:
                u, v = v, u
            # smaller id survives, so class 0 is never displaced
            parent[v] = u
            live -= 1
            merges += 1
            row_v = table[v]
            row_u = table[u]
            for k in range(n_letters):
                steps += 1
                t = row_v[k]
                if t == UNDEF:
                    continue
                fs = row_u[k]
                if fs == UNDEF:
                    row_u[k] = t
                else:
                    if parent[fs] != fs:
                        fs = row_u[k] = _find(parent, fs)
                    ft = _find(parent, t)
                    if fs != ft:
                        queue.append((fs, ft))
            table[v] = None

    def scan(c, lhs, rhs):
        nonlocal steps
        p = trace_define(c, lhs)
        if not rhs:
            q = _find(parent, c)
            if q != p:
                coincide(p, q)
            return
        d = trace_define(_find(parent, c), rhs[:-1])
        last = rhs[-1]
        steps += 1
        t = table[d][last]
        if t == UNDEF:
            table[d][last] = p
        else:
            if parent[t] != t:
                t = table[d][last] = _find(parent, t)
            if t != p:
                coincide(t, p)

    w1 = w2 = UNDEF

    def watch_merged():
        return w1 != UNDEF and _find(parent, w1) == _find(parent, w2)

    def enumerate_classes():
        nonlocal w1, w2, steps
        if watch is not None:
            w1 = trace_define(0, watch[0])
            w2 = trace_define(_find(parent, 0), watch[1])
            if watch_merged():
                return STATUS_WATCH_MERGED

        c_idx = 0
        while c_idx < len(parent):
            if steps > max_steps:
                return STATUS_CAPPED
            if flag is not None and flag[0] == 1:
                return STATUS_STOPPED
            if _find(parent, c_idx) != c_idx:
                c_idx += 1
                continue
            for lhs, rhs in relations:
                merged = merges
                scan(_find(parent, c_idx), lhs, rhs)
                if merges != merged and watch_merged():
                    return STATUS_WATCH_MERGED
            if _find(parent, c_idx) == c_idx:
                row = table[c_idx]
                for k in range(n_letters):
                    if row[k] == UNDEF:
                        steps += 1
                        row[k] = new_class()
            c_idx += 1
        return STATUS_COMPLETE

    try:
        status = enumerate_classes()
    except _Capped:
        status = STATUS_CAPPED
    if flag is not None and status in (STATUS_CAPPED, STATUS_COMPLETE):
        while not flag[0]:
            time.sleep(0)  # lets the thread that sets it run
        if flag[0] == 1:
            status = STATUS_STOPPED
    stats = {
        "classes_defined": len(parent),
        "peak_live_classes": peak,
        "coincidences": merges,
        "steps": steps,
    }
    if status != STATUS_COMPLETE:
        return (status, None, stats)

    # live classes numbered breadth-first from class 0, rows in that order
    renumber = {0: 0}
    order = [0]
    out = array("i")
    for c in order:
        for t in table[c]:
            t = _find(parent, t)
            if t not in renumber:
                renumber[t] = len(order)
                order.append(t)
            out.append(renumber[t])
    return (STATUS_COMPLETE, out.tobytes(), stats)


def witness(n_letters, relations, watch, max_points, max_nodes, stop=None, /):
    """Search for a small action in which the watch's two words differ.

    An action of the letters on points 0..k-1 maps each point under
    each letter, and a word acts as its letters do in turn.  When every
    relation's two sides act equally at every point, the action is one
    of the presented monoid, so watch words that act differently at
    some point are two elements: the watch is no consequence.

    relations and watch are buffers of words as run reads them, and
    the watch must be given.  Only actions reached from point 0 are
    searched, each once: depth first over the first undefined cell,
    point by point and letters in order, whose target is each point in
    turn and then a new point while there are fewer than the bound.
    Such a choice is a node.  After each one, every relation holding
    that cell's letter is traced at every point: with both sides
    complete and unequal the choice fails, and with one side complete
    and the other missing only its last edge, that edge is defined to
    agree.  Each cell defined since the choice is traced in turn, so
    the trail that undoes a choice is also its deductions' worklist.
    The search stops at the first action that separates the watch, or
    after max_nodes nodes: with letters in few relations, actions on
    two points alone can take about 4**n_letters nodes, so no search
    runs without that bound, nor once the stop flag, if given, is nonzero.
    Which point bounds to search, and in what order, is the caller's (see
    dimon.congruence).

    Returns (table, nodes): table the first action found as int32
    bytes, cell q * n_letters + a the image of point q under letter a,
    or None; nodes the choices made.  max_points outside 1..256 or a
    negative max_nodes raises ValueError, and the buffers and the stop
    flag are refused as run refuses them.  Every argument is positional
    only.
    """
    flag = _stop_flag(stop)
    if not 1 <= max_points <= 256:
        raise ValueError(f"max_points must be 1 to 256, got {max_points}")
    if max_nodes < 0:
        raise ValueError(f"max_nodes must be non-negative, got {max_nodes}")
    relations = _relation_pairs(relations, n_letters)
    watch = _watch(watch, n_letters)
    width = n_letters
    holding = [[(lhs, rhs) for lhs, rhs in relations if a in lhs or a in rhs]
               for a in range(width)]
    table = [UNDEF] * (max_points * width)
    trail = []  # the defined cells, in order

    def define(cell, t):
        table[cell] = t
        trail.append(cell)

    def walk(q, word):
        """The point word reaches from q, and the letters it read before
        a missing edge stopped it."""
        for i, a in enumerate(word):
            t = table[q * width + a]
            if t == UNDEF:
                return q, i
            q = t
        return q, len(word)

    def deduce(points, mark):
        """Whether every relation can still hold at every point, defining
        each edge that one forces: the relations holding the letter of
        each cell on the trail from mark on are traced in turn, the
        cells they define included."""
        for cell in islice(trail, mark, None):  # reaches every cell appended
            for lhs, rhs in holding[cell % width]:
                for q in range(points):
                    # one side must be complete and the other at most one
                    # edge short
                    p, i = walk(q, lhs)
                    if i < len(lhs) - 1:
                        continue
                    r, j = walk(q, rhs)
                    if i == len(lhs) and j == len(rhs):
                        if p != r:
                            return False
                    elif i == len(lhs) and j == len(rhs) - 1:
                        define(r * width + rhs[j], p)
                    elif j == len(rhs) and i == len(lhs) - 1:
                        define(p * width + lhs[i], r)
        return True

    def separates(points):
        return any(walk(q, watch[0])[0] != walk(q, watch[1])[0] for q in range(points))

    nodes, points, cell = 0, 1, 0
    stack = []  # per choice: its cell, next target, trail length, points
    while True:
        while cell < points * width and table[cell] != UNDEF:
            cell += 1
        if cell < points * width:
            stack.append([cell, 0, len(trail), points])
        elif separates(points):
            return array("i", table[:points * width]).tobytes(), nodes
        while stack:  # the next choice, backtracking past spent ones
            frame = stack[-1]
            cell, t, mark, points = frame
            while len(trail) > mark:
                table[trail.pop()] = UNDEF
            if t == min(points + 1, max_points):
                stack.pop()
                continue
            if nodes == max_nodes or flag is not None and flag[0]:
                return None, nodes
            frame[1] = t + 1
            nodes += 1
            points = max(points, t + 1)
            define(cell, t)
            if deduce(points, mark):
                break
        else:
            return None, nodes
        cell += 1


def _split_keys(degree, buf):
    """The keys of degree + 1 bytes end to end in the bytes-like buf,
    as a list of bytes.  A buffer that is not contiguous raises
    BufferError, as _tc_core's y* does."""
    view, width = memoryview(buf), degree + 1
    if not view.c_contiguous:
        raise BufferError("memoryview: underlying buffer is not C-contiguous")
    buf = view.tobytes()
    if not 1 <= degree <= 255:
        raise ValueError(f"degree must be 1 to 255, got {degree}")
    if len(buf) % width:
        raise ValueError(f"{len(buf)} bytes are not whole keys of {width} bytes")
    return [buf[i:i + width] for i in range(0, len(buf), width)]


def close(degree, gen_keys, max_elements, /):
    """Breadth-first closure of the identity under right products.

    gen_keys is a bytes-like buffer of the generators' keys, each
    degree + 1 bytes, end to end.  Elements are indexed in discovery
    order from the identity (element 0), over (element, generator)
    pairs with the generators in the given order.  Element i then
    generator k is ``key_i.translate(table_k)``, where table_k is
    generator k's key padded to 256 bytes.

    Returns (keys, rows): the elements' keys end to end as bytes, key i
    at bytes i * (degree + 1) to (i + 1) * (degree + 1), and the right
    table as int32 bytes with cell i * (number of generators) + k the
    index of element i times generator k.  Returns None when the
    closure has more than max_elements elements; the identity alone is
    kept whatever the cap.
    """
    tables = [key.ljust(256, b"\0") for key in _split_keys(degree, gen_keys)]
    one = bytes(range(degree + 1))
    keys = [one]
    index = {one: 0}
    rows = array("i")

    pos = 0
    while pos < len(keys):
        current = keys[pos]
        for table in tables:
            product = current.translate(table)
            target = index.get(product)
            if target is None:
                if len(keys) >= max_elements:
                    return None
                target = len(keys)
                index[product] = target
                keys.append(product)
            rows.append(target)
        pos += 1
    return b"".join(keys), rows.tobytes()


#: Byte translation table: 0 (undefined) to 0, every point to 1.
_DOM = bytes((0,)) + bytes((1,)) * 255


def green(degree, keys, /):
    """The numbers of Green's R-, L-, H- and D-classes of an inverse
    monoid.

    keys is a bytes-like buffer of the elements' keys, each degree + 1
    bytes, end to end, as close returns them.  Returns (r, l, h, d), the
    class counts, from one pass over the keys.  f R g iff
    dom f = dom g, read off the key's nonzero bytes, and f L g iff
    im f = im g, read off the set of its bytes; these hold in an inverse
    monoid only, which the caller checks.  H is the common refinement
    of R and L, so its classes are the (R, L) pairs.  D = R o L, the
    join of R and L: a union-find joins each key's R-class with the
    first R-class its L-class met, and the D-classes are its roots.
    """
    keys = _split_keys(degree, keys)
    dom, im, pairs = {}, {}, set()
    root = list(range(len(keys)))  # union-find over the R-classes
    meets = {}  # L-class -> the first R-class it met
    joins = 0
    for key in keys:
        r = dom.setdefault(key.translate(_DOM), len(dom))
        l = im.setdefault(frozenset(key), len(im))
        pairs.add((r, l))
        x, y = _find(root, r), _find(root, meets.setdefault(l, r))
        root[x] = y
        joins += x != y
    return len(dom), len(im), len(pairs), len(dom) - joins
