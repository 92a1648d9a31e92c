/* Compiled kernels: congruence enumeration, a search for a small model,
   monoid closure, Green's.

   Step-for-step ports of dimon._tc_py's run, witness, close and green,
   written against the CPython C API.  See _tc_py for each procedure,
   the argument that no final sweep is needed, and the status protocol.

   Every table comes back as one bytes object of native int32 cells,
   row-major; no Python object is built per cell.  run reads its
   relations and watch as such buffers of words, each its length and
   then its letter ids, from one aligned copy that count_words checks.

   run: the same class creation order, the same coincidence handling,
   the same step count and the same standardized renumbering (live
   classes breadth-first from class 0), so both kernels return equal
   (status, table, stats) triples.  Class ids are C ints and the
   step count a C long long; run() raises OverflowError for a cap
   beyond either.  Like _tc_py, it writes find()'s answer back into a
   cell whose target was merged away, at the same three reads (a defined
   edge of trace_define, a scan's last edge, the surviving row in
   coincide).  Every cell is only compared with UNDEF or read through
   find(), so the write changes no step, decision, counter or table.
   coincide appends pairs to an array, scans it by index and empties it
   before it returns, where no pair is pending and classes may be
   renumbered.  The watch is checked only after a scan that merged
   classes.

   witness: the same bounded depth-first search for a small action
   separating the watch, one search on at most max_points points within
   max_nodes nodes, choice for choice, with the same deductions and the
   same node count, so both kernels return equal (table, nodes) pairs.
   It reads the words as run does.  The trail of the cells each choice
   defined undoes it on backtracking and is its deductions' worklist:
   each cell defined since the choice is traced in turn, through the
   relations holding its letter, listed in one pass over the words.

   close and green number fixed-length byte records through one record
   table (Records): an open-addressing hash table whose arrays double
   up to a limit and no further.

   close and green read a monoid's keys as one buffer, key i at bytes
   i * (degree + 1) to (i + 1) * (degree + 1), and count_keys checks
   that it holds whole keys; no Python object is read or built per key.

   close: the same elements in the same breadth-first order.  Its keys
   are records limited to max_elements (the identity is always kept),
   so a capped closure allocates for at most max_elements elements, and
   the right table grows as its rows are written.  It finishes the
   closure in C arrays, so a capped closure builds no Python object.
   Only the records, which are the keys end to end, and the right table
   come back.

   green: one pass over the keys numbers 256-bit masks of each key's
   domain and image (its R- and L-class) and the (R, L) pairs (its
   H-class), and joins its R-class with the first R-class its L-class
   met in a union-find over the R-classes, whose roots are the
   D-classes.  Only the four class counts come back, equal to _tc_py's.

   Every allocation failure raises MemoryError. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define UNDEF (-1)
#define STATUS_COMPLETE 0
#define STATUS_CAPPED 1
#define STATUS_WATCH_MERGED 2

/* class-returning helpers answer a class id, or one of these */
#define CAPPED (-1)
#define FAILED (-2) /* a Python exception is set */

typedef struct {
    int n_letters;
    int n_classes;
    int max_classes;
    int live;             /* classes defined and not merged away */
    int peak_live;
    int coincidences;     /* classes merged away */
    Py_ssize_t cap;       /* classes the parent and table arrays hold */
    long long steps;
    long long max_steps;
    int *parent;          /* union-find forest over class ids */
    int *table;           /* flat, row c starts at c * n_letters */
    int *queue;           /* one coincide's pairs, empty between calls */
    Py_ssize_t q_len;
    Py_ssize_t q_cap;     /* in pairs */
} State;

/* Grow p to n items of size bytes; on failure p stays valid.  A row of
   a table with no letters has size 0. */
static void *
grow(void *p, Py_ssize_t n, size_t size)
{
    void *q;
    if (n < 1)
        n = 1;
    if (size < 1)
        size = 1;
    if ((size_t)n > (size_t)PY_SSIZE_T_MAX / size) {
        PyErr_NoMemory();
        return NULL;
    }
    q = PyMem_Realloc(p, (size_t)n * size);
    if (q == NULL)
        PyErr_NoMemory();
    return q;
}

static int *
row(State *s, int c)
{
    return s->table + (size_t)c * (size_t)s->n_letters;
}

static int
find(int *parent, int c)
{
    while (parent[c] != c) {
        parent[c] = parent[parent[c]];
        c = parent[c];
    }
    return c;
}

static int
new_class(State *s)
{
    int cid = s->n_classes;
    int *p;
    if (cid >= s->max_classes)
        return CAPPED;
    if (cid >= s->cap) {
        Py_ssize_t cap = s->cap * 2 < s->max_classes ? s->cap * 2 : s->max_classes;
        if ((p = grow(s->parent, cap, sizeof(int))) == NULL)
            return FAILED;
        s->parent = p;
        if ((p = grow(s->table, cap, (size_t)s->n_letters * sizeof(int))) == NULL)
            return FAILED;
        s->table = p;
        s->cap = cap;
    }
    s->parent[cid] = cid;
    memset(row(s, cid), 0xFF, (size_t)s->n_letters * sizeof(int));
    s->n_classes = cid + 1;
    if (++s->live > s->peak_live)
        s->peak_live = s->live;
    return cid;
}

static int
q_push(State *s, int a, int b)
{
    if (s->q_len == s->q_cap) {
        int *q = grow(s->queue, 4 * s->q_cap, sizeof(int));
        if (q == NULL)
            return -1;
        s->queue = q;
        s->q_cap *= 2;
    }
    s->queue[2 * s->q_len] = a;
    s->queue[2 * s->q_len + 1] = b;
    s->q_len++;
    return 0;
}

/* Follow the first len letters of word, word[1] onwards (word[0] is its
   length), from class c, defining a new class at each missing edge. */
static int
trace_define(State *s, int c, const int *word, int len)
{
    int i;
    for (i = 0; i < len; i++) {
        int t;
        s->steps++;
        t = row(s, c)[word[i + 1]];
        if (t == UNDEF) {
            t = new_class(s);
            if (t < 0)
                return t;
            row(s, c)[word[i + 1]] = t;
        }
        else if (s->parent[t] != t) {
            row(s, c)[word[i + 1]] = t = find(s->parent, t);
        }
        c = t;
    }
    return c;
}

/* Merge classes a and b and every pair of classes that follows. */
static int
coincide(State *s, int a, int b)
{
    Py_ssize_t i;
    if (q_push(s, a, b) < 0)
        return -1;
    for (i = 0; i < s->q_len; i++) {
        int u = find(s->parent, s->queue[2 * i]);
        int v = find(s->parent, s->queue[2 * i + 1]);
        int k, *row_u, *row_v;
        if (u == v)
            continue;
        if (v < u) {
            int w = u;
            u = v;
            v = w;
        }
        /* smaller id survives, so class 0 is never displaced */
        s->parent[v] = u;
        s->live--;
        s->coincidences++;
        row_u = row(s, u);
        row_v = row(s, v);
        for (k = 0; k < s->n_letters; k++) {
            int t = row_v[k];
            s->steps++;
            if (t == UNDEF)
                continue;
            if (row_u[k] == UNDEF) {
                row_u[k] = t;
            }
            else {
                int fs = row_u[k], ft;
                if (s->parent[fs] != fs)
                    row_u[k] = fs = find(s->parent, fs);
                ft = find(s->parent, t);
                if (fs != ft && q_push(s, fs, ft) < 0)
                    return -1;
            }
        }
    }
    s->q_len = 0;
    return 0;
}

/* Apply the relation lhs = rhs at class c: 0, CAPPED or FAILED. */
static int
scan(State *s, int c, const int *lhs, const int *rhs)
{
    int p, d, t, last;
    p = trace_define(s, c, lhs, lhs[0]);
    if (p < 0)
        return p;
    if (rhs[0] == 0) {
        int q = find(s->parent, c);
        return q != p && coincide(s, p, q) < 0 ? FAILED : 0;
    }
    d = trace_define(s, find(s->parent, c), rhs, rhs[0] - 1);
    if (d < 0)
        return d;
    last = rhs[rhs[0]];
    s->steps++;
    t = row(s, d)[last];
    if (t == UNDEF) {
        row(s, d)[last] = p;
        return 0;
    }
    if (s->parent[t] != t)
        row(s, d)[last] = t = find(s->parent, t);
    return t != p && coincide(s, t, p) < 0 ? FAILED : 0;
}

/* The number of words in obj, a bytes-like buffer of native int32 cells,
   each word its length and then its letter ids, with an aligned copy of
   the cells in *cells for the caller to free; or -1 with TypeError,
   MemoryError or ValueError (see run_doc). */
static Py_ssize_t
count_words(PyObject *obj, int n_letters, int **cells)
{
    Py_buffer b;
    Py_ssize_t n, i = 0, end, count = 0, words = -1;
    int *c;
    if (PyObject_GetBuffer(obj, &b, PyBUF_SIMPLE) < 0)
        return -1;
    n = b.len / (Py_ssize_t)sizeof(int);
    if (b.len % (Py_ssize_t)sizeof(int) != 0) {
        PyErr_Format(PyExc_ValueError, "%zd bytes are not whole int32 cells", b.len);
        goto done;
    }
    if ((*cells = c = grow(NULL, n, sizeof(int))) == NULL)
        goto done;
    if (n > 0)
        memcpy(c, b.buf, (size_t)b.len);
    for (; i < n; count++) {
        if (c[i] < 0 || c[i] >= n - i) {
            PyErr_Format(PyExc_ValueError, "word %zd has length %d, not 0 to %zd",
                         count, c[i], n - i - 1);
            goto done;
        }
        for (end = i + 1 + c[i], i++; i < end; i++)
            if (c[i] < 0 || c[i] >= n_letters) {
                PyErr_Format(PyExc_ValueError, "letter id %d is not in range(%d)",
                             c[i], n_letters);
                goto done;
            }
    }
    words = count;
done:
    PyBuffer_Release(&b);
    return words;
}

/* The number of words in relations, copied into *rels as count_words
   copies them, or -1 with an exception set: also for a negative
   n_letters or an odd number of words. */
static Py_ssize_t
relation_words(PyObject *relations, int n_letters, int **rels)
{
    Py_ssize_t n;
    if (n_letters < 0) {
        PyErr_Format(PyExc_ValueError, "n_letters must be non-negative, got %d", n_letters);
        return -1;
    }
    if ((n = count_words(relations, n_letters, rels)) % 2 != 0) {
        if (n >= 0)
            PyErr_Format(PyExc_ValueError,
                         "relation words come in (lhs, rhs) pairs, got %zd", n);
        return -1;
    }
    return n;
}

/* The watch's two words copied into *pair: 0, or -1 with an exception
   set, also for other than two words. */
static int
watch_words(PyObject *watch, int n_letters, int **pair)
{
    Py_ssize_t n = count_words(watch, n_letters, pair);
    if (n == 2)
        return 0;
    if (n >= 0)
        PyErr_Format(PyExc_ValueError, "a watch is two words, got %zd", n);
    return -1;
}

static int
watch_merged(State *s, int w1, int w2)
{
    return w1 != UNDEF && find(s->parent, w1) == find(s->parent, w2);
}

/* The enumeration proper: a status, or FAILED.  rels holds n_rels
   relations, lhs then rhs, and watch, unless NULL, two words.  Only
   scans merge classes, so the watch is checked after each one that
   merged some. */
static int
enumerate(State *s, const int *rels, Py_ssize_t n_rels, const int *watch)
{
    const int *lhs, *rhs;
    Py_ssize_t r;
    int c_idx, k, rc, merged, w1 = UNDEF, w2 = UNDEF;
    if (watch != NULL) {
        rhs = watch + 1 + watch[0];
        if ((w1 = trace_define(s, 0, watch, watch[0])) < 0)
            return w1 == CAPPED ? STATUS_CAPPED : FAILED;
        if ((w2 = trace_define(s, find(s->parent, 0), rhs, rhs[0])) < 0)
            return w2 == CAPPED ? STATUS_CAPPED : FAILED;
        if (watch_merged(s, w1, w2))
            return STATUS_WATCH_MERGED;
    }
    for (c_idx = 0; c_idx < s->n_classes; c_idx++) {
        if (s->steps > s->max_steps)
            return STATUS_CAPPED;
        if (find(s->parent, c_idx) != c_idx)
            continue;
        for (r = 0, lhs = rels; r < n_rels; r++, lhs = rhs + 1 + rhs[0]) {
            rhs = lhs + 1 + lhs[0];
            merged = s->coincidences;
            rc = scan(s, find(s->parent, c_idx), lhs, rhs);
            if (rc < 0)
                return rc == CAPPED ? STATUS_CAPPED : FAILED;
            if (s->coincidences != merged && watch_merged(s, w1, w2))
                return STATUS_WATCH_MERGED;
        }
        if (find(s->parent, c_idx) == c_idx) {
            for (k = 0; k < s->n_letters; k++) {
                if (row(s, c_idx)[k] == UNDEF) {
                    int cid;
                    s->steps++;
                    cid = new_class(s);
                    if (cid < 0)
                        return cid == CAPPED ? STATUS_CAPPED : FAILED;
                    row(s, c_idx)[k] = cid;
                }
            }
        }
    }
    return STATUS_COMPLETE;
}

/* The live classes' rows as int32 bytes, standardized: classes numbered
   breadth-first from class 0, each row's targets read in letter order.
   Every live class is reached (see _tc_py), and the check that says so
   keeps unwritten cells out of the result. */
static PyObject *
dense_table(State *s)
{
    PyObject *out = NULL;
    int *renum = grow(NULL, s->n_classes, sizeof(int));
    int *order = grow(NULL, s->live, sizeof(int));
    int *cells, head, next = 1, k;
    if (renum == NULL || order == NULL)
        goto done;
    memset(renum, 0xFF, (size_t)s->n_classes * sizeof(int));
    renum[0] = order[0] = 0;
    out = PyBytes_FromStringAndSize(
        NULL, (Py_ssize_t)s->live * s->n_letters * (Py_ssize_t)sizeof(int));
    if (out == NULL)
        goto done;
    cells = (int *)PyBytes_AS_STRING(out);
    for (head = 0; head < next; head++) {
        const int *r = row(s, order[head]);
        for (k = 0; k < s->n_letters; k++) {
            int t = find(s->parent, r[k]);
            if (renum[t] == UNDEF) {
                renum[t] = next;
                order[next++] = t;
            }
            *cells++ = renum[t];
        }
    }
    if (next != s->live) {
        PyErr_SetString(PyExc_RuntimeError, "a live class is not reached from class 0");
        Py_CLEAR(out);
    }
done:
    PyMem_Free(renum);
    PyMem_Free(order);
    return out;
}

PyDoc_STRVAR(run_doc,
"run(n_letters, relations, max_classes, max_steps, watch=None, /)\n"
"--\n\n"
"Enumerate the classes of the two-sided congruence.\n\n"
"Same contract as _tc_py.run: relations is a bytes-like buffer of\n"
"int32 cells, each word its length and then its letter ids, lhs then\n"
"rhs of each relation, and watch None or such a buffer of two words.\n"
"The result is (status, table, stats): the standardized table as int32\n"
"bytes when status is 0 and None otherwise, stats the run's counters.\n"
"A buffer that is not whole words, an odd number of relation words, a\n"
"watch of other than two words or a letter id outside range(n_letters)\n"
"raises ValueError.  It takes positional arguments only.");

static PyObject *
run(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *relations, *watch = Py_None, *result = NULL;
    State s = {0};
    int *rels = NULL, *pair = NULL, status;
    Py_ssize_t n_words;

    if (!PyArg_ParseTuple(args, "iOiL|O:run", &s.n_letters, &relations,
                          &s.max_classes, &s.max_steps, &watch))
        return NULL;
    if ((n_words = relation_words(relations, s.n_letters, &rels)) < 0
        || (watch != Py_None && watch_words(watch, s.n_letters, &pair) < 0))
        goto done;

    s.cap = 1024;
    s.q_cap = 1024;
    if ((s.parent = grow(NULL, s.cap, sizeof(int))) == NULL
        || (s.table = grow(NULL, s.cap, (size_t)s.n_letters * sizeof(int))) == NULL
        || (s.queue = grow(NULL, s.q_cap, 2 * sizeof(int))) == NULL)
        goto done;
    s.parent[0] = 0;
    memset(row(&s, 0), 0xFF, (size_t)s.n_letters * sizeof(int));
    s.n_classes = s.live = s.peak_live = 1;

    status = enumerate(&s, rels, n_words / 2, pair);
    if (status != FAILED) {
        PyObject *table = status == STATUS_COMPLETE ? dense_table(&s) : Py_NewRef(Py_None);
        if (table != NULL)
            result = Py_BuildValue(
                "iN{s:i,s:i,s:i,s:L}", status, table,
                "classes_defined", s.n_classes, "peak_live_classes", s.peak_live,
                "coincidences", s.coincidences, "steps", s.steps);
    }
done:
    PyMem_Free(rels);
    PyMem_Free(pair);
    PyMem_Free(s.parent);
    PyMem_Free(s.table);
    PyMem_Free(s.queue);
    return result;
}

/* ---- A small action that separates the watch ---- */

/* One choice of the search: its cell, the next target to try, the
   trail's length and the number of points before the choice. */
typedef struct {
    Py_ssize_t cell;
    Py_ssize_t mark;
    int next;
    int points;
} Choice;

typedef struct {
    const int *lhs;       /* a relation's lhs; its rhs follows */
    Py_ssize_t next;      /* the next in holding of the same letter, or -1 */
} Holding;

typedef struct {
    int width;            /* letters */
    Holding *holding;     /* each letter's relations: see index_holding */
    Py_ssize_t *first;    /* letter a's first in holding at a, its last at width + a */
    int *table;           /* cell q * width + a, UNDEF where undefined */
    Py_ssize_t *trail;    /* the defined cells, in order */
    Py_ssize_t trail_len;
    Choice *stack;
    long long nodes;
} Search;

/* The point word (its length, then its letters) reaches from q, and in
   *read the letters it read before a missing edge stopped it. */
static int
walk(const Search *w, int q, const int *word, int *read)
{
    int i, t;
    for (i = 0; i < word[0]; i++) {
        if ((t = w->table[(Py_ssize_t)q * w->width + word[i + 1]]) == UNDEF)
            break;
        q = t;
    }
    *read = i;
    return q;
}

static void
define(Search *w, Py_ssize_t cell, int t)
{
    w->table[cell] = t;
    w->trail[w->trail_len++] = cell;
}

/* Whether every relation can still hold at each of the points, defining
   each edge that one forces: with one side complete and the other one
   edge short, the edge to the complete side's end.  The relations
   holding the letter of each cell on the trail from mark on are traced
   in turn, the cells they define included, as coincide scans the pairs
   it appends; forced edges reach the same fixpoint, or fail, in any
   order. */
static int
deduce(Search *w, int points, Py_ssize_t mark)
{
    Py_ssize_t k;
    for (; mark < w->trail_len; mark++)
        for (k = w->first[w->trail[mark] % w->width]; k >= 0; k = w->holding[k].next) {
            const int *lhs = w->holding[k].lhs, *rhs = lhs + 1 + lhs[0];
            int q, i, j, p, r;
            for (q = 0; q < points; q++) {
                p = walk(w, q, lhs, &i);
                if (i < lhs[0] - 1)
                    continue;
                r = walk(w, q, rhs, &j);
                if (i == lhs[0] && j == rhs[0]) {
                    if (p != r)
                        return 0;
                }
                else if (i == lhs[0] && j == rhs[0] - 1)
                    define(w, (Py_ssize_t)r * w->width + rhs[j + 1], p);
                else if (j == rhs[0] && i == lhs[0] - 1)
                    define(w, (Py_ssize_t)p * w->width + lhs[i + 1], r);
            }
        }
    return 1;
}

static int
separates(const Search *w, int points, const int *watch)
{
    const int *rhs = watch + 1 + watch[0];
    int q, i;
    for (q = 0; q < points; q++)
        if (walk(w, q, watch, &i) != walk(w, q, rhs, &i))
            return 1;
    return 0;
}

/* The points of the first action found on at most bound points, or 0
   when there is none or budget nodes ran out.  Each choice is of a cell
   past its parent's, so the stack holds at most the cells. */
static int
search(Search *w, int bound, long long budget, const int *watch)
{
    Py_ssize_t cell = 0, top = 0;
    int points = 1, t;
    Choice *f;
    for (;;) {
        while (cell < (Py_ssize_t)points * w->width && w->table[cell] != UNDEF)
            cell++;
        if (cell < (Py_ssize_t)points * w->width)
            w->stack[top++] = (Choice){cell, w->trail_len, 0, points};
        else if (separates(w, points, watch))
            return points;
        for (;;) {  /* the next choice, backtracking past spent ones */
            if (top == 0)
                return 0;
            f = &w->stack[top - 1];
            cell = f->cell;
            points = f->points;
            while (w->trail_len > f->mark)
                w->table[w->trail[--w->trail_len]] = UNDEF;
            if ((t = f->next) == (points + 1 < bound ? points + 1 : bound)) {
                top--;
                continue;
            }
            if (w->nodes == budget)
                return 0;
            f->next = t + 1;
            w->nodes++;
            if (points < t + 1)
                points = t + 1;
            define(w, cell, t);
            if (deduce(w, points, f->mark))
                break;
        }
        cell++;
    }
}

/* Letter a's relations, in relation order: w->holding[k] from
   k = w->first[a] on along each next.  One pass over the words appends
   each relation to the list of each letter it holds: 0, or -1 with
   MemoryError. */
static int
index_holding(Search *w, const int *rels, Py_ssize_t n_rels)
{
    const int *lhs = rels, *rhs, *a;
    Py_ssize_t r, k = 0, cap = 0, *last;
    Holding *h;
    if ((w->first = grow(NULL, 2 * (Py_ssize_t)w->width, sizeof(Py_ssize_t))) == NULL)
        return -1;
    last = w->first + w->width;
    memset(w->first, 0xFF, 2 * (size_t)w->width * sizeof(Py_ssize_t));  /* -1 */
    for (r = 0; r < n_rels; r++, lhs = rhs + 1 + rhs[0]) {
        rhs = lhs + 1 + lhs[0];
        for (a = lhs + 1; a <= rhs + rhs[0]; a++) {
            if (a == rhs || (last[*a] >= 0 && w->holding[last[*a]].lhs == lhs))
                continue;  /* the rhs's length, or a letter listed already */
            if (k == cap) {
                if ((h = grow(w->holding, cap = 2 * cap + 16, sizeof(Holding))) == NULL)
                    return -1;
                w->holding = h;
            }
            w->holding[k] = (Holding){lhs, -1};
            *(last[*a] < 0 ? &w->first[*a] : &w->holding[last[*a]].next) = k;
            last[*a] = k++;
        }
    }
    return 0;
}

PyDoc_STRVAR(witness_doc,
"witness(n_letters, relations, watch, max_points, max_nodes, /)\n"
"--\n\n"
"Search for a small action in which the watch's two words differ.\n\n"
"Same contract as _tc_py.witness: relations and watch are buffers of\n"
"words as run reads them.  One depth-first search of actions on at most\n"
"max_points points, within max_nodes nodes.  The result is\n"
"(table, nodes): the first action found in which every relation holds\n"
"at every point and the watch's words differ at one, as int32 bytes,\n"
"cell q * n_letters + a the image of point q under letter a, or None;\n"
"and the nodes searched.  max_points outside 1..256, a negative\n"
"max_nodes, or buffers that run refuses raise ValueError.  It takes\n"
"positional arguments only.");

static PyObject *
witness(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *relations, *watch, *result = NULL, *table;
    Search w = {0};
    int *rels = NULL, *pair = NULL, max_points, points;
    long long max_nodes;
    Py_ssize_t n_words, cells;

    if (!PyArg_ParseTuple(args, "iOOiL:witness", &w.width, &relations, &watch,
                          &max_points, &max_nodes))
        return NULL;
    if (max_points < 1 || max_points > 256)
        return PyErr_Format(PyExc_ValueError, "max_points must be 1 to 256, got %d",
                            max_points);
    if (max_nodes < 0)
        return PyErr_Format(PyExc_ValueError, "max_nodes must be non-negative, got %lld",
                            max_nodes);
    if ((n_words = relation_words(relations, w.width, &rels)) < 0
        || watch_words(watch, w.width, &pair) < 0)
        goto done;
    cells = (Py_ssize_t)max_points * w.width;
    if ((w.table = grow(NULL, cells, sizeof(int))) == NULL
        || (w.trail = grow(NULL, cells, sizeof(Py_ssize_t))) == NULL
        || (w.stack = grow(NULL, cells, sizeof(Choice))) == NULL
        || index_holding(&w, rels, n_words / 2) < 0)
        goto done;
    memset(w.table, 0xFF, (size_t)cells * sizeof(int));

    points = search(&w, max_points, max_nodes, pair);
    table = points > 0
        ? PyBytes_FromStringAndSize((const char *)w.table,
                                    (Py_ssize_t)points * w.width * (Py_ssize_t)sizeof(int))
        : Py_NewRef(Py_None);
    if (table != NULL)
        result = Py_BuildValue("NL", table, w.nodes);
done:
    PyMem_Free(rels);
    PyMem_Free(pair);
    PyMem_Free(w.table);
    PyMem_Free(w.trail);
    PyMem_Free(w.stack);
    PyMem_Free(w.holding);
    PyMem_Free(w.first);
    return result;
}

/* ---- Monoid closure and Green's classes ---- */

/* a key has at most 256 bytes, hashed as zero-padded 64-bit words */
#define KEY_WORDS 32
#define NO_RECORD (-1)

static uint64_t
hash_words(const uint64_t *p, Py_ssize_t n)
{
    uint64_t h = (uint64_t)n;
    Py_ssize_t i;
    for (i = 0; i < n; i++)
        h = (h ^ p[i]) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 32;
    h *= 0xD6E8FEB86659FD93ULL;
    return h ^ (h >> 32);
}

/* Distinct records of len bytes, numbered in order of first occurrence
   and found through an open-addressing hash table.  The arrays double
   up to limit records and no further, as run's new_class does, and the
   slots stay at least twice the records the arrays hold. */
typedef struct {
    Py_ssize_t len;       /* bytes per record */
    Py_ssize_t count;     /* records numbered */
    Py_ssize_t cap;       /* records the arrays hold */
    Py_ssize_t limit;     /* records it may number, at most INT_MAX */
    unsigned char *recs;  /* record i at i * len */
    uint64_t *hashes;     /* the hash of record i */
    int *slots;           /* record numbers, NO_RECORD where empty */
    size_t mask;          /* slots has mask + 1 entries, a power of two */
} Records;

/* Grow the arrays to cap records and the slots to match, putting every
   record back: 0, or -1 with MemoryError. */
static int
records_grow(Records *t, Py_ssize_t cap)
{
    size_t size = 2, i;
    Py_ssize_t e;
    int *slots;
    void *p;
    while (size < 2 * (size_t)cap)
        size *= 2;
    if ((p = grow(t->recs, cap, (size_t)t->len)) == NULL)
        return -1;
    t->recs = p;
    if ((p = grow(t->hashes, cap, sizeof(uint64_t))) == NULL)
        return -1;
    t->hashes = p;
    t->cap = cap;
    if ((slots = grow(NULL, (Py_ssize_t)size, sizeof(int))) == NULL)
        return -1;
    memset(slots, 0xFF, size * sizeof(int));
    PyMem_Free(t->slots);
    t->slots = slots;
    t->mask = size - 1;
    for (e = 0; e < t->count; e++) {
        for (i = (size_t)t->hashes[e] & t->mask; slots[i] != NO_RECORD;
             i = (i + 1) & t->mask)
            ;
        slots[i] = (int)e;
    }
    return 0;
}

/* An empty table, t zeroed, holding up to limit records: 0, or -1 with
   MemoryError. */
static int
records_init(Records *t, Py_ssize_t len, Py_ssize_t limit)
{
    t->len = len;
    t->limit = limit < INT_MAX ? limit : INT_MAX;
    return records_grow(t, t->limit < 1024 ? t->limit : 1024);
}

static void
records_free(Records *t)
{
    PyMem_Free(t->recs);
    PyMem_Free(t->hashes);
    PyMem_Free(t->slots);
}

/* The number of the record, len bytes at rec zero-padded to whole
   words; CAPPED when it is new and limit records are numbered; FAILED
   with MemoryError. */
static inline int
intern(Records *t, const uint64_t *rec)
{
    uint64_t h = hash_words(rec, (t->len + 7) / 8);
    size_t i;
    int e;
    if (t->count == t->cap && t->cap < t->limit
        && records_grow(t, t->cap < t->limit / 2 ? 2 * t->cap : t->limit) < 0)
        return FAILED;
    for (i = (size_t)h & t->mask; (e = t->slots[i]) != NO_RECORD;
         i = (i + 1) & t->mask)
        if (t->hashes[e] == h
            && memcmp(t->recs + (size_t)e * t->len, rec, (size_t)t->len) == 0)
            return e;
    if (t->count == t->cap)  /* and so cap == limit */
        return CAPPED;
    e = (int)t->count++;
    memcpy(t->recs + (size_t)e * t->len, rec, (size_t)t->len);
    t->hashes[e] = h;
    t->slots[i] = e;
    return e;
}

/* The number of keys of degree + 1 bytes that fill len bytes, or -1
   with ValueError when the degree is outside 1..255 or len is not a
   multiple of degree + 1. */
static Py_ssize_t
count_keys(Py_ssize_t degree, Py_ssize_t len)
{
    if (degree < 1 || degree > 255)
        PyErr_Format(PyExc_ValueError, "degree must be 1 to 255, got %zd", degree);
    else if (len % (degree + 1) != 0)
        PyErr_Format(PyExc_ValueError, "%zd bytes are not whole keys of %zd bytes",
                     len, degree + 1);
    else
        return len / (degree + 1);
    return -1;
}

/* The closure proper, its elements the records of t and its right
   table in *rows_out, grown as rows are written: 1 when complete, 0 when
   capped, -1 on error. */
static int
close_elements(Records *t, int **rows_out, Py_ssize_t n_gens,
               unsigned char (*tables)[256])
{
    /* product's bytes beyond the key stay 0, so it hashes as whole words */
    uint64_t product_words[KEY_WORDS] = {0};
    unsigned char *product = (unsigned char *)product_words, current[256];
    Py_ssize_t rows_cap = 0, pos, k, p;
    int *rows = NULL, e, rc = -1;

    for (p = 0; p < t->len; p++)
        product[p] = (unsigned char)p;
    if (intern(t, product_words) < 0)  /* limit >= 1: FAILED only */
        goto done;
    for (pos = 0; pos < t->count; pos++) {
        if (pos == rows_cap) {
            int *q;
            rows_cap = 0 < rows_cap && rows_cap < t->cap / 2 ? 2 * rows_cap : t->cap;
            if ((q = grow(rows, rows_cap, (size_t)n_gens * sizeof(int))) == NULL)
                goto done;
            rows = q;
        }
        /* a copy: numbering a record may move the records */
        memcpy(current, t->recs + (size_t)pos * t->len, (size_t)t->len);
        for (k = 0; k < n_gens; k++) {
            const unsigned char *table = tables[k];
            for (p = 0; p < t->len; p++)
                product[p] = table[current[p]];
            if ((e = intern(t, product_words)) < 0) {
                rc = e == CAPPED ? 0 : -1;
                goto done;
            }
            rows[pos * n_gens + k] = e;
        }
    }
    rc = 1;
done:
    *rows_out = rows;
    return rc;
}

PyDoc_STRVAR(close_doc,
"close(degree, gen_keys, max_elements, /)\n"
"--\n\n"
"Breadth-first closure of the identity under right products.\n\n"
"Same contract as _tc_py.close: gen_keys is a bytes-like buffer of\n"
"keys of degree + 1 bytes end to end, and the result (keys, rows)\n"
"the elements' keys end to end in discovery order and the int32 right\n"
"table, or None when the closure has more than max_elements elements.\n"
"A degree outside 1..255, or a buffer that is not whole keys, raises\n"
"ValueError.");

/* Python's close; the C name close belongs to POSIX. */
static PyObject *
close_monoid(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_ssize_t degree, max_elements, n_gens, k;
    Py_buffer gens;
    PyObject *result = NULL;
    unsigned char (*tables)[256] = NULL;
    Records t = {0};
    int *rows = NULL, rc;

    if (!PyArg_ParseTuple(args, "ny*n:close", &degree, &gens, &max_elements))
        return NULL;
    if ((n_gens = count_keys(degree, gens.len)) < 0
        || (tables = grow(NULL, n_gens, 256)) == NULL)
        goto done;
    for (k = 0; k < n_gens; k++) {
        memset(tables[k], 0, 256);
        memcpy(tables[k], (const unsigned char *)gens.buf + k * (degree + 1),
               (size_t)degree + 1);
    }
    /* the identity is kept whatever the cap */
    if (records_init(&t, degree + 1, max_elements > 1 ? max_elements : 1) < 0)
        goto done;

    rc = close_elements(&t, &rows, n_gens, tables);
    if (rc == 1)  /* rows is allocated: the identity has a row */
        result = Py_BuildValue("y#y#", (const char *)t.recs, t.count * t.len,
                               (const char *)rows,
                               t.count * n_gens * (Py_ssize_t)sizeof(int));
    else if (rc == 0 && max_elements > t.limit)
        PyErr_SetString(PyExc_OverflowError, "closure beyond 2**31 - 1 elements");
    else if (rc == 0)
        result = Py_NewRef(Py_None);
done:
    PyBuffer_Release(&gens);
    PyMem_Free(tables);
    PyMem_Free(rows);
    records_free(&t);
    return result;
}

/* The numbers of R-, L-, H- and D-classes of the n keys end to end at
   keys, in counts[0..4), from one pass over the keys: 0, or -1 with
   MemoryError. */
static int
green_counts(const unsigned char *keys, Py_ssize_t n, Py_ssize_t key_len,
             Py_ssize_t *counts)
{
    Py_ssize_t i, p, joins = 0;
    int *root = grow(NULL, n, sizeof(int)), *meets = grow(NULL, n, sizeof(int));
    int r, l, a, b, rc = -1;
    Records dom = {0}, im = {0}, pairs = {0};
    if (root == NULL || meets == NULL
        || records_init(&dom, 4 * sizeof(uint64_t), n) < 0
        || records_init(&im, 4 * sizeof(uint64_t), n) < 0
        || records_init(&pairs, sizeof(uint64_t), n) < 0)
        goto done;
    /* a union-find over the R-classes, and an R-class each L-class meets */
    for (i = 0; i < n; i++)
        root[i] = (int)i, meets[i] = NO_RECORD;
    /* n records at most, so no intern is CAPPED */
    for (i = 0; i < n; i++) {
        const unsigned char *key = keys + i * key_len;
        uint64_t dom_mask[4] = {0}, im_mask[4] = {0}, pair;
        for (p = 0; p < key_len; p++) {
            dom_mask[p >> 6] |= (uint64_t)(key[p] != 0) << (p & 63);
            im_mask[key[p] >> 6] |= (uint64_t)1 << (key[p] & 63);
        }
        if ((r = intern(&dom, dom_mask)) < 0 || (l = intern(&im, im_mask)) < 0)
            goto done;
        pair = (uint64_t)r << 32 | (uint64_t)l;
        if (intern(&pairs, &pair) < 0)
            goto done;
        /* D joins the key's R-class with the first one its L-class met */
        if (meets[l] == NO_RECORD)
            meets[l] = r;
        if ((a = find(root, r)) != (b = find(root, meets[l])))
            root[a] = b, joins++;
    }
    counts[0] = dom.count;
    counts[1] = im.count;
    counts[2] = pairs.count;
    counts[3] = dom.count - joins;  /* the roots */
    rc = 0;
done:
    records_free(&dom);
    records_free(&im);
    records_free(&pairs);
    PyMem_Free(root);
    PyMem_Free(meets);
    return rc;
}

PyDoc_STRVAR(green_doc,
"green(degree, keys, /)\n"
"--\n\n"
"The numbers of Green's R-, L-, H- and D-classes of an inverse monoid.\n\n"
"Same contract as _tc_py.green: keys is a bytes-like buffer of keys\n"
"of degree + 1 bytes end to end, and the result (r, l, h, d) the four\n"
"class counts, from one pass over the keys.  A degree outside 1..255,\n"
"or a buffer that is not whole keys, raises ValueError.");

static PyObject *
green(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer keys;
    PyObject *result = NULL;
    Py_ssize_t n, degree, counts[4];

    if (!PyArg_ParseTuple(args, "ny*:green", &degree, &keys))
        return NULL;
    if ((n = count_keys(degree, keys.len)) >= 0
        && green_counts(keys.buf, n, degree + 1, counts) == 0)
        result = Py_BuildValue("nnnn", counts[0], counts[1], counts[2], counts[3]);
    PyBuffer_Release(&keys);
    return result;
}

static PyMethodDef methods[] = {
    {"run", run, METH_VARARGS, run_doc},
    {"close", close_monoid, METH_VARARGS, close_doc},
    {"green", green, METH_VARARGS, green_doc},
    {"witness", witness, METH_VARARGS, witness_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_tc_core",
    "Compiled kernels: run, witness, close and green; see dimon._tc_py.", -1, methods,
    NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC
PyInit__tc_core(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddIntConstant(m, "STATUS_COMPLETE", STATUS_COMPLETE) < 0
        || PyModule_AddIntConstant(m, "STATUS_CAPPED", STATUS_CAPPED) < 0
        || PyModule_AddIntConstant(m, "STATUS_WATCH_MERGED",
                                   STATUS_WATCH_MERGED) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
