/* Compiled congruence enumeration kernel.

   A step-for-step port of dimon._tc_py.run, written against the CPython
   C API: the same class creation order, the same coincidence handling,
   the same step count and the same renumbering, so both kernels return
   equal (status, table) pairs.  See _tc_py for the procedure, the
   argument that no final sweep is needed, and the status protocol.

   Class ids are C ints and the step count a C long long; run() raises
   OverflowError for a cap beyond either.  Every allocation failure
   raises MemoryError. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
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
    Py_ssize_t cap;       /* classes the parent and table arrays hold */
    long long steps;
    long long max_steps;
    int *parent;          /* union-find forest over class ids */
    int *table;           /* flat, row c starts at c * n_letters */
    int *queue;           /* coincidence pairs, a FIFO ring buffer */
    Py_ssize_t q_head;
    Py_ssize_t q_len;
    Py_ssize_t q_cap;     /* in pairs */
} State;

/* Grow p to hold rows * width ints; on failure p stays valid. */
static int *
resize(int *p, Py_ssize_t rows, int width)
{
    size_t w = width > 0 ? (size_t)width : 1;
    int *q;
    if ((size_t)rows > (size_t)PY_SSIZE_T_MAX / sizeof(int) / w) {
        PyErr_NoMemory();
        return NULL;
    }
    q = PyMem_Realloc(p, (size_t)rows * w * sizeof(int));
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
find(State *s, int c)
{
    while (s->parent[c] != c) {
        s->parent[c] = s->parent[s->parent[c]];
        c = s->parent[c];
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
        if ((p = resize(s->parent, cap, 1)) == NULL)
            return FAILED;
        s->parent = p;
        if ((p = resize(s->table, cap, s->n_letters)) == NULL)
            return FAILED;
        s->table = p;
        s->cap = cap;
    }
    s->parent[cid] = cid;
    memset(row(s, cid), 0xFF, (size_t)s->n_letters * sizeof(int));
    s->n_classes = cid + 1;
    return cid;
}

static int
q_push(State *s, int a, int b)
{
    Py_ssize_t slot;
    if (s->q_len == s->q_cap) {
        int *q = resize(s->queue, 4 * s->q_cap, 1);
        if (q == NULL)
            return -1;
        /* unwrap: the pairs in front of the head move behind the old end */
        memcpy(q + 2 * s->q_cap, q, (size_t)(2 * s->q_head) * sizeof(int));
        s->queue = q;
        s->q_cap *= 2;
    }
    slot = 2 * ((s->q_head + s->q_len) % s->q_cap);
    s->queue[slot] = a;
    s->queue[slot + 1] = b;
    s->q_len++;
    return 0;
}

/* Follow word from class c, defining a new class at each missing edge. */
static int
trace_define(State *s, int c, const int *word, Py_ssize_t len)
{
    Py_ssize_t i;
    for (i = 0; i < len; i++) {
        int t;
        s->steps++;
        t = row(s, c)[word[i]];
        if (t == UNDEF) {
            t = new_class(s);
            if (t < 0)
                return t;
            row(s, c)[word[i]] = t;
        }
        else {
            t = find(s, t);
        }
        c = t;
    }
    return c;
}

/* Merge classes a and b and every pair of classes that follows. */
static int
coincide(State *s, int a, int b)
{
    if (q_push(s, a, b) < 0)
        return -1;
    while (s->q_len > 0) {
        int u = find(s, s->queue[2 * s->q_head]);
        int v = find(s, s->queue[2 * s->q_head + 1]);
        int k, *row_u, *row_v;
        s->q_head = (s->q_head + 1) % s->q_cap;
        s->q_len--;
        if (u == v)
            continue;
        if (v < u) {
            int w = u;
            u = v;
            v = w;
        }
        /* smaller id survives, so class 0 is never displaced */
        s->parent[v] = u;
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
                int fs = find(s, row_u[k]);
                int ft = find(s, t);
                if (fs != ft && q_push(s, fs, ft) < 0)
                    return -1;
            }
        }
    }
    return 0;
}

/* Apply the relation lhs = rhs at class c: 0, CAPPED or FAILED. */
static int
scan(State *s, int c, const int *lhs, Py_ssize_t llen,
     const int *rhs, Py_ssize_t rlen)
{
    int p, d, t, last;
    p = trace_define(s, c, lhs, llen);
    if (p < 0)
        return p;
    if (rlen == 0) {
        int q = find(s, c);
        return q != p && coincide(s, p, q) < 0 ? FAILED : 0;
    }
    d = trace_define(s, find(s, c), rhs, rlen - 1);
    if (d < 0)
        return d;
    last = rhs[rlen - 1];
    s->steps++;
    t = row(s, d)[last];
    if (t == UNDEF) {
        row(s, d)[last] = p;
        return 0;
    }
    t = find(s, t);
    return t != p && coincide(s, t, p) < 0 ? FAILED : 0;
}

/* Every word end to end, with word i at ids[bounds[i]:bounds[i + 1]]. */
typedef struct {
    int *ids;
    Py_ssize_t len;
    Py_ssize_t cap;
    Py_ssize_t *bounds;
    Py_ssize_t n_words;
} Words;

static const int *
word(const Words *w, Py_ssize_t i, Py_ssize_t *len)
{
    *len = w->bounds[i + 1] - w->bounds[i];
    return w->ids + w->bounds[i];
}

/* Append one word, checking that each letter id is in range(n_letters). */
static int
add_word(Words *w, PyObject *obj, int n_letters)
{
    PyObject *seq = PySequence_Tuple(obj);
    Py_ssize_t n, i;
    if (seq == NULL)
        return -1;
    n = PyTuple_GET_SIZE(seq);
    if (w->len + n > w->cap) {
        Py_ssize_t cap = 2 * w->cap > w->len + n ? 2 * w->cap : w->len + n;
        int *ids = resize(w->ids, cap, 1);
        if (ids == NULL)
            goto error;
        w->ids = ids;
        w->cap = cap;
    }
    for (i = 0; i < n; i++) {
        PyObject *item = PyTuple_GET_ITEM(seq, i);
        int overflow;
        long a = PyLong_AsLongAndOverflow(item, &overflow);
        if (a == -1 && !overflow && PyErr_Occurred())
            goto error;
        if (overflow || a < 0 || a >= n_letters) {
            PyErr_Format(PyExc_ValueError, "letter id %R is not in range(%d)",
                         item, n_letters);
            goto error;
        }
        w->ids[w->len++] = (int)a;
    }
    w->bounds[++w->n_words] = w->len;
    Py_DECREF(seq);
    return 0;
error:
    Py_DECREF(seq);
    return -1;
}

/* Append both words of an (lhs, rhs) pair. */
static int
add_pair(Words *w, PyObject *obj, int n_letters)
{
    PyObject *pair = PySequence_Tuple(obj);
    int rc = -1;
    if (pair == NULL)
        return -1;
    if (PyTuple_GET_SIZE(pair) != 2)
        PyErr_Format(PyExc_ValueError,
                     "expected an (lhs, rhs) pair of words, got %zd items",
                     PyTuple_GET_SIZE(pair));
    else if (add_word(w, PyTuple_GET_ITEM(pair, 0), n_letters) == 0
             && add_word(w, PyTuple_GET_ITEM(pair, 1), n_letters) == 0)
        rc = 0;
    Py_DECREF(pair);
    return rc;
}

static int
watch_merged(State *s, int w1, int w2)
{
    return w1 != UNDEF && find(s, w1) == find(s, w2);
}

/* The enumeration proper: a status, or FAILED.  Words 2r and 2r + 1 are
   relation r; words 2 n_rels and 2 n_rels + 1, when present, the watch.
   Only scans merge classes, so the watch is checked after each one. */
static int
enumerate(State *s, const Words *w, Py_ssize_t n_rels)
{
    const int *lhs, *rhs;
    Py_ssize_t llen, rlen, r;
    int c_idx, k, rc, w1 = UNDEF, w2 = UNDEF;
    if (w->n_words > 2 * n_rels) {
        lhs = word(w, 2 * n_rels, &llen);
        rhs = word(w, 2 * n_rels + 1, &rlen);
        if ((w1 = trace_define(s, 0, lhs, llen)) < 0)
            return w1 == CAPPED ? STATUS_CAPPED : FAILED;
        if ((w2 = trace_define(s, find(s, 0), rhs, rlen)) < 0)
            return w2 == CAPPED ? STATUS_CAPPED : FAILED;
        if (watch_merged(s, w1, w2))
            return STATUS_WATCH_MERGED;
    }
    for (c_idx = 0; c_idx < s->n_classes; c_idx++) {
        if (s->steps > s->max_steps)
            return STATUS_CAPPED;
        if (find(s, c_idx) != c_idx)
            continue;
        for (r = 0; r < n_rels; r++) {
            lhs = word(w, 2 * r, &llen);
            rhs = word(w, 2 * r + 1, &rlen);
            rc = scan(s, find(s, c_idx), lhs, llen, rhs, rlen);
            if (rc < 0)
                return rc == CAPPED ? STATUS_CAPPED : FAILED;
            if (watch_merged(s, w1, w2))
                return STATUS_WATCH_MERGED;
        }
        if (find(s, c_idx) == c_idx) {
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

/* The live classes' rows as tuples, classes renumbered in id order. */
static PyObject *
dense_table(State *s)
{
    PyObject *out = NULL, *r;
    int *renum = resize(NULL, s->n_classes, 1);
    int c, k, live = 0;
    if (renum == NULL)
        return NULL;
    for (c = 0; c < s->n_classes; c++)
        renum[c] = find(s, c) == c ? live++ : UNDEF;
    if ((out = PyTuple_New(live)) == NULL)
        goto done;
    for (c = 0; c < s->n_classes; c++) {
        if (renum[c] == UNDEF)
            continue;
        if ((r = PyTuple_New(s->n_letters)) == NULL)
            goto fail;
        PyTuple_SET_ITEM(out, renum[c], r);
        for (k = 0; k < s->n_letters; k++) {
            PyObject *t = PyLong_FromLong(renum[find(s, row(s, c)[k])]);
            if (t == NULL)
                goto fail;
            PyTuple_SET_ITEM(r, k, t);
        }
    }
    goto done;
fail:
    Py_CLEAR(out);
done:
    PyMem_Free(renum);
    return out;
}

PyDoc_STRVAR(run_doc,
"run(n_letters, relations, max_classes, max_steps, watch=None)\n"
"--\n\n"
"Enumerate the classes of the two-sided congruence.\n\n"
"Same contract as _tc_py.run: relations are (lhs, rhs) pairs of\n"
"letter-id words, watch is an optional pair of words, and the result\n"
"is (status, table), the table a tuple of tuple rows when status is\n"
"0 and None otherwise.  Status 0 with a watch means the pair is in\n"
"two classes: the watch is checked after every scan, and only scans\n"
"merge classes.  A letter id outside range(n_letters) raises\n"
"ValueError.");

static PyObject *
run(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {
        "n_letters", "relations", "max_classes", "max_steps", "watch", NULL};
    PyObject *relations, *watch = Py_None, *rels, *result = NULL;
    State s = {0};
    Words w = {0};
    Py_ssize_t n_rels, r;
    int status;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOiL|O:run", keywords,
                                     &s.n_letters, &relations, &s.max_classes,
                                     &s.max_steps, &watch))
        return NULL;
    if (s.n_letters < 0)
        return PyErr_Format(PyExc_ValueError,
                            "n_letters must be non-negative, got %d", s.n_letters);
    if ((rels = PySequence_Tuple(relations)) == NULL)
        return NULL;
    n_rels = PyTuple_GET_SIZE(rels);
    w.bounds = PyMem_New(Py_ssize_t, 2 * n_rels + 3);
    if (w.bounds == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    w.bounds[0] = 0;
    w.cap = 64;
    if ((w.ids = resize(NULL, w.cap, 1)) == NULL)
        goto done;
    for (r = 0; r < n_rels; r++)
        if (add_pair(&w, PyTuple_GET_ITEM(rels, r), s.n_letters) < 0)
            goto done;
    if (watch != Py_None && add_pair(&w, watch, s.n_letters) < 0)
        goto done;

    s.cap = 1024;
    s.q_cap = 1024;
    if ((s.parent = resize(NULL, s.cap, 1)) == NULL
        || (s.table = resize(NULL, s.cap, s.n_letters)) == NULL
        || (s.queue = resize(NULL, s.q_cap, 2)) == NULL)
        goto done;
    s.parent[0] = 0;
    memset(row(&s, 0), 0xFF, (size_t)s.n_letters * sizeof(int));
    s.n_classes = 1;

    status = enumerate(&s, &w, n_rels);
    if (status == STATUS_COMPLETE) {
        PyObject *table = dense_table(&s);
        if (table != NULL)
            result = Py_BuildValue("iN", status, table);
    }
    else if (status != FAILED)
        result = Py_BuildValue("iO", status, Py_None);
done:
    Py_DECREF(rels);
    PyMem_Free(w.bounds);
    PyMem_Free(w.ids);
    PyMem_Free(s.parent);
    PyMem_Free(s.table);
    PyMem_Free(s.queue);
    return result;
}

static PyMethodDef methods[] = {
    {"run", (PyCFunction)(void (*)(void))run, METH_VARARGS | METH_KEYWORDS,
     run_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_tc_core",
    "Compiled congruence enumeration kernel; see dimon._tc_py.", -1, methods
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
