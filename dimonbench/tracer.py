"""Per-layer spans and counters, recorded from outside the dimon package.

The tracer replaces module attributes with wrappers at the names where
dimon looks them up (``dimon.congruence.verify_generates`` as well as
``dimon.monoids.verify_generates``), so a call is seen whichever module
makes it.  Wrappers return what the wrapped function returns, unchanged.
A name that no longer exists is reported as an absent layer instead of
failing the run.

Spans nest: a span's self time is its duration minus the time covered
by the spans opened inside it, and the self time is credited to the
span's metric.  Counters are updated at the same boundaries, from the
calls and their return values.
"""

import functools
import importlib
import time

# (module, attribute, metric that receives the span's self time)
SPANS = (
    ("dimon.presentations", "build_relations", "presentations.build_s"),
    ("dimon.presentations", "build_assignment", "presentations.build_s"),
    ("dimon.presentations", "build_forms", "presentations.build_s"),
    ("dimon.presentations", "delete_relation", "presentations.build_s"),
    ("dimon.presentations", "check_relations_hold", "presentations.check_s"),
    ("dimon.congruence", "check_relations_hold", "presentations.check_s"),
    ("dimon.monoids", "build_named", "monoids.closure_s"),
    ("dimon.monoids", "closure", "monoids.closure_s"),
    ("dimon.monoids", "verify_generates", "monoids.generates_s"),
    ("dimon.congruence", "verify_generates", "monoids.generates_s"),
    ("dimon.monoids", "green_classes", "monoids.green_s"),
    ("dimon.congruence", "enumerate_congruence", "congruence.enumerate_self_s"),
    ("dimon.congruence", "verify_presentation", "congruence.verify_self_s"),
    ("dimon.congruence", "verify_forms_set", "congruence.forms_self_s"),
    ("dimon.congruence", "is_consequence", "congruence.consequence_self_s"),
    ("dimon.congruence", "normal_forms", "congruence.normal_forms_s"),
    ("dimon.congruence._kernel", "run", "congruence.kernel_s"),
)

# spans whose calls are counted, whether they return or raise
CALLS = {
    "run": "congruence.kernel_calls",
    "closure": "monoids.closure_calls",
}

# names wrapped with a call counter only: they run per element, and a
# span there would cost more than the work it measures
COUNTED = (
    ("dimon.monoids", "compose", "iperm.compose_calls"),
    ("dimon.presentations", "compose", "iperm.compose_calls"),
)

TIMES = sorted({metric for _, _, metric in SPANS})
COUNTS = (
    "congruence.kernel_calls",
    "congruence.classes_final",
    "congruence.kernel_capped",
    "congruence.kernel_watch_merged",
    "monoids.closure_calls",
    "monoids.elements_built",
    "monoids.target_elements",
    "iperm.compose_calls",
)


def _resolve(path):
    """The object at a dotted path of modules and attributes, or None."""
    head, _, rest = path.partition(".")
    try:
        obj = importlib.import_module(head)
    except ImportError:
        return None
    for part in rest.split(".") if rest else ():
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """Installs wrappers, accumulates self times and counts, restores."""

    def __init__(self):
        self.absent = []
        self._patched = []
        self._stack = []
        self.times = {}
        self.counts = {}
        self.reset()

    def reset(self):
        # zeroed in place: the wrappers hold these dicts
        self.times.update(dict.fromkeys(TIMES, 0.0))
        self.counts.update(dict.fromkeys(COUNTS, 0))

    def install(self):
        for module, attr, metric in SPANS:
            self._patch(module, attr, lambda f, m=metric, a=attr: self._span(f, m, a))
        for module, attr, metric in COUNTED:
            self._patch(module, attr, lambda f, m=metric: self._counter(f, m))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.absent.clear()

    def _patch(self, module, attr, make_wrapper):
        owner = _resolve(module)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.absent.append(f"{module}.{attr}")
            return
        setattr(owner, attr, make_wrapper(original))
        self._patched.append((owner, attr, original))

    def _counter(self, fn, metric):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, fn, metric, attr):
        observe = getattr(self, f"_observe_{attr}", None)
        calls = CALLS.get(attr)
        kernel = _resolve("dimon.congruence._kernel")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls is not None:
                self.counts[calls] += 1
            frame = [0.0]  # time covered by child spans
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.times[metric] += elapsed - frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if observe is not None:
                observe(result, kernel)
            return result

        return wrapper

    def _observe_run(self, result, kernel):
        c = self.counts
        try:
            status, table = result[0], result[1]
        except (TypeError, IndexError, KeyError):
            return
        if status == getattr(kernel, "STATUS_CAPPED", None):
            c["congruence.kernel_capped"] += 1
        elif status == getattr(kernel, "STATUS_WATCH_MERGED", None):
            c["congruence.kernel_watch_merged"] += 1
        elif table is not None:
            c["congruence.classes_final"] += len(table)

    def _observe_closure(self, result, kernel):
        self.counts["monoids.elements_built"] += getattr(result, "size", 0)

    def _observe_build_named(self, result, kernel):
        self.counts["monoids.target_elements"] += getattr(result, "size", 0)
