"""Build hook for the optional compiled congruence kernel.

``dimon._tc_core`` is compiled from the shipped ``src/dimon/_tc_core.c``
with the C compiler and the Python headers; Cython is not needed.  The
extension is optional: when it fails to build the package still installs,
and dimon.congruence falls back to the pure-Python kernel in dimon._tc_py.
``dimon.congruence.BACKEND`` says which kernel is active.

The ``.c`` file is Cython's output for ``src/dimon/_tc_core.pyx``, whose
header carries the compiler directives.  After editing the ``.pyx``,
regenerate it with Cython 3 and commit both:

    cython src/dimon/_tc_core.pyx

``tests/test_build.py`` fails while the ``.c`` is stale.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("dimon._tc_core", ["src/dimon/_tc_core.c"], optional=True)
    ]
)
