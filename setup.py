"""Build hook for the optional compiled kernels.

``dimon._tc_core`` (congruence enumeration, monoid closure and Green's
classes) is compiled from the hand-written C source
``src/dimon/_tc_core.c`` with the C compiler and the Python headers; no
code generator is involved.  The extension is optional: when it fails
to build the package still installs, and dimon.monoids falls back to
the pure-Python kernels in dimon._tc_py.  ``dimon.BACKEND`` says which
kernel module is active.

    python setup.py build_ext --inplace

Every build compiles the C source, so an object file left under
``build/`` is never linked in place of an edited ``_tc_core.c``.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("dimon._tc_core", ["src/dimon/_tc_core.c"], optional=True)
    ],
    options={"build_ext": {"force": True}},
)
