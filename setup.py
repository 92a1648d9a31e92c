"""Build hook for the optional compiled congruence kernel.

``dimon._tc_core`` is compiled from the hand-written C source
``src/dimon/_tc_core.c`` with the C compiler and the Python headers; no
code generator is involved.  The extension is optional: when it fails
to build the package still installs, and dimon.congruence falls back to
the pure-Python kernel in dimon._tc_py.  ``dimon.congruence.BACKEND``
says which kernel is active.

    python setup.py build_ext --inplace
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("dimon._tc_core", ["src/dimon/_tc_core.c"], optional=True)
    ]
)
