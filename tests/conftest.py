"""Fixtures shared by the tests of the kernels.

compiled_kernel compiles _tc_core.c with -Wextra -Werror and loads it;
kernel gives each kernel module in turn.  A checkout whose extension was
not built in place imports the pure backend, so these fixtures are what
exercises the compiled run, witness, close and green there.
"""

import importlib.util
import os
import pathlib
import shutil
import subprocess
import sys
import sysconfig

import pytest

from dimon import _tc_py

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The kernels that setup.py compiles from the hand-written _tc_core.c.

    It is built into a temporary directory and loaded from there, so the
    tests run it on a fresh checkout and write nothing under src/.
    """
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    headers = pathlib.Path(sysconfig.get_paths()["include"], "Python.h")
    if shutil.which(cc) is None or not headers.is_file():
        pytest.skip("no C compiler or no Python headers to build the compiled kernel")
    out = tmp_path_factory.mktemp("tc_core")
    # -Wextra -Werror join Python's own warning flags: a compiler warning fails
    cflags = f"{os.environ.get('CFLAGS', '')} -Wextra -Werror".strip()
    done = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "CFLAGS": cflags},
    )
    built = sorted((out / "lib" / "dimon").glob("_tc_core*"))
    if not built:
        pytest.fail(f"setup.py built no kernel:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    spec = importlib.util.spec_from_file_location("dimon._tc_core", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["pure", "compiled"])
def kernel(request):
    """Each kernel module in turn: _tc_py, then the compiled one."""
    if request.param == "pure":
        return _tc_py
    return request.getfixturevalue("compiled_kernel")
