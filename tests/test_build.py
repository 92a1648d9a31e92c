"""The shipped generated kernel source against the Cython source it came from."""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "dimon"
MARK = "# <<<<<<<<<<<<<<"
BLOCK = re.compile(r'/\* "dimon/_tc_core\.pyx":(\d+)\n(.*?)\*/', re.S)


def test_generated_c_matches_pyx():
    """Every source line Cython quoted in _tc_core.c is that line of the .pyx.

    Cython opens a comment per statement with the .pyx line number and
    quotes the surrounding source, marking the statement's own line.  A
    .pyx edited without regenerating the .c fails here.
    """
    pyx = (SRC / "_tc_core.pyx").read_text().splitlines()
    blocks = BLOCK.findall((SRC / "_tc_core.c").read_text())
    assert blocks
    for lineno, body in blocks:
        marked = [line for line in body.splitlines() if line.endswith(MARK)]
        assert len(marked) == 1, f"block for line {lineno}: {marked}"
        quoted = marked[0][len(" * "):-len(MARK)].rstrip()
        assert quoted == pyx[int(lineno) - 1].rstrip(), f"line {lineno}"
