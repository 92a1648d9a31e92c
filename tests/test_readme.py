"""The README's examples, run so they cannot go stale: the Python ones as
doctests, the `$ ` command lines of its sh blocks as shell sessions."""

import doctest
import os
import pathlib
import re
import shlex
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_python_examples():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failed == 0


def readme_sessions():
    """(command, shown output) for each `$ ` line of the README's sh blocks.

    A command continues over lines that end in a backslash; its output is
    the lines after it up to a blank line or the next command.
    """
    sessions = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        current = None
        for line in block.splitlines():
            if line.startswith("$ "):
                current = [line[2:], []]
                sessions.append(current)
            elif not line.strip():
                current = None
            elif current is not None:
                command, shown = current
                if not shown and command.endswith("\\"):
                    current[0] = command[:-1] + line
                else:
                    shown.append(line)
    return [(command, "".join(line + "\n" for line in shown)) for command, shown in sessions]


def test_readme_cli_examples(tmp_path):
    """Each command, run in order in one directory, prints what is shown."""
    sessions = readme_sessions()
    assert len(sessions) >= 9
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    programs = {"dimon": [sys.executable, "-m", "dimon.cli"], "python3": [sys.executable]}
    for command, shown in sessions:
        program, *args = shlex.split(command)
        done = subprocess.run(programs[program] + args, cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert done.stdout == shown, (command, done.stderr[-2000:])
