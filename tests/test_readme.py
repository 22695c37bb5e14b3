"""README's examples, each run as written in its own process: the library
quickstart, and every ``ltoep`` line through ``python -m ltoeplitz``; and
README's flag table against the parser."""

import argparse
import itertools
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from ltoeplitz.cli import build_arg_parser

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")

# The input files README describes for its CLI examples.
SYM_JSON = '{"coefficients": [{"n": -1, "re": 1.0}, {"n": 1, "re": 1.0}]}'
ANALYTIC_JSON = (
    '{"coefficients": [{"n": 0, "re": 2.0}, {"n": 1, "re": 1.0}, {"n": 3, "im": -0.5}]}'
)
X_CSV = "k,re,im\n" + "".join(f"{k},1,0\n" for k in range(64))


def run_python(*args, cwd=None):
    """``python *args`` in a fresh process that imports the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)], env=env, cwd=cwd, capture_output=True, text=True,
        timeout=120,
    )


def test_readme_library_quickstart_runs():
    section = README.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_readme_cli_lines_run(tmp_path):
    # the symbol files as README prints them; x.csv as it describes it
    assert f"`{SYM_JSON}`" in README and f"`{ANALYTIC_JSON}`" in README
    for name, text in (("sym.json", SYM_JSON), ("analytic.json", ANALYTIC_JSON), ("x.csv", X_CSV)):
        (tmp_path / name).write_text(text)
    statuses = []
    for line in (line for line in README.splitlines() if line.startswith("ltoep ")):
        args = shlex.split(line)[1:]
        proc = run_python("-m", "ltoeplitz", *args, cwd=tmp_path)
        # the documented exit 1: the ramp's growth from 64 to 1024 is below 1.5
        status = 1 if args[:3] == ["sawtooth-demo", "--sizes", "64,1024"] else 0
        assert (proc.returncode, proc.stderr) == (status, ""), line
        statuses.append(status)
        out = args[args.index("--out") + 1] if "--out" in args else ""
        if out.endswith(".csv"):
            header = (tmp_path / out).read_text().split("\n", 1)[0]
            assert re.fullmatch(r"[A-Za-z_]+(,[A-Za-z_]+)+", header), (line, header)
    # both blocks were found: the CLI examples, with their one exit 1, and the experiments
    assert statuses.count(1) == 1 and len(statuses) > 10


def test_readme_flag_table_matches_the_parser():
    """Each row of the flag table lists exactly the option strings the parser
    gives its subcommand, ``-h`` and ``--help`` aside: a cell that is not
    blank documents its column's flags and any it names itself. Every flag a
    column names is documented by some row, so a deleted flag leaves no
    column behind."""
    lines = README.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| command |"))
    table = [line.split("|")[1:-1]
             for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:])]
    header, rows = table[0], table[2:]
    (subparsers,) = (a for a in build_arg_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
    mismatch, documented = {}, set()
    for command, *cells in rows:
        command = command.strip().strip("`")
        table_flags = {flag for head, cell in zip(header[1:], cells) if cell.strip()
                       for flag in re.findall(r"--[a-z-]+", head + cell)}
        parser_flags = {flag for action in subparsers.choices[command]._actions
                        for flag in action.option_strings} - {"-h", "--help"}
        documented |= table_flags
        if table_flags != parser_flags:
            mismatch[command] = {"table only": table_flags - parser_flags,
                                 "parser only": parser_flags - table_flags}
    assert mismatch == {}
    assert [row[0].strip().strip("`") for row in rows] == list(subparsers.choices)
    assert set(re.findall(r"--[a-z-]+", "".join(header))) <= documented
