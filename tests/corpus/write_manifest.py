"""Write manifest.json: one sha256 per CLI call over its exit code, stdout,
stderr and ``--out`` bytes, and the Python and numpy minor versions it ran on.
After a change that moves output bytes on purpose, rerun it from the repository
root, ``PYTHONPATH=src python tests/corpus/write_manifest.py``, and list the
entries that moved in CHANGES.md.

calls.list is also the one list of the CLI's refusals. A call there that exits
non-zero with the CLI's own message is followed by a ``#> <exit code> <stderr
line>`` line, which ``refusals()`` reads; the writer skips it as it skips every
``#`` line, so no hash depends on it. A call that argparse refuses needs none:
its stderr starts with ``usage:``, in the interpreter's own wording."""
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from qcontain.cli import main

CORPUS = Path(__file__).resolve().parent
README = CORPUS.parents[1] / "README.md"
INSTANCES = sorted(path.name for path in CORPUS.glob("*.txt"))
PLATFORM = {"python": "%d.%d" % sys.version_info[:2], "numpy": ".".join(np.__version__.split(".")[:2])}


def run_calls(lines: list[str]) -> list[tuple]:
    """Each call's (exit code, stdout, stderr, ``--out`` bytes or None), run in turn in a
    temporary directory that holds the instance texts."""
    home, results = os.getcwd(), []
    with tempfile.TemporaryDirectory() as tmp:
        for name in INSTANCES:
            shutil.copy(CORPUS / name, tmp)
        os.chdir(tmp)
        try:
            for argv in map(str.split, lines):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse's usage errors
                        code = exc.code
                path = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
                data = path.read_bytes() if path and path.is_file() else None
                if data is not None:  # the next call reads the committed text, if any
                    path.unlink()
                    if path.name in INSTANCES:
                        shutil.copy(CORPUS / path.name, path)
                results.append((code, out.getvalue(), err.getvalue(), data))
        finally:
            os.chdir(home)
    return results


def hash_calls(results: list[tuple]) -> list[str]:
    """The sha256 of each of ``run_calls``'s results."""
    return [hashlib.sha256(repr(result).encode()).hexdigest() for result in results]


def readme_calls() -> list[str]:
    """The ``qcontain ...`` lines of README's CLI block, in order, without the program name."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.removeprefix("qcontain ") for line in block.splitlines() if line.startswith("qcontain ")]


def _listed() -> list[str]:
    return (CORPUS / "calls.list").read_text(encoding="utf-8").splitlines()


def listed_calls() -> list[str]:
    """The calls of calls.list, in order."""
    return [line for line in _listed() if line and line[0] != "#"]


def refusals() -> dict[str, tuple[int, str]]:
    """Each call of calls.list that a ``#> <code> <line>`` line follows: its exit code and
    the one line it writes to stderr, in order."""
    lines, found = _listed(), {}
    for call, note in zip(lines, lines[1:]):
        if note.startswith("#> "):
            _, code, line = note.split(" ", 2)
            found[call] = (int(code), line)
    return found


def calls() -> list[str]:
    """Every call the manifest pins, once each, in order: contain with every estimator,
    finder, strategy and k_max on three instances, estimate with every method on every
    instance, then each call in calls.list, then README's CLI block."""
    estimators = ["exact", "mc --trials 500", "qae --epsilon 0.3", "qae --epsilon 0.3 --analytic"]
    lines = [f"contain --instance {inst} --estimator {est} --finder {finder} --strategy {strategy} "
             f"--k-max {k_max} --rng 3 --out out.csv"
             for inst in ["inst.txt", "undirected.txt", "p01_directed.txt"] for est in estimators
             for finder in ["linear", "gmf"] for strategy in ["all", "frontier", "top_p"]
             for k_max in [0, 3]]
    lines += [f"estimate --instance {inst} --method {est} --rng 3 --out out.csv"
              for inst in INSTANCES for est in estimators]
    lines += listed_calls()
    return list(dict.fromkeys(lines + readme_calls()))


if __name__ == "__main__":
    lines = calls()
    manifest = {**PLATFORM, "entries": dict(zip(lines, hash_calls(run_calls(lines))))}
    (CORPUS / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
