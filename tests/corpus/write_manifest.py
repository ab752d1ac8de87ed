"""Write manifest.json: one sha256 per CLI call over its exit code, stdout,
stderr and ``--out`` bytes, and the Python and numpy minor versions it ran on.
After a change that moves output bytes on purpose, rerun it from the repository
root, ``PYTHONPATH=src python tests/corpus/write_manifest.py``, and list the
entries that moved in CHANGES.md."""
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


def hash_calls(lines: list[str]) -> list[str]:
    """Each call's sha256, run in turn in a temporary directory that holds the instance texts."""
    home, digests = os.getcwd(), []
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
                text = repr((code, out.getvalue(), err.getvalue(), data))
                digests.append(hashlib.sha256(text.encode()).hexdigest())
        finally:
            os.chdir(home)
    return digests


def readme_calls() -> list[str]:
    """The ``qcontain ...`` lines of README's CLI block, in order, without the program name."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.removeprefix("qcontain ") for line in block.splitlines() if line.startswith("qcontain ")]


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
    listed = (CORPUS / "calls.list").read_text(encoding="utf-8").splitlines()
    lines += [line for line in listed if line and line[0] != "#"]
    return list(dict.fromkeys(lines + readme_calls()))


if __name__ == "__main__":
    lines = calls()
    manifest = {**PLATFORM, "entries": dict(zip(lines, hash_calls(lines)))}
    (CORPUS / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
