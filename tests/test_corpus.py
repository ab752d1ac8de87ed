"""The CLI's bytes: every call in tests/corpus/manifest.json hashes as written,
and every refusal in tests/corpus/calls.list prints its one line."""
import json

import pytest

from corpus.write_manifest import CORPUS, PLATFORM, calls, hash_calls, listed_calls, refusals, run_calls
from qcontain import cli, graph

MANIFEST = json.loads((CORPUS / "manifest.json").read_text(encoding="utf-8"))
ENTRIES = MANIFEST["entries"]
REFUSALS = refusals()


@pytest.fixture(scope="module")
def results():
    lines = list(dict.fromkeys([*ENTRIES, *calls()]))
    return dict(zip(lines, run_calls(lines)))


@pytest.fixture(scope="module")
def hashes(results):
    return dict(zip(results, hash_calls(results.values())))


def test_the_manifest_holds_every_call_in_order():
    # a call added to calls.list, README's CLI block or the products, a new
    # instance text among them, is pinned only once the writer has hashed it
    assert list(ENTRIES) == calls()


def test_every_entry_hashes_as_written(hashes, capfd):
    moved = [line for line, digest in ENTRIES.items() if hashes[line] != digest]
    if PLATFORM == {key: MANIFEST[key] for key in PLATFORM}:
        assert not moved, "entries that differ:\n" + "\n".join(moved)
        return
    # another Python or numpy may round differently: each call must still
    # repeat its own bytes, and the entries that differ are only listed
    again = hash_calls(run_calls(list(ENTRIES)))
    assert [line for line, digest in zip(ENTRIES, again) if hashes[line] != digest] == []
    with capfd.disabled():
        print(f"\n{len(moved)} entries differ from the manifest's platform:", *moved, sep="\n")


@pytest.mark.parametrize("line", [
    "contain --instance inst.txt --estimator qae --epsilon 0.1 --rng 3 --k-max 3",
    "estimate --instance inst.txt --method qae --epsilon 0.3 --rng 3",
])
def test_both_qae_modes_print_the_same_bytes(hashes, line):
    # equal hashes: the same exit code, stdout and stderr, and no --out file
    assert hashes[line] == hashes[line + " --analytic"]


def test_every_listed_call_that_fails_has_its_line(results):
    # argparse words its usage errors itself, and differently across Pythons
    bare = [line for line in listed_calls() if results[line][0] != 0
            and line not in REFUSALS and not results[line][2].startswith("usage:")]
    assert not bare, "calls that fail with no '#>' line:\n" + "\n".join(bare)


@pytest.mark.parametrize("line", REFUSALS)
def test_refusal(line, monkeypatch):
    # the call prints its one line and nothing else, and gen and the sweeps
    # refuse before they draw, run the exact oracle or search
    def refuse(*args, **kwargs):
        raise AssertionError(f"work started before the refusal of: {line}")

    if line.startswith(("gen ", "bench-")):
        monkeypatch.setattr(graph.np.random, "default_rng", refuse)
        for name in ("exact_influence", "make_mc_estimator", "durr_hoyer_min"):
            monkeypatch.setattr(cli, name, refuse)
    code, message = REFUSALS[line]
    assert run_calls([line]) == [(code, "", message + "\n", None)]
