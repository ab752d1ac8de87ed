"""The CLI's bytes: every call in tests/corpus/manifest.json hashes as written."""
import json

import pytest

from corpus.write_manifest import CORPUS, PLATFORM, hash_calls

MANIFEST = json.loads((CORPUS / "manifest.json").read_text(encoding="utf-8"))
ENTRIES = MANIFEST["entries"]


@pytest.fixture(scope="module")
def hashes():
    return dict(zip(ENTRIES, hash_calls(list(ENTRIES))))


def test_every_entry_hashes_as_written(hashes, capfd):
    moved = [line for line, digest in ENTRIES.items() if hashes[line] != digest]
    if PLATFORM == {key: MANIFEST[key] for key in PLATFORM}:
        assert not moved, "entries that differ:\n" + "\n".join(moved)
        return
    # another Python or numpy may round differently: each call must still
    # repeat its own bytes, and the entries that differ are only listed
    again = hash_calls(list(ENTRIES))
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
