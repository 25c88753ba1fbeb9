"""The golden corpus (tests/golden.py): what it writes, and what it enters."""

import time

import golden


def test_outputs_are_the_recorded_bytes():
    start = time.perf_counter()
    new, missed = golden.run()
    # code that no command runs belongs in the tests, as an oracle
    assert not missed, f"no command enters {missed}"
    assert time.perf_counter() - start < 3.0
    # a difference is a change in output: `python tests/golden.py` prints its
    # table, and `--update` records it; under another numpy than the one the
    # records were made with, the message names both versions
    changed = [name for name, data in new.items() if golden.recorded(name) != data]
    assert not changed, f"outputs differ from tests/golden/ for {changed}{golden.numpy_note()}"
    # a record that no command of the corpus makes any more is stale
    stale = sorted(set(golden.recorded_names()) - new.keys())
    assert not stale, f"tests/golden/ records commands no longer in the corpus: {stale}"
