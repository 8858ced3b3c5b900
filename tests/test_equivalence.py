"""The equivalence run (``tests/equivalence.py``) is deterministic, so
two checkouts that agree give the same lines."""

import equivalence


def test_the_equivalence_run_repeats_itself():
    first = list(equivalence.lines(0, 5))
    assert first == list(equivalence.lines(0, 5))
    assert {section for section, _ in first} == set(equivalence.SECTIONS)
