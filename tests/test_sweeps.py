"""The sweep definitions that ``lsat verify``, the tests and demo 01 share."""

from lsat.sweeps import COMPANIONS, FAMILY_PAIRS, FRAMINGS, LINK_PAIRS


def test_sweep_sizes():
    assert len(FAMILY_PAIRS) == 10
    assert len(LINK_PAIRS) == 14
    assert len(COMPANIONS) == 11
    assert len(FRAMINGS) == 9
