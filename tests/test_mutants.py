"""A mutant kill list for the checks that ``lsat verify`` runs.

Each mutant moves one R value of the profiles that
``patterns._profile_from_h`` builds by one lattice step (2 doubled),
through ``PatternProfile.replace``, so the constructor's checks still
run; it applies to every profile, or only to those of winding l >= 2.
Two more force ``PatternProfile.cond_tau``, the gate of the eps = -1
formulas, to False or to True on every profile.
``sweeps.CHECKS`` then runs in process.  A mutant is killed when a check
reports a failure, a point count moves from the unmutated run, or a check
raises an LsatError.

The mutants that no check kills today are strict xfails naming the
ROADMAP item meant to kill them: when one is killed, its marker fails
and goes by a listed edit.
"""

import pytest

from lsat import patterns, sweeps
from lsat.errors import LsatError

# Points of each check on the unmutated tree.
BASE = {
    "classifier": 15, "genus": 38, "inequality": 1089, "oracle": 1089,
    "properties": 15, "tables": 90,
}

_PROFILE_FROM_H = patterns._profile_from_h


def _run_checks():
    """name -> (points, failures) or the LsatError the check raised."""
    sweeps.closed_sweep.cache_clear()
    report = {}
    for name, check in sweeps.CHECKS.items():
        try:
            report[name] = check()
        except LsatError as exc:
            report[name] = exc
    return report


def _killers(report):
    """The checks that tell the run apart from the unmutated one."""
    return sorted(
        name for name, got in report.items()
        if isinstance(got, LsatError) or got[1] or got[0] != BASE[name]
    )


@pytest.fixture(autouse=True)
def _fresh_sweep():
    sweeps.closed_sweep.cache_clear()
    yield
    sweeps.closed_sweep.cache_clear()


def test_the_unmutated_tree_passes_at_its_base_counts():
    report = _run_checks()
    assert {name: got[0] for name, got in report.items()} == BASE
    assert _killers(report) == []


def _missed(item, what):
    return pytest.mark.xfail(
        strict=True, reason=f"ROADMAP item {item}: {what}"
    )


_COMPOSITES = _missed(12, "the composite-link check is not in verify yet")
_COLUMNS = _missed(3, "oracle weights are not read from the H-columns yet")

MUTANTS = [
    pytest.param(field, step, 0, id=f"{field}{step:+d}-every")
    for field in ("r_minus", "r_center", "r_plus")
    for step in (-2, 2)
] + [
    pytest.param("r_minus", -2, 2, id="r_minus-2-l>=2", marks=_COMPOSITES),
    pytest.param("r_minus", 2, 2, id="r_minus+2-l>=2", marks=_COMPOSITES),
    pytest.param("r_center", -2, 2, id="r_center-2-l>=2", marks=_COMPOSITES),
    pytest.param("r_center", 2, 2, id="r_center+2-l>=2", marks=_COMPOSITES),
    pytest.param("r_plus", -2, 2, id="r_plus-2-l>=2"),
    pytest.param("r_plus", 2, 2, id="r_plus+2-l>=2", marks=_COLUMNS),
]


@pytest.mark.parametrize("field, step, min_l", MUTANTS)
def test_verify_kills_the_mutant(monkeypatch, field, step, min_l):
    def mutated(h):
        prof = _PROFILE_FROM_H(h)
        if prof.l < min_l:
            return prof
        return prof.replace(**{field: getattr(prof, field) + step})

    monkeypatch.setattr(patterns, "_profile_from_h", mutated)
    assert _killers(_run_checks())


@pytest.mark.parametrize("forced", [
    pytest.param(False, id="cond_tau-False-every"),
    pytest.param(True, id="cond_tau-True-every", marks=_missed(
        11, "no verify link fails cond_tau; only "
        "tests/test_properties.py::TestCondTauRefusal reaches one",
    )),
])
def test_verify_kills_the_cond_tau_mutant(monkeypatch, forced):
    monkeypatch.setattr(
        patterns.PatternProfile, "cond_tau", property(lambda self: forced)
    )
    assert _killers(_run_checks())
