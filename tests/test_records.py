"""Value semantics of every record class.

Frozen records compare and hash by class and field values, refuse
assignment, and survive ``pickle`` and ``copy.deepcopy``; the two derived
caches, ``LinkAlexData._h`` (the data's one HFunction) and
``PatternProfile._oracle`` (a profile's reduced oracle summands), stay out
of equality and hashing.
``cli.Command`` (a namespace, not a record class) is mutable and
unhashable.
"""

import copy
import pickle

import pytest

from lsat import (
    Companion,
    LaurentPoly1,
    LinkAlexData,
    PatternProfile,
    TauResult,
    build_summand,
    cable_profile,
    tau_oracle,
    twobridge_alexander,
    twobridge_data,
    twobridge_profile,
)
from lsat import cli
from lsat.errors import InvalidInputError


def _link(data):
    return LinkAlexData(
        linking=data.linking,
        delta_tilde=data.delta_tilde,
        delta1=data.delta1,
        delta2=data.delta2,
    )


def _profile(prof):
    return PatternProfile(
        l=prof.l,
        g3=prof.g3,
        n_width=prof.n_width,
        r_minus=prof.r_minus,
        r_center=prof.r_center,
        r_plus=prof.r_plus,
        data=prof.data,
    )


# Each factory builds a fresh record; two calls give equal values.
FROZEN = {
    "LaurentPoly1": lambda: LaurentPoly1.from_terms({-2: 1, 0: -1, 2: 1}),
    "LaurentPoly2": lambda: twobridge_alexander(5, 3),
    "LinkAlexData": lambda: _link(twobridge_data(5, 3)),
    "PatternProfile": lambda: _profile(twobridge_profile(5, 3)),
    "PatternProfile(closed-form)": lambda: cable_profile(3, 2),
    "Companion": lambda: Companion(tau=1, eps=-1),
    "ZComplex": lambda: build_summand(
        twobridge_profile(5, 3), Companion(tau=1, eps=1), 0
    ),
    "TauResult": lambda: TauResult(2, "closed-form", "eps=1"),
}

MUTABLE = {
    "Command": lambda: cli.Command(cli.cmd_tau, ("pattern", "--tau")),
}

ALL = {**FROZEN, **MUTABLE}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_equal_values_are_equal_and_hash_equally(name):
    a, b = FROZEN[name](), FROZEN[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_records_compare_by_value_and_do_not_hash(name):
    a, b = MUTABLE[name](), MUTABLE[name]()
    assert a == b
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_fields_refuse_assignment(name):
    record = FROZEN[name]()
    field = next(
        f for f in ("terms", "linking", "l", "tau", "generators", "value")
        if hasattr(record, f)
    )
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_mutable_records_take_assignment():
    command = MUTABLE["Command"]()
    command.callback = cli.cmd_hfunc
    assert command.callback is cli.cmd_hfunc


@pytest.mark.parametrize("name", sorted(ALL))
def test_pickle_and_deepcopy_round_trip(name):
    record = ALL[name]()
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record


def test_records_differ_from_tuples_and_other_classes():
    assert Companion(1, 1) != (1, 1)
    assert not Companion(1, 1) == (1, 1)
    assert TauResult(1, "oracle", "x") != Companion(1, 1)
    assert Companion(1, 1) != Companion(1, -1)


def test_repr_lists_fields():
    assert repr(Companion(tau=1, eps=1)) == "Companion(tau=1, eps=1)"
    assert repr(TauResult(2, "oracle", "eps=1,n>=2tau")) == (
        "TauResult(value=2, method='oracle', case_tag='eps=1,n>=2tau')"
    )


def test_link_data_caches_stay_out_of_equality():
    built, fresh = _link(twobridge_data(7, 3)), _link(twobridge_data(7, 3))
    built.hfunction()
    built.support_extent()
    assert built == fresh and hash(built) == hash(fresh)
    clone = pickle.loads(pickle.dumps(built))
    assert clone == fresh
    assert clone.hfunction()(0, 2) == built.hfunction()(0, 2)  # doubled (0, 1)


def test_profile_oracle_weights_stay_out_of_equality():
    used, fresh = FROZEN["PatternProfile"](), FROZEN["PatternProfile"]()
    tau_oracle(used, Companion(tau=1, eps=1), 0)
    assert used._oracle
    assert used == fresh and hash(used) == hash(fresh)
    for clone in (pickle.loads(pickle.dumps(used)), used.replace()):
        assert clone == fresh and hash(clone) == hash(fresh)
        assert clone._oracle == {}


def test_replace_rebuilds_through_the_constructor():
    data = twobridge_data(5, 3)
    flipped = data.replace(delta_tilde=data.delta_tilde.neg())
    assert flipped.delta_tilde == data.delta_tilde.neg()
    assert flipped.linking == data.linking
    assert data.replace() == data
    with pytest.raises(InvalidInputError, match="off the"):
        data.replace(linking=data.linking + 1)
    with pytest.raises(InvalidInputError, match="eps must be"):
        Companion(tau=0, eps=0).replace(eps=2)
    with pytest.raises(TypeError):
        Companion(tau=0, eps=0).replace(sign=1)
