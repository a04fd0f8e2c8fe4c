"""Unit tests for H-function evaluation, R_t, width, and validation.

Coordinates, windows, R values and widths are doubled ints: 3 is 3/2.
"""

import pytest

from conftest import (
    HOPF_MINUS_TABLE,
    assert_table_matches,
    negative_hopf_data,
)
from lsat import (
    HFunction,
    LinkAlexData,
    hf_table_tsv,
    resolve_sign,
    twobridge_data,
    unlink_data,
    validate,
    width,
)
from lsat import hfunction
from lsat.errors import InvalidInputError
from lsat.halfgrid_poly import LaurentPoly1, LaurentPoly2
from lsat.hfunction import _t22l


class TestGnH:
    def test_whitehead_origin(self):
        assert twobridge_data(3, 3).hfunction()(0, 0) == 1

    def test_hopf_plus(self):
        assert twobridge_data(3, 1).hfunction()(-1, -1) == 1

    def test_unlink_stabilized(self):
        assert unlink_data().hfunction()(10, 14) == 0

    def test_mazur(self):
        assert twobridge_data(5, 3).hfunction()(1, 1) == 1

    def test_off_lattice_rejected(self):
        with pytest.raises(InvalidInputError):
            twobridge_data(5, 3).hfunction()(0, 0)

    def test_unresolved_sign_is_resolved_first(self):
        good = twobridge_data(3, 3)
        flipped = good.replace(delta_tilde=good.delta_tilde.neg())
        h = resolve_sign(flipped).hfunction()
        assert h.data == good and h(0, 0) == 1


class TestResolveSign:
    def test_flips_wrong_sign(self):
        good = twobridge_data(3, 3)
        flipped = good.replace(delta_tilde=good.delta_tilde.neg())
        assert resolve_sign(flipped).delta_tilde == good.delta_tilde

    def test_zero_unchanged(self):
        data = unlink_data()
        assert resolve_sign(data.replace()).delta_tilde.is_zero

    def test_unlink_needs_no_sign_probe(self):
        # unlink_data skips resolve_sign: delta_tilde = 0 is its own
        # negation, so the probe could only return its input.
        assert resolve_sign(unlink_data()) == unlink_data()
        assert validate(unlink_data().hfunction()) == []

    def test_negative_hopf_unchanged(self):
        data = negative_hopf_data()
        assert data.delta_tilde == LaurentPoly2.from_terms(
            {(1, 1): -1}
        )


class TestRofT:
    def test_whitehead(self, whitehead_h):
        assert whitehead_h.r_of_t(0) == 2

    def test_mazur(self, mazur_h):
        assert mazur_h.r_of_t(1) == 3

    def test_twobridge_formulas(self):
        for r, q in ((5, 3), (7, 5), (9, 3)):
            h = HFunction(twobridge_data(r, q))
            l = h.linking  # the doubled l/2
            assert h.r_of_t(l) * 2 == r + q - 2
            assert h.r_of_t(l - 2) * 2 == r + q - 6
            assert h.r_of_t(l + 2) * 2 == r + q - 6

    def test_module_level_wrapper(self, whitehead_h):
        # The module-level alias is gone: the method is the one route.
        assert not hasattr(hfunction, "r_of_t")
        assert whitehead_h.r_of_t(4) == 0


class TestWidth:
    def test_whitehead(self):
        assert width(twobridge_data(3, 3)) == 2

    def test_unlink(self):
        assert width(unlink_data()) == 0

    def test_mazur(self):
        assert width(twobridge_data(5, 3)) == 3


class TestModelFunctions:
    def test_h_unknot(self):
        # The unlink's H is the sum of two unknot H-functions max(-s, 0).
        h = unlink_data().hfunction()
        for s in range(-3, 4):
            assert h(2 * s, 8) == max(-s, 0) and h(8, 2 * s) == max(-s, 0)

    def test_h_t22l_hopf(self):
        assert _t22l(1, 1, 1) == 0

    def test_h_t22l_unlink_entry(self):
        assert _t22l(0, 0, -2) == 1

    def test_h_t22l_matches_negative_hopf(self):
        h = HFunction(negative_hopf_data())
        assert_table_matches(
            lambda t, r: _t22l(-1, t, r), HOPF_MINUS_TABLE
        )
        assert_table_matches(h, HOPF_MINUS_TABLE)


class TestValidate:
    def test_whitehead_passes(self, whitehead_h):
        failures = validate(whitehead_h)
        assert not failures, failures

    def test_mazur_passes(self, mazur_h):
        failures = validate(mazur_h)
        assert not failures, failures
        assert width(mazur_h.data) >= mazur_h.linking

    def test_injected_corruption_fails(self):
        good = twobridge_data(3, 3)
        bad = good.replace(delta_tilde=good.delta_tilde.neg())
        assert validate(HFunction(bad))


class TestTableExport:
    def test_tsv_layout(self, whitehead_h):
        text = hf_table_tsv(whitehead_h, 4)
        lines = text.strip().split("\n")
        header = lines[0].split("\t")
        assert header[1:6] == ["-2", "-1", "0", "1", "2"]
        assert header[-1] == "R_t_at"
        first = lines[1].split("\t")
        assert first[0] == "2"  # rows r descending

    def test_half_integer_labels(self, mazur_h):
        text = hf_table_tsv(mazur_h, 4)
        assert "3/2" in text and "-1/2" in text


class TestJsonSchema:
    def test_link_data_round_trip(self):
        data = twobridge_data(5, 3)
        obj = data.to_json_obj()
        back = resolve_sign(LinkAlexData.from_json_obj(obj))
        assert back.delta_tilde == data.delta_tilde
        assert back.linking == data.linking

    def test_missing_field_rejected(self):
        with pytest.raises(InvalidInputError):
            LinkAlexData.from_json_obj({"linking": 0})
