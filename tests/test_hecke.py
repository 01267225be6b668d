"""Tests for reducibility exponents, Jordan data and parameter shapes."""

import doctest
from types import SimpleNamespace

import pytest

from cuspred import hecke
from cuspred.cuspdata import (
    CuspidalDatum,
    FactorSupport,
    enumerate_data,
)
from cuspred.ffpoly import (
    FieldSpec,
    class_x_minus_one,
    class_x_plus_one,
    enumerate_self_dual_classes,
)
from cuspred.fixtures import gallery, gallery_entry
from cuspred.groups import GroupSpec, ParahoricSpec
from cuspred.hecke import (
    finite_parameter,
    half_text,
    identity_sides,
    ired,
    iteration_domain,
    jordan,
    jordan_chain,
    parameter_pair,
    parameter_shapes,
    reducibility_pair,
    reducibility_report,
    verify_identity,
)

F3 = FieldSpec(3)
F9Q = FieldSpec(3, 2, "quadratic")


def test_doctests():
    failures, _ = doctest.testmod(hecke)
    assert failures == 0


class TestHalfText:
    def test_half_text(self):
        assert half_text(6) == "3"
        assert half_text(5) == "5/2"
        assert half_text(0) == "0"
        assert half_text(1) == "1/2"

    def test_identity_floors_the_squares(self):
        # floor(s^2) at s = 3, 5/2, 1, 1/2 and 3/2 is 9, 6, 1, 0 and 2.
        cases = {
            "so20": ({"x-1": (6, 2), "x+1": (6, 2)}, 20),  # (9 + 1) + (9 + 1)
            "u14": ({"x-1": (1, 1), "x+1": (0, 0), "x^2+1": (5, 2)}, 14),  # (6 + 1) * 2
            "so5": ({"x-1": (3, 1), "x+1": (3, 1)}, 4),  # (2 + 0) + (2 + 0)
        }
        for name, (pairs, total) in cases.items():
            datum = gallery_entry(name).datum
            assert {c.label: reducibility_pair(datum, c) for c in datum.pairs} == pairs
            assert identity_sides(datum) == (total, total), name


class TestFiniteParameter:
    def test_linear_tables(self):
        xm, xp = class_x_minus_one(F3).type, class_x_plus_one(F3).type
        assert [finite_parameter("SOodd", xm, m) for m in range(3)] == [2, 6, 10]
        assert [finite_parameter("SOodd", xp, m) for m in range(3)] == [2, 6, 10]
        assert [finite_parameter("Sp", xm, m) for m in range(3)] == [2, 6, 10]
        assert [finite_parameter("Sp", xp, m) for m in range(3)] == [0, 4, 8]
        assert [finite_parameter("SOeven", xm, m) for m in range(3)] == [0, 4, 8]
        assert [finite_parameter("SOeven", xp, m) for m in range(3)] == [0, 4, 8]

    def test_nonlinear_table(self):
        p2 = enumerate_self_dual_classes(F3, 2)[0].type
        assert [half_text(finite_parameter("Sp", p2, m)) for m in range(3)] == ["1", "3", "5"]
        cubic = enumerate_self_dual_classes(F9Q, 3)[0].type
        assert [half_text(finite_parameter("U", cubic, m)) for m in range(3)] == ["3/2", "9/2", "15/2"]
        linear9 = class_x_minus_one(F9Q).type
        assert [half_text(finite_parameter("U", linear9, m)) for m in range(3)] == ["1/2", "3/2", "5/2"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown factor kind 'iii'"):
            finite_parameter("iii", class_x_plus_one(F3).type, 1)

    def test_tables_read_a_class_only_through_its_type(self):
        # The tables take a type: rank 0 is x - 1, rank 1 is x + 1, under
        # either involution, and the type leads the sort key.
        for field in (F3, FieldSpec(5), F9Q):
            seen = set()
            for degree in range(1, 5):
                for cls in enumerate_self_dual_classes(field, degree):
                    rank = cls.type.rank
                    assert (rank == 0) == (cls.label == "x-1"), cls
                    assert (rank == 1) == (cls.coeffs == (1, 1)), cls
                    assert cls.type == cls.sort_key[:2]
                    seen.add(rank)
            assert seen == {0, 1, 2}

    def test_exponent_that_is_not_half_integral_names_the_class(self):
        # No group pairs a U slot with an orthogonal one: there x - 1
        # would get s = (1/2 + 1) / 2 = 3/4.
        datum = SimpleNamespace(group=SimpleNamespace(slot_kinds=("U", "SOodd")), pairs={})
        with pytest.raises(AssertionError,
                           match=r"^reducibility exponent of x-1 is not half-integral$"):
            reducibility_pair(datum, class_x_minus_one(F3))

    def test_jordan_chain(self):
        assert jordan_chain(6) == (5, 3, 1)
        assert jordan_chain(5) == (4, 2)
        assert jordan_chain(1) == ()
        assert jordan_chain(0) == ()


def as_strs(pair):
    return [half_text(v) for v in pair]


class TestGalleryValues:
    def test_s_pairs(self):
        for entry in gallery():
            domain = {c.label: c for c in iteration_domain(entry.datum)}
            for label, expected in entry.expected.get("s_pairs", {}).items():
                got = as_strs(reducibility_pair(entry.datum, domain[label]))
                assert got == expected, f"{entry.name} at {label}"

    def test_f_pairs(self):
        for entry in gallery():
            domain = {c.label: c for c in iteration_domain(entry.datum)}
            for label, expected in entry.expected.get("f_pairs", {}).items():
                got = as_strs(parameter_pair(entry.datum, domain[label]))
                assert got == expected, f"{entry.name} at {label}"

    def test_ired(self):
        for entry in gallery():
            got = [[c.label, half_text(s)] for c, s in ired(entry.datum)]
            assert got == entry.expected["ired"], entry.name

    def test_identity(self):
        for entry in gallery():
            assert list(identity_sides(entry.datum)) == entry.expected["identity"]
            assert verify_identity(entry.datum)

    def test_jordan_size(self):
        for entry in gallery():
            assert len(jordan(entry.datum)) == entry.expected["jordan_size"], entry.name

    def test_shape_counts(self):
        for entry in gallery():
            got = parameter_shapes(entry.datum)
            assert len(got) == entry.expected["shapes"], entry.name


class TestJordanDetail:
    def test_sp6_chains(self):
        report = reducibility_report(gallery_entry("sp6").datum)
        by_label = {r.cls.label: r for r in report.classes}
        assert by_label["x-1"].chains == ((3, 1), (1,))
        assert by_label["x+1"].chains == ((1,), (1,))
        assert report.identity_holds and report.lhs == 7

    def test_u14_chains(self):
        report = reducibility_report(gallery_entry("u14").datum)
        by_label = {r.cls.label: r for r in report.classes}
        assert by_label["x^2+1"].chains == ((4, 2), (1,))
        assert by_label["x-1"].chains == ((), ())

    def test_member_zero_is_larger(self):
        for entry in gallery():
            for cls in iteration_domain(entry.datum):
                s, s2 = reducibility_pair(entry.datum, cls)
                assert s >= s2

    def test_entries_keep_member_index(self):
        entries = jordan(gallery_entry("so8").datum)
        assert [(e.cls.label, e.member, e.m) for e in entries] == [
            ("x-1", 0, 3), ("x-1", 0, 1), ("x-1", 1, 3), ("x-1", 1, 1)]


class TestShapes:
    def test_sp6_surviving_shape(self):
        (shape,) = parameter_shapes(gallery_entry("sp6").datum)
        by_label = {cls.label: members for cls, members in shape.entries}
        # Both chains at eigenvalue -1 have odd sum and contribute w1 + w2;
        # cancelling that forces the odd chain at eigenvalue 1 onto w0.
        tags = {m.tag: m.chain for m in by_label["x-1"]}
        assert tags["1"] == (3, 1) and tags["w0"] == (1,)

    def test_sp4_shapes(self):
        shapes = parameter_shapes(gallery_entry("sp4").datum)
        assert len(shapes) == 2
        for shape in shapes:
            by_label = {cls.label: members for cls, members in shape.entries}
            tags = {m.tag: m.chain for m in by_label["x-1"]}
            assert tags["1"] == (1,)  # the only filtered choice

    def test_determinant_filter_released(self):
        # A symplectic slot carrying a quadratic class with odd chain sum
        # turns the filter off: all four assignments survive.
        p2 = enumerate_self_dual_classes(F3, 2)[0]
        group = GroupSpec("Sp", 2, 1, (0, 0), F3)
        datum = CuspidalDatum(ParahoricSpec(group, 1, 0),
                              (FactorSupport.of([(p2, 1)]), FactorSupport.empty()))
        assert list(identity_sides(datum)) == [3, 3]
        assert len(parameter_shapes(datum)) == 4

    def test_nonsymplectic_not_filtered(self):
        assert len(parameter_shapes(gallery_entry("so5").datum)) == 4
        assert len(parameter_shapes(gallery_entry("so20").datum)) == 4
        assert len(parameter_shapes(gallery_entry("u14").datum)) == 2

    def test_rho_tags(self):
        shapes = parameter_shapes(gallery_entry("u14").datum)
        tags = {m.tag for shape in shapes for _, members in shape.entries for m in members}
        assert tags == {"rho", "rho'"}


SMALL_GROUPS = [
    GroupSpec("Sp", 4, 2, (0, 0), F3),
    GroupSpec("Sp", 6, 3, (0, 0), F3),
    GroupSpec("SOodd", 5, 2, (0, 1), F3),
    GroupSpec("SOodd", 7, 3, (1, 0), F3),
    GroupSpec("SOeven", 8, 4, (0, 0), F3),
    GroupSpec("SOeven", 8, 3, (1, 1), F3),
    GroupSpec("Uunram", 5, 2, (1, 0), F9Q),
    GroupSpec("Uunram", 6, 3, (0, 0), F9Q),
    GroupSpec("Uram", 7, 3, (1, 0), F3, epsilon=1),
    GroupSpec("Uram", 8, 4, (0, 0), F3, epsilon=-1),
]


class TestInvariants:
    def test_identity_everywhere(self):
        for group in SMALL_GROUPS:
            for datum in enumerate_data(group, max_degree=4):
                assert verify_identity(datum), str(datum)

    def test_parity_split(self):
        # A class of even degree, or any class of a unitary slot, has
        # exactly one integral member.
        for group in SMALL_GROUPS:
            for datum in enumerate_data(group, max_degree=4):
                quadratic = group.field.ext == "quadratic"
                for cls in iteration_domain(datum):
                    if cls.degree == 1 and not quadratic:
                        continue
                    s, s2 = reducibility_pair(datum, cls)
                    assert s % 2 != s2 % 2, (str(datum), cls.label)

    def test_linear_members_same_parity(self):
        for group in SMALL_GROUPS:
            if group.field.ext == "quadratic":
                continue
            for datum in enumerate_data(group, max_degree=4):
                for cls in iteration_domain(datum):
                    if cls.degree == 1:
                        s, s2 = reducibility_pair(datum, cls)
                        assert (s + s2) % 2 == 0

    def test_ired_members_at_least_one(self):
        for group in SMALL_GROUPS[:4]:
            for datum in enumerate_data(group, max_degree=4):
                for cls, s in ired(datum):
                    assert s >= 2
