"""Tests for cuspidal supports: validation, counts, enumeration."""

import hashlib
import inspect
import itertools
import math
import sys

import pytest

from cuspred.cuspdata import (
    CuspidalDatum,
    DatumSignature,
    FactorSupport,
    census_total_reps,
    char_poly_exponent,
    count_representations,
    enumerate_census,
    enumerate_data,
    enumerate_signatures,
    enumerate_supports,
    exponent_total,
    minus_type_exponent,
    signature_of,
    signature_representative,
    signature_weight,
    support_violation,
    validate_support,
)
from cuspred.ffpoly import (
    ClassType,
    DegreeLimitError,
    FieldSpec,
    class_x_minus_one,
    class_x_plus_one,
    enumerate_self_dual_classes,
)
from cuspred.groups import FiniteFactor, GroupSpec, ParahoricSpec, enumerate_parahorics
from cuspred.hecke import identity_sides, ired, parameter_shapes
from cuspred.packets import companions, enumerate_epsilon, listed_swap_sets, packet_stats
from cuspred.selfcheck import _CHECKS, iter_group_specs

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F9Q = FieldSpec(3, 2, "quadratic")


def support(field, *pairs):
    return FactorSupport.of([(c, m) for c, m in pairs])


# Degree two and four self-dual classes over F3, in canonical order.
P2 = enumerate_self_dual_classes(F3, 2)[0]          # x^2 + 1
Q4A, Q4B = enumerate_self_dual_classes(F3, 4)


class TestExponentFormulas:
    def test_linear_tables(self):
        xm, xp = class_x_minus_one(F3).type, class_x_plus_one(F3).type
        # SOodd: both eigenvalues follow 2(m^2 + m)
        assert [char_poly_exponent("SOodd", xm, m) for m in range(4)] == [0, 4, 12, 24]
        assert [char_poly_exponent("SOodd", xp, m) for m in range(4)] == [0, 4, 12, 24]
        # Sp: x - 1 is shifted by the implicit copy, x + 1 is 2 m^2
        assert [char_poly_exponent("Sp", xm, m) for m in range(4)] == [1, 5, 13, 25]
        assert [char_poly_exponent("Sp", xp, m) for m in range(4)] == [0, 2, 8, 18]
        # SOeven: both are 2 m^2
        assert [char_poly_exponent("SOeven", xm, m) for m in range(4)] == [0, 2, 8, 18]
        assert [char_poly_exponent("SOeven", xp, m) for m in range(4)] == [0, 2, 8, 18]

    def test_nonlinear_is_triangular(self):
        for kind in ("SOodd", "Sp", "SOeven", "U"):
            assert [char_poly_exponent(kind, P2.type, m) for m in range(5)] == [0, 1, 3, 6, 10]

    def test_case_u_linear_is_triangular(self):
        xm9 = class_x_minus_one(F9Q).type
        assert [char_poly_exponent("U", xm9, m) for m in range(4)] == [0, 1, 3, 6]

    def test_minus_type_exponent(self):
        xm = class_x_minus_one(F3).type
        assert [minus_type_exponent(xm, m) for m in range(4)] == [0, 1, 2, 3]
        assert [minus_type_exponent(P2.type, m) for m in range(4)] == [0, 1, 3, 6]

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            char_poly_exponent("Sp", class_x_minus_one(F3).type, -1)

    def test_unknown_kind_rejected(self):
        # The factor kind is the only slot vocabulary; the old tags are gone.
        with pytest.raises(ValueError, match="unknown factor kind 'ii'"):
            char_poly_exponent("ii", class_x_minus_one(F3).type, 1)
        with pytest.raises(ValueError, match="unknown factor kind 'i'"):
            FiniteFactor("i", 3)


class TestFactorSupport:
    def test_sorted_and_positive(self):
        xm, xp = class_x_minus_one(F3), class_x_plus_one(F3)
        s = FactorSupport.of([(xp, 1), (xm, 2)])
        assert s.entries == ((xm, 2), (xp, 1))
        with pytest.raises(ValueError):
            FactorSupport(((xm, 0),))
        with pytest.raises(ValueError):
            FactorSupport(((xp, 1), (xm, 1)))  # unsorted

    def test_repeated_class_rejected(self):
        xm, xp = class_x_minus_one(F3), class_x_plus_one(F3)
        with pytest.raises(ValueError, match="x-1 is listed twice"):
            FactorSupport.of([(xm, 1), (xp, 1), (xm, 2)])

    def test_str(self):
        xm = class_x_minus_one(F3)
        assert str(FactorSupport.of([(xm, 2)])) == "(x-1)^2"
        assert str(FactorSupport.empty()) == "1"


class TestValidation:
    def test_symplectic_factor(self):
        xm, xp = class_x_minus_one(F3), class_x_plus_one(F3)
        f = FiniteFactor("Sp", 4)  # dual dimension 5
        validate_support(f, support(F3, (xm, 1)), F3)
        validate_support(f, support(F3, (xp, 1), (P2, 1)), F3)
        validate_support(f, support(F3, (Q4A, 1)), F3)
        with pytest.raises(ValueError, match="clause c"):
            validate_support(f, support(F3, (xp, 1)), F3)

    def test_implicit_entry(self):
        # Only Sp counts an absent x - 1, with a = 1: 2 + 2 + 1 below.
        xm, xp = class_x_minus_one(F3), class_x_plus_one(F3)
        assert exponent_total("Sp", support(F3, (xp, 1), (P2, 1)).entries) == 5
        assert exponent_total("Sp", support(F3, (xm, 1)).entries) == 5
        assert exponent_total("Sp", ()) == 1
        assert exponent_total("SOeven", support(F3, (xp, 1), (P2, 1)).entries) == 4
        assert exponent_total("SOeven", FactorSupport.empty().entries) == 0
        # A dict view, as the companion search passes it.
        assert exponent_total("Sp", {xp: 1, P2: 1}.items()) == 5

    def test_even_orthogonal_sign_law(self):
        xm, xp = class_x_minus_one(F3), class_x_plus_one(F3)
        plus = FiniteFactor("SOeven", 10, sign=1)
        minus = FiniteFactor("SOeven", 10, sign=-1)
        s = support(F3, (xm, 2), (xp, 1))  # exponents 8 + 2, three linear blocks
        validate_support(minus, s, F3)
        with pytest.raises(ValueError, match="clause d"):
            validate_support(plus, s, F3)
        # A nonlinear class contributes one minus block per copy: four
        # blocks here (one per class), five below (m = 2 gives three).
        u = support(F3, (xm, 1), (xp, 1), (P2, 1), (Q4A, 1))  # 2 + 2 + 2 + 4 = 10
        validate_support(plus, u, F3)
        assert support_violation(minus, u, F3)[0] == "d"
        v = support(F3, (xm, 1), (xp, 1), (P2, 2))  # 2 + 2 + 6 = 10
        validate_support(minus, v, F3)
        assert support_violation(plus, v, F3)[0] == "d"

    def test_field_and_degree_clauses(self):
        f = FiniteFactor("Sp", 4)
        with pytest.raises(ValueError, match="clause a"):
            validate_support(f, support(F5, (class_x_minus_one(F5), 1)), F3)
        cubic = enumerate_self_dual_classes(F9Q, 3)[0]
        with pytest.raises(ValueError, match="clause a"):
            validate_support(f, support(F9Q, (cubic, 1)), F9Q)
        g = FiniteFactor("U", 3)
        with pytest.raises(ValueError, match="clause a"):
            validate_support(g, support(F3, (class_x_minus_one(F3), 1)), F3)

    def test_unitary_factor(self):
        g = FiniteFactor("U", 3)
        xm9 = class_x_minus_one(F9Q)
        validate_support(g, support(F9Q, (xm9, 2)), F9Q)
        cubic = enumerate_self_dual_classes(F9Q, 3)[0]
        validate_support(g, support(F9Q, (cubic, 1)), F9Q)

    def test_trivial_factors(self):
        validate_support(FiniteFactor("Sp", 0), FactorSupport.empty(), F3)
        validate_support(FiniteFactor("SOeven", 0, sign=1), FactorSupport.empty(), F3)
        validate_support(FiniteFactor("SOodd", 1), FactorSupport.empty(), F3)
        validate_support(FiniteFactor("U", 0), FactorSupport.empty(), F9Q)


def sp6_datum():
    group = GroupSpec("Sp", 6, 3, (0, 0), F3)
    xm, xp = class_x_minus_one(F3), class_x_plus_one(F3)
    return CuspidalDatum(ParahoricSpec(group, 2, 1),
                         (support(F3, (xm, 1)), support(F3, (xp, 1))))


def sp4_datum():
    group = GroupSpec("Sp", 4, 2, (0, 0), F3)
    xp = class_x_plus_one(F3)
    return CuspidalDatum(ParahoricSpec(group, 1, 1),
                         (support(F3, (xp, 1)), support(F3, (xp, 1))))


def so8_datum():
    group = GroupSpec("SOeven", 8, 4, (0, 0), F3)
    xm = class_x_minus_one(F3)
    return CuspidalDatum(ParahoricSpec(group, 4, 0),
                         (support(F3, (xm, 2)), FactorSupport.empty()))


def so20_datum():
    group = GroupSpec("SOeven", 20, 8, (2, 2), F3)
    xm, xp = class_x_minus_one(F3), class_x_plus_one(F3)
    return CuspidalDatum(ParahoricSpec(group, 4, 4),
                         (support(F3, (xm, 2), (xp, 1)),
                          support(F3, (xm, 1), (xp, 2))))


def so5_datum():
    group = GroupSpec("SOodd", 5, 2, (0, 1), F3)
    xm, xp = class_x_minus_one(F3), class_x_plus_one(F3)
    return CuspidalDatum(ParahoricSpec(group, 2, 0),
                         (support(F3, (xm, 1), (xp, 1)), FactorSupport.empty()))


def u14_datum():
    group = GroupSpec("Uram", 14, 6, (2, 0), F3, epsilon=1)
    return CuspidalDatum(ParahoricSpec(group, 0, 6),
                         (support(F3, (P2, 1)), support(F3, (P2, 3))))


class TestDatum:
    def test_construction_validates(self):
        group = GroupSpec("Sp", 6, 3, (0, 0), F3)
        xm = class_x_minus_one(F3)
        with pytest.raises(ValueError, match="clause c"):
            CuspidalDatum(ParahoricSpec(group, 2, 1),
                          (support(F3, (xm, 1)), support(F3, (xm, 1))))

    def test_nonmaximal_rejected(self):
        group = GroupSpec("SOeven", 8, 4, (0, 0), F3)
        xm, xp = class_x_minus_one(F3), class_x_plus_one(F3)
        with pytest.raises(ValueError, match="maximal"):
            CuspidalDatum(ParahoricSpec(group, 3, 1),
                          (support(F3, (xm, 1), (xp, 1), (P2, 1)),
                           FactorSupport.empty()))

    def test_multiplicity_pairs(self):
        xm, xp = class_x_minus_one(F3), class_x_plus_one(F3)
        assert so20_datum().pairs == {xm: (2, 1), xp: (1, 2)}
        # x -+ 1 are always present, and the map runs in canonical order.
        assert list(so8_datum().pairs.items()) == [(xm, (2, 0)), (xp, (0, 0))]
        d = u14_datum()
        assert list(d.pairs.items()) == [(xm, (0, 0)), (xp, (0, 0)), (P2, (1, 3))]
        # Computed once, and invisible to equality and hashing.
        assert d.pairs is d.pairs
        assert d == u14_datum() and hash(d) == hash(u14_datum())

    def test_str(self):
        assert str(sp6_datum()) == "Sp(6)/F3:(2,1) [(x-1)^1] x [(x+1)^1]"


class TestRepresentationCounts:
    def test_gallery_totals(self):
        assert count_representations(sp6_datum()).total == 2
        assert count_representations(sp4_datum()).total == 4
        assert count_representations(so8_datum()).total == 1
        assert count_representations(so20_datum()).total == 8
        assert count_representations(so5_datum()).total == 4
        assert count_representations(u14_datum()).total == 1

    def test_slot_details(self):
        rc = count_representations(so20_datum())
        assert (rc.n1, rc.n2, rc.component_order) == (2, 2, 2)
        assert rc.slot_actions == ("fixed", "fixed")
        rc = count_representations(u14_datum())
        assert (rc.n1, rc.n2, rc.component_order) == (2, 1, 2)
        assert rc.slot_actions == ("swapped", "fixed")
        rc = count_representations(sp6_datum())
        assert (rc.n1, rc.n2, rc.component_order) == (1, 2, 1)

    def test_even_orthogonal_split_pair(self):
        # Both eigenvalues present: two series, fixed by the component group.
        d = so20_datum()
        rc = count_representations(d)
        assert rc.total == 2 * rc.n1 * rc.n2


class TestEnumeration:
    def test_symplectic_factor_supports(self):
        # FSp(2)/F3: exponent budget 3 with the implicit entry eating 1.
        got = enumerate_supports(FiniteFactor("Sp", 2), F3)
        assert {str(s) for s in got} == {"(x+1)^1", "(x^2+1)^1"}
        # FSp(4)/F3: budget 5.
        got = enumerate_supports(FiniteFactor("Sp", 4), F3)
        assert len(got) == 4
        assert {str(s) for s in got} == {
            "(x-1)^1", "(x+1)^1 (x^2+1)^1", f"({Q4A.label})^1", f"({Q4B.label})^1"}

    def test_degree_cap(self):
        got = enumerate_supports(FiniteFactor("Sp", 4), F3, max_degree=2)
        assert {str(s) for s in got} == {"(x-1)^1", "(x+1)^1 (x^2+1)^1"}

    def test_unitary_factor_supports(self):
        # FU(3)/F9: budget 3 over four linear and eight cubic classes.
        got = enumerate_supports(FiniteFactor("U", 3), F9Q)
        assert len(got) == 4 + 4 + 8  # three linear / one doubled / one cubic

    def test_trivial_factor_supports(self):
        for f, field in ((FiniteFactor("Sp", 0), F3),
                         (FiniteFactor("SOeven", 0, sign=1), F3),
                         (FiniteFactor("SOodd", 1), F3),
                         (FiniteFactor("U", 0), F9Q)):
            got = enumerate_supports(f, field)
            assert len(got) == 1 and got[0].entries == ()

    def test_large_pool_stays_shallow(self):
        # The recursion nests once per class given m >= 1, not once per
        # class of the pool: F13 has 412 classes of degree 2 to 6, and F31
        # about 5,000 of degree 6 alone.
        F13 = FieldSpec(13)
        pool = 2 + sum(len(enumerate_self_dual_classes(F13, d)) for d in (2, 4, 6))
        assert pool == 414
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 150)
        try:
            got = enumerate_supports(FiniteFactor("Sp", 6), F13, max_degree=6)
        finally:
            sys.setrecursionlimit(limit)
        assert len(got) == 706

    def test_supports_match_brute_force(self):
        # Oracle: every tuple of multiplicities over the class pool (x -+ 1
        # under the trivial involution, then the classes by degree), each m
        # running up to the largest whose cost alone fits the dual
        # dimension, kept when the support validates.  itertools.product
        # runs through the tuples in lexicographic order, the order
        # enumerate_supports promises.  Factors whose product exceeds 10^5
        # tuples are left out: U(3), U(4) and U(5) over F25 have about
        # 8 * 10^14 each.
        factors = dict.fromkeys((f, g.field) for g in iter_group_specs((3, 5), 6)
                                for p in enumerate_parahorics(g) for f in p.factors)
        checked = supports = 0
        for factor, field in factors:
            trivial = field.ext == "trivial"
            pool = [class_x_minus_one(field), class_x_plus_one(field)] if trivial else []
            pool += [c for d in range(2 if trivial else 1, 5, 2)
                     for c in enumerate_self_dual_classes(field, d)]
            ranges = []
            for c in pool:
                m = 0
                while char_poly_exponent(factor.kind, c.type, m + 1) * c.degree <= factor.dual_dim:
                    m += 1
                ranges.append(range(m + 1))
            if math.prod(map(len, ranges)) > 10 ** 5:
                continue
            expected = []
            for ms in itertools.product(*ranges):
                s = FactorSupport.of([(c, m) for c, m in zip(pool, ms) if m])
                if support_violation(factor, s, field) is None:
                    expected.append(s)
            assert list(enumerate_supports(factor, field, max_degree=4)) == expected, str(factor)
            checked += 1
            supports += len(expected)
        assert (checked, supports) == (40, 417)

    def test_sp4_census(self):
        group = GroupSpec("Sp", 4, 2, (0, 0), F3)
        data = enumerate_data(group)
        assert len(data) == 12
        assert len(enumerate_data(group, max_degree=2)) == 8
        for d in data:
            count_representations(d)  # must not raise

    # The ten groups of the benchmark's census workload, with the class
    # degree bound of each and its number of data.
    CENSUS_GROUPS = [
        (GroupSpec("Sp", 16, 8, (0, 0), F3), 8, 3648),
        (GroupSpec("Sp", 12, 6, (0, 0), F5), 4, 2332),
        (GroupSpec("SOeven", 16, 8, (0, 0), F3), 8, 1363),
        (GroupSpec("SOeven", 14, 6, (1, 1), F5), 4, 1518),
        (GroupSpec("SOodd", 15, 7, (1, 0), F3), 8, 823),
        (GroupSpec("SOodd", 13, 6, (1, 0), F5), 6, 3700),
        (GroupSpec("Uunram", 8, 4, (0, 0), F9Q), 5, 7701),
        (GroupSpec("Uunram", 5, 2, (1, 0), FieldSpec(5, 2, "quadratic")), 3, 3366),
        (GroupSpec("Uram", 13, 6, (0, 1), F3, epsilon=-1), 8, 564),
        (GroupSpec("Uram", 13, 6, (1, 0), F5, epsilon=1), 6, 6222),
    ]

    def test_census_counts_match_the_data(self):
        # enumerate counts and lists from the census without building a
        # datum.  That rests on every product of a parahoric's two support
        # lists being a valid datum: CuspidalDatum validates each one here.
        cases = [(g, 4, None) for g in iter_group_specs((3, 5), 5)] + self.CENSUS_GROUPS
        assert len(cases) == 98
        for group, degree, size in cases:
            census = enumerate_census(group, degree)
            data = [CuspidalDatum(parahoric, supports) for parahoric, slots in census
                    for supports in itertools.product(*slots)]
            assert tuple(data) == enumerate_data(group, degree), str(group)
            assert sum(len(s1) * len(s2) for _, (s1, s2) in census) == len(data), str(group)
            assert size in (None, len(data)), str(group)
            assert census_total_reps(census) == \
                sum(count_representations(d).total for d in data), str(group)

    def test_census_enumerates_each_factor_once(self, monkeypatch):
        # Sp(12)/F3: seven parahorics Sp(2 n1) x Sp(2 n2), seven factors.
        calls = []

        def counted(factor, field, max_degree=None):
            calls.append(factor)
            return enumerate_supports(factor, field, max_degree)

        monkeypatch.setattr("cuspred.cuspdata.enumerate_supports", counted)
        census = enumerate_census(GroupSpec("Sp", 12, 6, (0, 0), F3), 4)
        assert len(census) == 7
        assert sorted(f.dim for f in calls) == [0, 2, 4, 6, 8, 10, 12]
        for parahoric, slots in census:
            assert slots == tuple(enumerate_supports(f, F3, 4) for f in parahoric.factors)

    def test_census_refuses_before_building_the_chain(self, monkeypatch):
        # The reach is read off the first maximal parahoric from each end,
        # built directly: past the cap, no chain of N + 1 parahorics is built.
        def chain(group):
            raise AssertionError(f"built the chain of {group}")

        monkeypatch.setattr("cuspred.cuspdata.enumerate_parahorics", chain)
        for group in (GroupSpec("Sp", 200000, 100000, (0, 0), F3),
                      GroupSpec("SOodd", 200001, 100000, (0, 1), F3)):
            with pytest.raises(DegreeLimitError, match="limited to degree 8"):
                enumerate_census(group)

    def test_every_enumerated_datum_is_valid(self):
        group = GroupSpec("SOodd", 5, 2, (0, 1), F3)
        for d in enumerate_data(group):
            for factor, s in zip(d.parahoric.factors, d.supports):
                validate_support(factor, s, F3)


class TestSignatures:
    GROUPS = [
        GroupSpec("Sp", 4, 2, (0, 0), F3),
        GroupSpec("Sp", 6, 3, (0, 0), F3),
        GroupSpec("SOodd", 5, 2, (0, 1), F3),
        GroupSpec("SOodd", 7, 3, (1, 0), F3),
        GroupSpec("SOeven", 8, 4, (0, 0), F3),
        GroupSpec("SOeven", 8, 3, (1, 1), F3),
        GroupSpec("Sp", 4, 2, (0, 0), F5),
        GroupSpec("Uunram", 5, 2, (1, 0), F9Q),
        GroupSpec("Uram", 7, 3, (1, 0), F3, epsilon=1),
    ]

    def test_weights_match_concrete_census(self):
        # The listed groups, then every group of the dual-dimension-6 sweep.
        for group in [*self.GROUPS, *iter_group_specs((3, 5), 6)]:
            data = enumerate_data(group, max_degree=4)
            by_sig = {}
            for d in data:
                sig = signature_of(d)
                by_sig[sig] = by_sig.get(sig, 0) + 1
            generated = dict()
            for sig, weight in enumerate_signatures(group, max_degree=4):
                assert sig not in generated, f"duplicate signature {sig} for {group}"
                generated[sig] = weight
            assert generated == by_sig, f"signature census mismatch for {group}"

    def test_representative_round_trip(self):
        for group in self.GROUPS:
            for sig, weight in enumerate_signatures(group, max_degree=4):
                assert weight >= 1
                rep = signature_representative(group, sig)
                assert signature_of(rep) == sig

    def test_weight_counts_class_choices(self):
        # Two interchangeable degree four classes over F3: a support naming
        # one of them stands for two concrete data.
        group = GroupSpec("Sp", 4, 2, (0, 0), F3)
        sigs = {sig: w for sig, w in enumerate_signatures(group)}
        deg4 = [sig for sig in sigs if any(t.degree == 4 for t, _, _ in sig.rows)]
        assert deg4 and all(sigs[s] == 2 for s in deg4)

    def test_weights_read_off_the_spend_match_the_rows(self):
        # enumerate_signatures reads each weight off its spend;
        # signature_weight computes it from the rows.  The weight digests
        # of TestEnumerationPins cover dual 9 at degree 4 and dual 10 at
        # degree 6; this goes on to dual 13 at degree 4.
        pinned = set(iter_group_specs((3, 5), 9))
        yielded = 0
        for group in iter_group_specs((3, 5), 13):
            if group in pinned:
                continue
            for sig, weight in enumerate_signatures(group, max_degree=4):
                assert weight == signature_weight(group, sig), (str(group), str(sig))
                yielded += 1
        assert yielded == 12266 - 2806

    def test_pooled_linear_row_is_refused_under_the_trivial_involution(self):
        # Over F3 the linear classes are x - 1 and x + 1, rows of their own.
        group = GroupSpec("Sp", 4, 2, (0, 0), F3)
        sig = DatumSignature(2, 0, ((ClassType(1, 2), 1, 0),))
        with pytest.raises(ValueError, match="linear classes are not pooled "
                                             "for the trivial involution"):
            signature_weight(group, sig)

    def test_representative_needs_enough_classes(self):
        # F3 has one self-dual class of degree 2, x^2 + 1.
        group = GroupSpec("Sp", 4, 2, (0, 0), F3)
        assert len(enumerate_self_dual_classes(F3, 2)) == 1
        sig = DatumSignature(2, 0, ((ClassType(2, 2), 1, 0), (ClassType(2, 2), 1, 0)))
        with pytest.raises(ValueError, match="not enough degree 2 classes"):
            signature_representative(group, sig)

    def test_every_datum_matches_its_representative(self):
        # The sweep checks one representative per signature.  Every
        # concrete datum must pass the same checks and give the same
        # results as its representative.  Its classes are not the
        # representative's, and the swap sets read off the group's
        # listing must still be those the search finds.
        checked = 0
        for group in self.GROUPS:
            trivial = group.field.ext == "trivial"
            listed = {sig.rows for sig, _ in enumerate_signatures(group, max_degree=4)}
            expected = {}
            for datum in enumerate_data(group, max_degree=4):
                for name, check in _CHECKS.items():
                    assert check(datum, listed) is None, (name, str(datum))
                assert listed_swap_sets(datum, listed) == companions(datum).swap_sets, str(datum)
                sig = signature_of(datum)
                if sig not in expected:
                    rep = signature_representative(group, sig)
                    expected[sig] = _signature_invariants(rep, trivial)
                assert _signature_invariants(datum, trivial) == expected[sig], str(datum)
                checked += 1
        assert checked == 489


def _signature_invariants(datum, trivial):
    """The checked quantities of a datum, with classes abstracted to degree.

    The x -+ 1 labels are kept only under the trivial involution, where
    those classes are not pooled.  delta (the slots carrying x + 1) is
    compared only there too: under the quadratic involution x + 1 is one
    of the pooled degree one classes, so delta depends on which of them a
    datum names (on U(5)/F9 it differs for 153 data), while the census
    law that reads delta applies to Sp alone.
    """
    def tag(cls):
        return (cls.degree, cls.label if trivial and cls.degree == 1 else "")

    def swaps(swap_sets):
        return sorted(sorted(tag(c) for c in s) for s in swap_sets)

    census = companions(datum)
    stats = packet_stats(census)
    out = {
        "identity": identity_sides(datum),
        "ired": sorted((tag(c), s) for c, s in ired(datum)),
        "companions": swaps(census.swap_sets),
        "closed form": swaps(enumerate_epsilon(datum)),
        "reps": count_representations(datum).total,
        "census": stats.census_total,
        "q": stats.q,
        "e": (stats.e, stats.e0),
        "jordan": stats.jordan_size,
        "shapes": len(parameter_shapes(datum)),
    }
    if trivial:
        out["delta"] = stats.delta
    return out


class TestEnumerationPins:
    """Both enumerations, pinned by digest: listings, signature order,
    weights and representatives must not move when the code does."""

    @staticmethod
    def digest(lines):
        h = hashlib.sha256()
        for line in lines:
            h.update(line.encode() + b"\n")
        return h.hexdigest()[:16]

    def test_signatures_are_pinned(self):
        lines = [f"{g}|{sig}|{w}|{signature_representative(g, sig)}"
                 for g in iter_group_specs((3, 5), 9)
                 for sig, w in enumerate_signatures(g, max_degree=4)]
        assert len(lines) == 2806
        assert self.digest(lines) == "a2e3e043f04f64aa"

    def test_degree_six_signatures_are_pinned(self):
        # Past degree 4: pooled rows of degrees 5 (unitary) and 6 (trivial).
        lines = [f"{g}|{sig}|{w}|{signature_representative(g, sig)}"
                 for g in iter_group_specs((3, 5), 10)
                 for sig, w in enumerate_signatures(g, max_degree=6)]
        assert len(lines) == 5416
        assert self.digest(lines) == "5051af24f5988c44"

    def test_concrete_data_are_pinned(self):
        lines = [str(d) for g in iter_group_specs((3, 5), 6)
                 for d in enumerate_data(g, max_degree=4)]
        assert len(lines) == 37234
        assert self.digest(lines) == "872a902b5c567335"
