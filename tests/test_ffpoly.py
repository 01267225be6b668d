"""Brute-force oracles for the self-dual class census and field arithmetic."""

import doctest
import functools
import hashlib
import itertools

import pytest

from cuspred import ffpoly
from cuspred.ffpoly import (
    FieldSpec,
    SelfDualClass,
    class_x_minus_one,
    class_x_plus_one,
    count_self_dual_classes,
    enumerate_self_dual_classes,
    field_table,
    is_irreducible,
    poly_text,
    sigma_dual,
)

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F9T = FieldSpec(3, 2, "trivial")
F9Q = FieldSpec(3, 2, "quadratic")
F25Q = FieldSpec(5, 2, "quadratic")

# Census values frozen from the torus closed forms: degree 1 gives x -+ 1
# (trivial) or the norm-one torus (quadratic); degree 2m gives
# (elements of exact degree in the torus of order q^m + 1) / 2m.
FROZEN_COUNTS = {
    (F3, 1): 2, (F3, 2): 1, (F3, 3): 0, (F3, 4): 2,
    (F5, 1): 2, (F5, 2): 2, (F5, 3): 0, (F5, 4): 6,
    (F9T, 1): 2, (F9T, 2): 4, (F9T, 3): 0, (F9T, 4): 20,
    (F9Q, 1): 4, (F9Q, 2): 0, (F9Q, 3): 8, (F9Q, 4): 0,
    (F25Q, 1): 6, (F25Q, 2): 0, (F25Q, 3): 40, (F25Q, 4): 0,
}

# Every field of at most 32 elements, both involutions where e is even,
# with the highest class degree the pin lists over it.
PINNED_FIELDS = [
    (FieldSpec(3), 8), (FieldSpec(5), 6), (FieldSpec(7), 4), (F9T, 5), (F9Q, 5),
    (FieldSpec(11), 4), (FieldSpec(13), 4), (FieldSpec(17), 4), (FieldSpec(19), 4),
    (FieldSpec(23), 4), (FieldSpec(5, 2, "trivial"), 3), (F25Q, 3), (FieldSpec(3, 3), 4),
    (FieldSpec(29), 4), (FieldSpec(31), 4),
]


def all_monic(field, degree):
    for lower in itertools.product(range(field.q), repeat=degree):
        yield lower + (1,)


def poly_mul(field, a, b):
    """Product of two coefficient tuples through the field tables."""
    F = field_table(field)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add[out[i + j]][F.mul[x][y]]
    return tuple(out)


@functools.lru_cache(maxsize=None)
def reducible_monic(field, degree):
    """Product sieve: a monic P of degree n is reducible exactly when it is
    a * b for monic a and b of degrees d and n - d, with 1 <= d <= n/2."""
    return frozenset(
        poly_mul(field, a, b)
        for d in range(1, degree // 2 + 1)
        for a in all_monic(field, d)
        for b in all_monic(field, degree - d)
    )


def oracle_irreducible(field, cs):
    """Irreducibility of a monic polynomial, read off the product sieve."""
    degree = len(cs) - 1
    return degree >= 1 and cs not in reducible_monic(field, degree)


def oracle_self_dual(field, cs):
    """Direct check of the coefficient functional equation."""
    F = field_table(field)
    if not cs or cs[0] == 0 or cs[-1] != 1:
        return False
    n = len(cs) - 1
    scale = F.inv[F.sigma[cs[0]]]
    return all(cs[i] == F.mul[F.sigma[cs[n - i]]][scale] for i in range(n + 1))


def brute_force_classes(field, degree):
    out = []
    for cand in all_monic(field, degree):
        if cand[0] == 0:
            continue
        if oracle_self_dual(field, cand) and oracle_irreducible(field, cand):
            out.append(cand)
    return sorted(out)


class TestFieldTable:
    def test_defining_polynomials(self):
        # Smallest primitive monic irreducible, coefficients from the
        # constant term up: x^2 + x + 2 for both GF(9) and GF(25).
        assert field_table(F9Q).modulus == (2, 1)
        assert field_table(F25Q).modulus == (2, 1)
        assert field_table(F3).modulus is None

    @pytest.mark.parametrize("spec", [F3, F9Q, F25Q])
    def test_field_axioms_exhaustive(self, spec):
        F = field_table(spec)
        q = spec.q
        for a in range(q):
            assert F.add[a][0] == a
            assert F.mul[a][1] == a
            assert F.add[a][F.neg[a]] == 0
            if a:
                assert F.mul[a][F.inv[a]] == 1
        for a in range(q):
            for b in range(q):
                assert F.add[a][b] == F.add[b][a]
                assert F.mul[a][b] == F.mul[b][a]
        for a in range(q):
            for b in range(q):
                for c in range(0, q, max(1, q // 7)):
                    assert F.mul[a][F.add[b][c]] == F.add[F.mul[a][b]][F.mul[a][c]]
                    assert F.mul[a][F.mul[b][c]] == F.mul[F.mul[a][b]][c]

    def test_tables_and_classes_are_pinned(self):
        # One digest over every supported field: the modulus, the add, mul,
        # neg, inv and sigma tables, pow(a, n) for 0 <= n <= q, and each
        # class listing (coefficients, label and order).
        digest = hashlib.sha256()
        for spec, maxdeg in PINNED_FIELDS:
            F = field_table(spec)
            q = spec.q
            rows = [
                repr(spec),
                F.modulus,
                [[F.add[a][b] for b in range(q)] for a in range(q)],
                [[F.mul[a][b] for b in range(q)] for a in range(q)],
                [F.neg[a] for a in range(q)],
                [F.inv[a] for a in range(1, q)],
                [F.sigma[a] for a in range(q)],
                [[F.pow(a, n) for n in range(q + 1)] for a in range(q)],
                [[(c.coeffs, c.label) for c in enumerate_self_dual_classes(spec, d)]
                 for d in range(1, maxdeg + 1)],
            ]
            digest.update(repr(rows).encode())
        assert digest.hexdigest()[:16] == "8f96ed6af6584127"

    def test_frobenius_and_sigma(self):
        F = field_table(F9Q)
        for a in range(9):
            assert F.sigma[a] == F.pow(a, 3)
            assert F.sigma[F.sigma[a]] == a
            for b in range(9):
                assert F.sigma[F.mul[a][b]] == F.mul[F.sigma[a]][F.sigma[b]]
                assert F.sigma[F.add[a][b]] == F.add[F.sigma[a]][F.sigma[b]]
        # sigma fixes exactly the prime subfield here
        assert [a for a in range(9) if F.sigma[a] == a] == [0, 1, 2]

    def test_norm_one_torus_size(self):
        assert len(field_table(F9Q).norm_one) == 4
        assert len(field_table(F25Q).norm_one) == 6

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FieldSpec(2)
        with pytest.raises(ValueError):
            FieldSpec(4)
        with pytest.raises(ValueError):
            FieldSpec(3, 4)  # 81 > 32
        with pytest.raises(ValueError):
            FieldSpec(3, 1, "quadratic")
        with pytest.raises(ValueError):
            FieldSpec(3, 1, "weird")
        # The size is bounded before p is factored or p ** e is formed,
        # so a huge p or e is refused at once.
        with pytest.raises(ValueError, match="field size 1000000000000000003 exceeds 32"):
            FieldSpec(1000000000000000003)
        with pytest.raises(ValueError, match=r"field size 3\^100000000 exceeds 32"):
            FieldSpec(3, 100000000)
        with pytest.raises(ValueError, match="field size 37 exceeds 32"):
            FieldSpec(37)
        with pytest.raises(ValueError, match="field size 243 exceeds 32"):
            FieldSpec(3, 5)


class TestPoly:
    def test_str_rendering(self):
        assert poly_text((1, 0, 1)) == "x^2+1"
        assert poly_text((2, 1)) == "x+2"
        assert poly_text(()) == "0"
        assert poly_text((0, 2, 1)) == "x^2+2x"

    def test_normalization(self):
        with pytest.raises(ValueError, match="^leading coefficient must be nonzero$"):
            SelfDualClass(F3, (1, 0))
        with pytest.raises(ValueError, match="^coefficient out of range for the field$"):
            SelfDualClass(F3, (3, 1))


class TestIrreducibility:
    @pytest.mark.parametrize("field,maxdeg", [
        (F3, 5), (F5, 4), (F9Q, 3), (FieldSpec(3, 3), 3), (FieldSpec(5, 2, "trivial"), 2),
    ])
    def test_matches_trial_division(self, field, maxdeg):
        F = field_table(field)
        for degree in range(1, maxdeg + 1):
            # Past 10,000 polynomials of one degree (the F27 cubics) take
            # every 11th, to keep the test to seconds: 11 is prime to 27,
            # so every coefficient value still occurs.
            step = 1 if field.q ** degree <= 10_000 else 11
            for cand in itertools.islice(all_monic(field, degree), 0, None, step):
                expected = oracle_irreducible(field, cand)
                assert is_irreducible(field, cand) == expected, poly_text(cand)
                # -P is not monic and has the same factors.
                negated = tuple(F.neg[c] for c in cand)
                assert is_irreducible(field, negated) == expected, poly_text(negated)


class TestSigmaDual:
    @pytest.mark.parametrize("field", [F3, F9Q])
    def test_involution_on_monic(self, field):
        for degree in (1, 2, 3):
            for cand in all_monic(field, degree):
                if cand[0] == 0:
                    continue
                assert sigma_dual(field, sigma_dual(field, cand)) == cand

    def test_trivial_dual_is_reciprocal(self):
        p = (2, 1, 0, 1)  # x^3 + x + 2
        dual = sigma_dual(F3, p)
        # roots of the dual are the inverse roots: constant 2^{-1} = 2
        assert dual == (2, 0, 2, 1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sigma_dual(F3, (0, 1))
        with pytest.raises(ValueError):
            sigma_dual(F3, (1, 2))


class TestCensus:
    @pytest.mark.parametrize("field,degree", sorted(FROZEN_COUNTS, key=str))
    def test_frozen_counts(self, field, degree):
        assert count_self_dual_classes(field, degree) == FROZEN_COUNTS[(field, degree)]
        if degree <= 4:
            assert len(enumerate_self_dual_classes(field, degree)) == FROZEN_COUNTS[(field, degree)]

    @pytest.mark.parametrize("field,maxdeg", [(F3, 4), (F5, 4), (F9T, 4), (F9Q, 3)])
    def test_enumeration_matches_brute_force(self, field, maxdeg):
        for degree in range(1, maxdeg + 1):
            got = sorted(c.coeffs for c in enumerate_self_dual_classes(field, degree))
            assert got == brute_force_classes(field, degree), (field, degree)

    # Past the reach of the brute-force oracle the listing is checked
    # against the torus count.
    @pytest.mark.parametrize("field,degree", [(F9Q, 7), (F25Q, 5), (F5, 8)])
    def test_listing_matches_count(self, field, degree):
        assert len(enumerate_self_dual_classes(field, degree)) == count_self_dual_classes(field, degree)

    def test_parity_laws(self):
        # trivial involution: no odd degree beyond 1; quadratic: odd only
        for d in (3, 5, 7):
            assert count_self_dual_classes(F5, d) == 0
        for d in (2, 4, 6, 8):
            assert count_self_dual_classes(F9Q, d) == 0

    def test_classes_are_validated(self):
        with pytest.raises(ValueError, match=r"^x\^2\+x\+1 is not irreducible$"):
            SelfDualClass(F3, (1, 1, 1))  # x^2+x+1 has root 1
        with pytest.raises(ValueError, match=r"^x\^2\+2 is not irreducible$"):
            SelfDualClass(F3, (2, 0, 1))  # x^2+2 = (x-1)(x+1), self-dual
        with pytest.raises(ValueError, match=r"^x\^2\+x\+2 is not self-dual$"):
            SelfDualClass(F3, (2, 1, 1))  # its dual is x^2+2x+2

    def test_linear_helpers(self):
        assert class_x_minus_one(F3).label == "x-1"
        assert class_x_minus_one(F3).coeffs == (2, 1)
        assert class_x_plus_one(F3).label == "x+1"
        a, b = enumerate_self_dual_classes(F3, 1)
        assert (a.type.rank, b.type.rank) == (0, 1)
        quad_linear = enumerate_self_dual_classes(F9Q, 1)
        assert (quad_linear[0].type.rank, quad_linear[1].type.rank) == (0, 1)
        assert len(quad_linear) == 4


def test_doctests():
    failures, _ = doctest.testmod(ffpoly)
    assert failures == 0
