"""Cuspidal data on the parahoric quotients, with validation and counts.

A depth-zero cuspidal datum assigns to each of the two finite factors of
a maximal parahoric quotient a support: a finite set of self-dual
classes P with multiplicities m_P >= 1.  The support encodes a semisimple
class with characteristic polynomial prod P^(a_P), where the exponent
a_P depends on the factor kind and on whether P is linear:

    nonlinear P, every kind:  a_P = m (m + 1) / 2
    linear, SOodd:            a(x-1) = 2 (m^2 + m),  a(x+1) = same
    linear, Sp:               a(x-1) = 2 (m^2 + m) + 1,  a(x+1) = 2 m^2
    linear, SOeven:           a(x-1) = 2 m^2,  a(x+1) = 2 m^2
    U:                        the nonlinear formula throughout

A symplectic factor always carries x - 1: when the support omits it, the
entry is implicit with m = 0 and a = 1, so the exponent totals of a
symplectic factor add to dim + 1 rather than dim.

Validation clauses, in order: (a) classes match the factor's field,
involution and degree parity; (b) multiplicities are positive, which
FactorSupport enforces on construction; (c) the exponent totals (with the
implicit entry) equal the factor's dual dimension; (d) an SOeven factor's
support has the right type: the parity of m(x-1) + m(x+1) + sum of a_P
over nonlinear P must match the factor sign, minus-type blocks carrying
one sign each.  support_violation returns the first failing clause as a
value; validate_support raises it.

Enumeration follows one fitting rule for every class, x - 1 and x + 1
included: take each m whose cost a_P(m) deg P still fits the remaining
exponent budget.  Only the exponent table tells x -+ 1 apart, so under
the trivial involution they are the first two entries of the class pool.

Every computed quantity reads a datum through one map, CuspidalDatum.pairs:
each support class, together with x - 1 and x + 1, goes to its pair of
multiplicities (m1, m2), one per slot, with 0 where the class is absent.

Representation counts: a factor contributes n = 1 inertial series, or 2
when the semisimple class supports a split pair (slot_series; every
swapped slot has n = 2).  A group of signs acts on the series labels, a
sign exchanging the two labels of a swapped slot, and a count sums the
stabiliser order over the orbits.  With one sign per slot the count is a
product: a slot gives n when no sign reaches it, 1 when swapped and 2n
otherwise (packets.full_orthogonal_count, a sign per slot of positive
dimension).  The component group of the parahoric has order 1, giving
n1 n2, or 2 with one sign flipping both slots, giving n1 n2 / 2 when a
slot is swapped and 2 n1 n2 when none is (count_representations).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from math import factorial, perm

from .ffpoly import (
    FieldSpec,
    SelfDualClass,
    class_x_minus_one,
    class_x_plus_one,
    count_self_dual_classes,
    enumerate_self_dual_classes,
)
from .groups import (
    FiniteFactor,
    GroupSpec,
    ParahoricSpec,
    component_group_order,
    enumerate_parahorics,
)

__all__ = [
    "FactorSupport",
    "CuspidalDatum",
    "RepCount",
    "DatumSignature",
    "char_poly_exponent",
    "minus_type_exponent",
    "linear_multiplicities",
    "exponent_total",
    "support_violation",
    "validate_support",
    "count_representations",
    "slot_series",
    "enumerate_supports",
    "enumerate_data",
    "enumerate_signatures",
    "signature_of",
    "signature_weight",
    "signature_representative",
]


def _triangular(m: int) -> int:
    """m (m + 1) / 2: a_P of a nonlinear class, and of every class in a U slot."""
    return m * (m + 1) // 2


def char_poly_exponent(kind: str, cls: SelfDualClass, m: int) -> int:
    """Exponent a_P of the class P in the characteristic polynomial."""
    if m < 0:
        raise ValueError("multiplicity must be nonnegative")
    if kind == "U" or not cls.is_linear:
        return _triangular(m)
    if kind == "SOodd":
        return 2 * (m * m + m)
    if kind == "Sp":
        return 2 * (m * m + m) + 1 if cls.is_x_minus_one else 2 * m * m
    if kind == "SOeven":
        return 2 * m * m
    raise ValueError(f"unknown factor kind {kind!r}")


def minus_type_exponent(cls: SelfDualClass, m: int) -> int:
    """Number of minus-type blocks contributed to an SOeven factor.

    Each linear eigenvalue block of parameter m contributes m such
    blocks; a nonlinear class contributes one per copy, that is a_P,
    since its restriction-of-scalars torus has minus type in every even
    degree.
    """
    return m if cls.is_linear else _triangular(m)


def _type_matches(factor: FiniteFactor, blocks: int) -> bool:
    """Clause d: the parity of the minus-type blocks gives the factor sign."""
    return (-1) ** blocks == factor.sign


@dataclass(frozen=True)
class FactorSupport:
    """Multiset of self-dual classes with positive multiplicities."""

    entries: tuple[tuple[SelfDualClass, int], ...]

    def __post_init__(self) -> None:
        keys = [cls.sort_key for cls, _ in self.entries]
        if len(set(keys)) != len(keys):
            twice = next(cls for cls, _ in self.entries if keys.count(cls.sort_key) > 1)
            raise ValueError(f"polynomial {twice.label} is listed twice in one support")
        if keys != sorted(keys):
            raise ValueError("entries must be sorted by class")
        if any(m < 1 for _, m in self.entries):
            raise ValueError("multiplicities must be positive")

    @staticmethod
    def of(pairs) -> "FactorSupport":
        return FactorSupport(tuple(sorted(pairs, key=lambda kv: kv[0].sort_key)))

    @staticmethod
    def empty() -> "FactorSupport":
        return FactorSupport(())

    def get(self, cls: SelfDualClass) -> int:
        for c, m in self.entries:
            if c == cls:
                return m
        return 0

    def __str__(self) -> str:
        if not self.entries:
            return "1"
        return " ".join(f"({c.label})^{m}" for c, m in self.entries)


def linear_multiplicities(support: FactorSupport, field: FieldSpec) -> tuple[int, int]:
    """Multiplicities (m at x-1, m at x+1), zero when absent."""
    return (support.get(class_x_minus_one(field)),
            support.get(class_x_plus_one(field)))


def exponent_total(kind: str, entries) -> int:
    """Degree of the characteristic polynomial of (class, m) entries.

    An Sp factor whose entries omit x - 1 still carries it with m = 0
    and a = 1, so the total gains one.  The entries are read twice: pass
    a sequence or a dict view, not an iterator.
    """
    total = sum(char_poly_exponent(kind, cls, m) * cls.degree for cls, m in entries)
    if kind == "Sp" and not any(cls.is_x_minus_one for cls, _ in entries):
        total += 1
    return total


def support_violation(factor: FiniteFactor, support: FactorSupport,
                      field: FieldSpec) -> tuple[str, str] | None:
    """(clause, reason) of the first clause the support fails, None if valid."""
    unitary = factor.kind == "U"
    if unitary != (field.ext == "quadratic"):
        return "a", "factor kind does not match the field involution"
    for cls, _ in support.entries:
        if cls.field != field:
            return "a", f"class {cls.label} lives over the wrong field"
        if unitary:
            if cls.degree % 2 == 0:
                return "a", f"class {cls.label} has even degree"
        elif cls.degree != 1 and cls.degree % 2:
            return "a", f"class {cls.label} has odd degree above 1"
    total = exponent_total(factor.kind, support.entries)
    if total != factor.dual_dim:
        return "c", f"exponent total {total} differs from dual dimension {factor.dual_dim}"
    if factor.kind == "SOeven" and not _type_matches(
            factor, sum(minus_type_exponent(cls, m) for cls, m in support.entries)):
        return "d", "support type does not match the factor sign"
    return None


def validate_support(factor: FiniteFactor, support: FactorSupport, field: FieldSpec) -> None:
    """Raise ValueError naming the first clause the support fails."""
    violation = support_violation(factor, support, field)
    if violation is not None:
        clause, reason = violation
        raise ValueError(f"clause {clause}: {reason}")


@dataclass(frozen=True)
class CuspidalDatum:
    """A maximal parahoric together with one valid support per factor."""

    parahoric: ParahoricSpec
    supports: tuple[FactorSupport, FactorSupport]

    def __post_init__(self) -> None:
        if not self.parahoric.maximal:
            raise ValueError("cuspidal data live on maximal parahorics")
        field = self.group.field
        for factor, support in zip(self.parahoric.factors, self.supports):
            validate_support(factor, support, field)

    @property
    def group(self) -> GroupSpec:
        return self.parahoric.group

    @property
    def field(self) -> FieldSpec:
        return self.group.field

    @cached_property
    def pairs(self) -> dict[SelfDualClass, tuple[int, int]]:
        """Class -> (m1, m2) over the support classes and x -+ 1, in sort_key
        order, 0 where a class is absent.  Computed once, outside the fields
        (==, hash and repr ignore it); callers must not mutate it."""
        m1, m2 = (dict(support.entries) for support in self.supports)
        field = self.field
        classes = {class_x_minus_one(field), class_x_plus_one(field), *m1, *m2}
        return {cls: (m1.get(cls, 0), m2.get(cls, 0))
                for cls in sorted(classes, key=lambda c: c.sort_key)}

    def __str__(self) -> str:
        s1, s2 = self.supports
        return f"{self.parahoric} [{s1}] x [{s2}]"


@dataclass(frozen=True)
class RepCount:
    """Series counts per slot and the total number of representations."""

    n1: int
    n2: int
    component_order: int
    slot_actions: tuple[str, str]  # "fixed" or "swapped"
    total: int


def slot_series(factor: FiniteFactor, support: FactorSupport, field: FieldSpec) -> tuple[int, str]:
    """Number of inertial series of the slot and the component action on them."""
    if factor.kind in ("SOodd", "U"):
        return 1, "fixed"
    m_plus, m_minus = linear_multiplicities(support, field)
    if factor.kind == "Sp":
        return (2 if m_minus > 0 else 1), "fixed"
    # SOeven
    if m_plus == 0 and m_minus == 0:
        if factor.dual_dim > 0:
            return 2, "swapped"
        return 1, "fixed"
    if m_plus > 0 and m_minus > 0:
        return 2, "fixed"
    return 1, "fixed"


def count_representations(datum: CuspidalDatum) -> RepCount:
    """Representations above the datum: the orbit rule of the module
    docstring under the component group."""
    field = datum.field
    (f1, f2) = datum.parahoric.factors
    n1, act1 = slot_series(f1, datum.supports[0], field)
    n2, act2 = slot_series(f2, datum.supports[1], field)
    order = component_group_order(datum.parahoric)
    if order == 1:
        total = n1 * n2
    elif "swapped" in (act1, act2):
        total = n1 * n2 // 2
    else:
        total = 2 * n1 * n2
    return RepCount(n1, n2, order, (act1, act2), total)


def _degree_pool(field: FieldSpec, budget: int, max_degree: int | None) -> list[int]:
    cap = budget if max_degree is None else min(budget, max_degree)
    if field.ext == "trivial":
        return [d for d in range(2, cap + 1, 2) if count_self_dual_classes(field, d) > 0]
    return [d for d in range(1, cap + 1, 2) if count_self_dual_classes(field, d) > 0]


def _fits(exponent, degree: int, budget: int):
    """Yield (m, cost) for m = 0, 1, ... while cost = exponent(m) * degree
    fits the budget: the one fitting rule of every multiplicity loop.

    Every exponent table grows with m, so the first cost over the budget
    ends the run.  In an Sp slot, x - 1 costs 1 already at m = 0: the
    implicit entry.
    """
    m = 0
    while (cost := exponent(m) * degree) <= budget:
        yield m, cost
        m += 1


def enumerate_supports(factor: FiniteFactor, field: FieldSpec,
                       max_degree: int | None = None) -> tuple[FactorSupport, ...]:
    """All valid supports of one factor, nonlinear degrees capped if asked.

    Supports come in lexicographic order of their multiplicities over the
    class pool: x - 1, x + 1, then classes by degree.
    """
    kind = factor.kind
    pool = [c for d in _degree_pool(field, factor.dual_dim, max_degree)
            for c in enumerate_self_dual_classes(field, d)]
    if kind != "U":
        pool = [class_x_minus_one(field), class_x_plus_one(field), *pool]
    # Every class pays its m = 0 cost (the implicit x - 1 of an Sp slot)
    # up front, and the recursion enters only the classes given m >= 1,
    # so it nests at most one level per unit of the budget.
    base = [char_poly_exponent(kind, cls, 0) * cls.degree for cls in pool]
    out: list[FactorSupport] = []
    acc: list[tuple[SelfDualClass, int]] = []

    def fill(start: int, remaining: int) -> None:
        if remaining == 0:
            support = FactorSupport.of(acc)
            if support_violation(factor, support, field) is None:
                out.append(support)
            return
        # In lexicographic order the empty tail (above) comes first, then
        # the next entry at the latest class first, m ascending.  The
        # fitting rule of _fits is inlined: a generator per call made
        # census runs measurably slower.
        for index in range(len(pool) - 1, start - 1, -1):
            cls = pool[index]
            m = 1
            while (cost := char_poly_exponent(kind, cls, m) * cls.degree
                   - base[index]) <= remaining:
                acc.append((cls, m))
                fill(index + 1, remaining - cost)
                acc.pop()
                m += 1

    fill(0, factor.dual_dim - sum(base))
    return tuple(out)


def enumerate_data(group: GroupSpec, max_degree: int | None = None) -> tuple[CuspidalDatum, ...]:
    """Every cuspidal datum of the group, over all maximal parahorics."""
    return tuple(
        CuspidalDatum(parahoric, supports)
        for parahoric in enumerate_parahorics(group) if parahoric.maximal
        for supports in itertools.product(*(enumerate_supports(f, group.field, max_degree)
                                            for f in parahoric.factors)))


# ---------------------------------------------------------------------------
# Signature enumeration.  Classes of equal degree enter every computed
# quantity interchangeably, so a census only needs one representative per
# "signature": the multiplicity pairs at x -+ 1 (trivial involution) plus
# the multiset of (degree, m1, m2) triples over anonymous classes, with an
# exact count of how many concrete data share the signature.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatumSignature:
    n1: int
    n2: int
    m_plus: tuple[int, int]
    m_minus: tuple[int, int]
    pooled: tuple[tuple[int, int, int], ...]  # sorted (degree, m1, m2)

    def __str__(self) -> str:
        parts = [f"({self.n1},{self.n2})"]
        if self.m_plus != (0, 0):
            parts.append(f"x-1:{self.m_plus}")
        if self.m_minus != (0, 0):
            parts.append(f"x+1:{self.m_minus}")
        parts.extend(f"d{d}:{(a, b)}" for d, a, b in self.pooled)
        return " ".join(parts)


def signature_of(datum: CuspidalDatum) -> DatumSignature:
    field = datum.field
    pooled = []
    m_plus = (0, 0)
    m_minus = (0, 0)
    for cls, pair in datum.pairs.items():
        if pair == (0, 0):
            continue  # x -+ 1 when absent
        if field.ext == "trivial" and cls.is_x_minus_one:
            m_plus = pair
        elif field.ext == "trivial" and cls.is_x_plus_one:
            m_minus = pair
        else:
            pooled.append((cls.degree, pair[0], pair[1]))
    return DatumSignature(datum.parahoric.n1, datum.parahoric.n2,
                          m_plus, m_minus, tuple(sorted(pooled)))


def signature_weight(group: GroupSpec, sig: DatumSignature) -> int:
    """Number of concrete data sharing the signature."""
    if group.field.ext == "trivial" and any(d == 1 for d, _, _ in sig.pooled):
        raise ValueError("linear classes are not pooled for the trivial involution")
    # Distinct classes go to the pooled triples of each degree in order;
    # triples that repeat are interchangeable.
    weight = 1
    for degree, k in Counter(d for d, _, _ in sig.pooled).items():
        weight *= perm(count_self_dual_classes(group.field, degree), k)
    for repeats in Counter(sig.pooled).values():
        weight //= factorial(repeats)
    return weight


def signature_representative(group: GroupSpec, sig: DatumSignature) -> CuspidalDatum:
    """A concrete datum with the given signature, on canonical classes."""
    field = group.field
    entries = [(class_x_minus_one(field), sig.m_plus), (class_x_plus_one(field), sig.m_minus)]
    by_degree: dict[int, list[tuple[int, int]]] = {}
    for d, a, b in sig.pooled:
        by_degree.setdefault(d, []).append((a, b))
    for d, pairs in by_degree.items():
        classes = enumerate_self_dual_classes(field, d)
        if len(pairs) > len(classes):
            raise ValueError(f"not enough degree {d} classes for the signature")
        entries.extend(zip(classes, pairs))
    supports = (FactorSupport.of([(cls, pair[slot]) for cls, pair in entries if pair[slot]])
                for slot in (0, 1))
    return CuspidalDatum(ParahoricSpec(group, sig.n1, sig.n2), tuple(supports))


def _pooled_signatures(field: FieldSpec, budgets: tuple[int, int],
                       max_degree: int | None):
    """Yield sorted triple tuples filling both exponent budgets exactly.

    Pooled classes all follow the nonlinear exponent m (m + 1) / 2, so
    only the pair (m1, m2) matters; pairs at one degree are emitted in
    nonincreasing order to list each multiset once.
    """
    degrees = _degree_pool(field, max(budgets), max_degree)
    counts = {d: count_self_dual_classes(field, d) for d in degrees}

    def rec(deg_index: int, b1: int, b2: int, acc: list):
        if b1 == 0 and b2 == 0:
            yield tuple(acc)
            return
        if deg_index >= len(degrees):
            return
        d = degrees[deg_index]

        def choose(last_pair, left, r1, r2):
            yield from rec(deg_index + 1, r1, r2, acc)
            if left == 0:
                return
            for (m1, c1), (m2, c2) in itertools.product(_fits(_triangular, d, r1),
                                                        _fits(_triangular, d, r2)):
                pair = (m1, m2)
                if pair != (0, 0) and pair <= last_pair:
                    acc.append((d, m1, m2))
                    yield from choose(pair, left - 1, r1 - c1, r2 - c2)
                    acc.pop()

        top = (max(budgets) + 1, max(budgets) + 1)
        yield from choose(top, counts[d], b1, b2)

    yield from rec(0, budgets[0], budgets[1], [])


def enumerate_signatures(group: GroupSpec, max_degree: int | None = None):
    """Yield (signature, weight) over all maximal parahorics of the group."""
    field = group.field
    for parahoric in enumerate_parahorics(group):
        if not parahoric.maximal:
            continue
        f1, f2 = parahoric.factors
        b1, b2 = budgets = (f1.dual_dim, f2.dual_dim)
        if field.ext == "quadratic":
            linear_choices = [((0, 0), (0, 0), budgets)]
        else:
            def fits(cls, r1, r2):  # ((m1, cost1), (m2, cost2)) in both slots
                return itertools.product(_fits(partial(char_poly_exponent, f1.kind, cls), 1, r1),
                                         _fits(partial(char_poly_exponent, f2.kind, cls), 1, r2))

            xm, xp = class_x_minus_one(field), class_x_plus_one(field)
            linear_choices = [((mp1, mp2), (mm1, mm2), (b1 - cp1 - cm1, b2 - cp2 - cm2))
                              for (mp1, cp1), (mp2, cp2) in fits(xm, b1, b2)
                              for (mm1, cm1), (mm2, cm2) in fits(xp, b1 - cp1, b2 - cp2)]
        for m_plus, m_minus, rem in linear_choices:
            for pooled in _pooled_signatures(field, rem, max_degree):
                sig = DatumSignature(parahoric.n1, parahoric.n2, m_plus, m_minus,
                                     tuple(sorted(pooled)))
                if not _signature_sign_ok(parahoric, sig):
                    continue
                yield sig, signature_weight(group, sig)


def _signature_sign_ok(parahoric: ParahoricSpec, sig: DatumSignature) -> bool:
    """Clause d, evaluated on the signature without building a datum."""
    for index, factor in enumerate(parahoric.factors):
        if factor.kind != "SOeven":
            continue
        blocks = sig.m_plus[index] + sig.m_minus[index]
        blocks += sum(_triangular(pair[index]) for _, *pair in sig.pooled)
        if not _type_matches(factor, blocks):
            return False
    return True
