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
The tables, char_poly_exponent and minus_type_exponent, take the type
of a class (ffpoly.ClassType: its degree, and whether it is x - 1, x + 1
or neither), never the class.

Validation clauses, in order: (a) classes match the factor's field and
involution (the degree parity needs no check: a self-dual class has odd
degree under the quadratic involution, and degree 1 or an even degree
under the trivial one, see ffpoly); (b) multiplicities are positive, which
FactorSupport enforces on construction; (c) the exponent totals (with the
implicit entry) equal the factor's dual dimension; (d) an SOeven factor's
support has the right type: the parity of m(x-1) + m(x+1) + sum of a_P
over nonlinear P must match the factor sign, minus-type blocks carrying
one sign each.  support_violation returns the first failing clause as a
value; validate_support raises it.

Both enumerations spend exponent budgets by one rule, _spend.  A slot's
budget is its dual dimension less the m = 0 costs (the implicit x - 1 of
an Sp slot), and an entry takes each multiplicity whose cost above the
m = 0 cost still fits, one per slot.  A support spends one slot with an
entry per class: x - 1 and x + 1 under the trivial involution, then the
classes by degree.  A signature spends both slots, with an entry per row
type (signature_type): x - 1 and x + 1 under the trivial involution,
holding one class each, then one per pooled degree, holding a copy per
class of that degree.  Both read the exponent table by class type
(_options).  Either way the results come in lexicographic order of the
multiplicities.  A census (enumerate_census) keeps each maximal
parahoric with the supports of its two factors: its data are the
products of the two lists, so a census is counted and listed without
building a datum.

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
slot is swapped and 2 n1 n2 when none is (_orbit_total, which serves
count_representations for one datum and census_total_reps for a census).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, factorial, perm
from operator import itemgetter, sub

from .ffpoly import (
    ClassType,
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
    "exponent_total",
    "support_violation",
    "validate_support",
    "count_representations",
    "slot_series",
    "datum_label",
    "enumerate_supports",
    "enumerate_census",
    "census_total_reps",
    "enumerate_data",
    "enumerate_signatures",
    "signature_of",
    "signature_type",
    "signature_weight",
    "signature_representative",
]


def _triangular(m: int) -> int:
    """m (m + 1) / 2: a_P of a nonlinear class, and of every class in a U slot."""
    return m * (m + 1) // 2


def char_poly_exponent(kind: str, ctype: ClassType, m: int) -> int:
    """Exponent a_P in the characteristic polynomial of every class P of
    the type, at multiplicity m: the table of the module docstring."""
    if m < 0:
        raise ValueError("multiplicity must be nonnegative")
    if kind == "U" or not ctype.is_linear:
        return _triangular(m)
    if kind == "SOodd":
        return 2 * (m * m + m)
    if kind == "Sp":
        return 2 * (m * m + m) + 1 if ctype.is_x_minus_one else 2 * m * m
    if kind == "SOeven":
        return 2 * m * m
    raise ValueError(f"unknown factor kind {kind!r}")


def minus_type_exponent(ctype: ClassType, m: int) -> int:
    """Number of minus-type blocks a class of the type contributes to an
    SOeven factor.

    Each linear eigenvalue block of parameter m contributes m such
    blocks; a nonlinear class contributes one per copy, that is a_P,
    since its restriction-of-scalars torus has minus type in every even
    degree.
    """
    return m if ctype.is_linear else _triangular(m)


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

    def __str__(self) -> str:
        if not self.entries:
            return "1"
        return " ".join(f"({c.label})^{m}" for c, m in self.entries)


def exponent_total(kind: str, entries) -> int:
    """Degree of the characteristic polynomial of (class, m) entries.

    An Sp factor whose entries omit x - 1 still carries it with m = 0
    and a = 1, so the total gains one.  The entries are read twice: pass
    a sequence or a dict view, not an iterator.
    """
    total = sum(char_poly_exponent(kind, cls.type, m) * cls.degree for cls, m in entries)
    if kind == "Sp" and not any(cls.type.is_x_minus_one for cls, _ in entries):
        total += 1
    return total


def support_violation(factor: FiniteFactor, support: FactorSupport,
                      field: FieldSpec) -> tuple[str, str] | None:
    """(clause, reason) of the first clause the support fails, None if valid."""
    if (factor.kind == "U") != (field.ext == "quadratic"):
        return "a", "factor kind does not match the field involution"
    for cls, _ in support.entries:
        if cls.field != field:
            return "a", f"class {cls.label} lives over the wrong field"
    total = exponent_total(factor.kind, support.entries)
    if total != factor.dual_dim:
        return "c", f"exponent total {total} differs from dual dimension {factor.dual_dim}"
    if factor.kind == "SOeven" and not _type_matches(
            factor, sum(minus_type_exponent(cls.type, m) for cls, m in support.entries)):
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
        return datum_label(self.parahoric, *self.supports)


def datum_label(parahoric: ParahoricSpec, support1: FactorSupport | str,
                support2: FactorSupport | str) -> str:
    """The label of a datum, from its parahoric and two supports or from
    their str texts: "<parahoric> [<support 1>] x [<support 2>]"."""
    return f"{parahoric} [{support1}] x [{support2}]"


@dataclass(frozen=True)
class RepCount:
    """Series counts per slot and the total number of representations."""

    n1: int
    n2: int
    component_order: int
    slot_actions: tuple[str, str]  # "fixed" or "swapped"
    total: int


def slot_series(factor: FiniteFactor, support: FactorSupport) -> tuple[int, str]:
    """Number of inertial series of the slot and the component action on
    them, read off which of x - 1 (rank 0) and x + 1 (rank 1) the
    support holds."""
    if factor.kind in ("SOodd", "U"):
        return 1, "fixed"
    ranks = {cls.type.rank for cls, _ in support.entries}
    if factor.kind == "Sp":
        return (2 if 1 in ranks else 1), "fixed"
    # SOeven
    if 0 not in ranks and 1 not in ranks:
        if factor.dual_dim > 0:
            return 2, "swapped"
        return 1, "fixed"
    if 0 in ranks and 1 in ranks:
        return 2, "fixed"
    return 1, "fixed"


def _orbit_total(order: int, slot1: tuple[int, str], slot2: tuple[int, str]) -> int:
    """The orbit rule of the module docstring: representations above two
    slots of the given slot_series, under a component group of the given
    order."""
    (n1, act1), (n2, act2) = slot1, slot2
    if order == 1:
        return n1 * n2
    if "swapped" in (act1, act2):
        return n1 * n2 // 2
    return 2 * n1 * n2


def count_representations(datum: CuspidalDatum) -> RepCount:
    """Representations above the datum: the orbit rule of the module
    docstring under the component group."""
    slots = tuple(map(slot_series, datum.parahoric.factors, datum.supports))
    (n1, act1), (n2, act2) = slots
    order = component_group_order(datum.parahoric)
    return RepCount(n1, n2, order, (act1, act2), _orbit_total(order, *slots))


def _degree_pool(field: FieldSpec, budget: int, max_degree: int | None) -> range:
    """Degrees of the pooled classes: even under the trivial involution,
    odd under the quadratic one.  A degree without classes drops out by
    itself: it lists none, and a signature entry gets no copies."""
    cap = budget if max_degree is None else min(budget, max_degree)
    return range(2 if field.ext == "trivial" else 1, cap + 1, 2)


@lru_cache(maxsize=4096)
def _options(kinds, ctype: ClassType, budgets) -> tuple[tuple, ...]:
    """(multiplicities, costs) of every choice on a class of the type, a
    tuple of each over the slots of the given kinds: the one fitting rule.
    A slot takes each m, ascending, whose cost (a_P(m) - a_P(0)) deg P
    fits its budget; the choices are the product over the slots, less the
    all-zero tuple.  Memoised, as the vertices of one group, of other
    groups and of the other field's copies share their kinds and budgets:
    one dual-6 sweep asks 450 times for 213 of them."""
    per_slot = []
    for kind, budget in zip(kinds, budgets):
        base = char_poly_exponent(kind, ctype, 0) * ctype.degree
        slot, m = [], 0
        while (cost := char_poly_exponent(kind, ctype, m) * ctype.degree - base) <= budget:
            slot.append((m, cost))
            m += 1
        per_slot.append(slot)
    return tuple(tuple(zip(*choice)) for choice in itertools.product(*per_slot)
                 if any(m for m, _ in choice))


def _spend(entries, budgets) -> list[tuple]:
    """Every way of spending the budgets (left after the m = 0 costs)
    exactly, as its (entry index, multiplicities) choices, in
    lexicographic order of the multiplicities.

    An entry is (copies, _options); its copies are interchangeable, so
    choices repeated on it are nonincreasing.  "Nothing more" comes first,
    then the next choice at the latest entry.  The recursion nests once
    per choice, and the first overflow in the first slot, whose cost only
    grows along the options, ends an entry's run.
    """
    out: list[tuple] = []
    acc: list[tuple[int, tuple[int, ...]]] = []

    def spend(start: int, bound: int | None, left: int, remaining: tuple[int, ...]) -> None:
        if not any(remaining):
            out.append(tuple(acc))
            return
        for index in range(len(entries) - 1, start - 1, -1):
            copies, options = entries[index]
            if index == start:  # the entry of the last choice: what is left of it
                copies, options = left, options[:bound]
            if not copies:
                continue
            for k, (ms, costs) in enumerate(options):
                if costs[0] > remaining[0]:
                    break
                rest = tuple(map(sub, remaining, costs))
                if min(rest) >= 0:
                    acc.append((index, ms))
                    spend(index, k + 1, copies - 1, rest)
                    acc.pop()

    spend(0, None, entries[0][0] if entries else 0, tuple(budgets))
    return out


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
    budget = factor.dual_dim - sum(char_poly_exponent(kind, cls.type, 0) * cls.degree
                                   for cls in pool)
    entries = [(1, _options((kind,), cls.type, (budget,))) for cls in pool]
    supports = (FactorSupport.of([(pool[index], m) for index, (m,) in way])
                for way in _spend(entries, (budget,)))
    return tuple(s for s in supports if support_violation(factor, s, field) is None)


Census = tuple[tuple[ParahoricSpec, tuple[tuple[FactorSupport, ...], ...]], ...]


def enumerate_census(group: GroupSpec, max_degree: int | None = None) -> Census:
    """Every maximal parahoric of the group with the valid supports of its
    two factors.  The data on a parahoric are the products of its two
    lists, first support outermost; every product is a valid datum.  Each
    distinct factor's supports are enumerated once per call.

    The census lists classes up to the top pool degree of its widest
    factor, and it lists that degree first, so that a census past
    MAX_ENUM_DEGREE refuses before it lists any class.  The widest factor
    of a slot sits on the first maximal parahoric from that slot's end of
    the chain: the end itself, or the next vertex when the end's slot is
    the split SO(2).  Both are built directly, so the reach is found, and
    a census refused, before the chain is built."""
    N = group.witt
    first, last = (next(p for p in (ParahoricSpec(group, *ns) for ns in ends) if p.maximal)
                   for ends in (((N, 0), (N - 1, 1)), ((0, N), (1, N - 1))))
    widest = max(first.factors[0].dual_dim, last.factors[1].dual_dim)
    degrees = _degree_pool(group.field, widest, max_degree)
    if degrees:  # refuses past the cap; within it, the supports reuse the classes
        enumerate_self_dual_classes(group.field, degrees[-1])
    supports: dict[FiniteFactor, tuple[FactorSupport, ...]] = {}
    census = []
    for parahoric in enumerate_parahorics(group):
        if not parahoric.maximal:
            continue
        for factor in parahoric.factors:
            if factor not in supports:
                supports[factor] = enumerate_supports(factor, group.field, max_degree)
        census.append((parahoric, tuple(supports[f] for f in parahoric.factors)))
    return tuple(census)


def census_total_reps(census: Census) -> int:
    """The sum of count_representations over every datum of the census:
    the orbit rule once per pair of slot series, weighted by how many
    supports of each slot give them."""
    total = 0
    for parahoric, slots in census:
        order = component_group_order(parahoric)
        series1, series2 = (Counter(slot_series(factor, s) for s in supports)
                            for factor, supports in zip(parahoric.factors, slots))
        total += sum(k1 * k2 * _orbit_total(order, slot1, slot2)
                     for slot1, k1 in series1.items() for slot2, k2 in series2.items())
    return total


def enumerate_data(group: GroupSpec, max_degree: int | None = None) -> tuple[CuspidalDatum, ...]:
    """Every cuspidal datum of the group, over all maximal parahorics: the
    products of enumerate_census, each built and validated."""
    return tuple(CuspidalDatum(parahoric, supports)
                 for parahoric, slots in enumerate_census(group, max_degree)
                 for supports in itertools.product(*slots))


# ---------------------------------------------------------------------------
# Signature enumeration.  Classes of equal degree enter every computed
# quantity interchangeably, so a census only needs one representative per
# "signature": one (type, m1, m2) row per class of nonzero pair, the type
# being signature_type of the class, with an exact count of how many
# concrete data share the signature.
# ---------------------------------------------------------------------------


def signature_type(cls: SelfDualClass) -> ClassType:
    """The type naming the class's signature row.  x - 1 and x + 1 keep
    their own types under the trivial involution; every other class is
    pooled with the classes of its degree, as ClassType(degree, 2)."""
    return cls.type if cls.field.ext == "trivial" else ClassType(cls.degree, 2)


@dataclass(frozen=True)
class DatumSignature:
    n1: int
    n2: int
    rows: tuple[tuple[ClassType, int, int], ...]  # sorted (type, m1, m2)

    def flipped(self) -> "DatumSignature":
        """The signature on the mirror form (groups.mirror), whose slots
        are this one's in reverse order: n1 <-> n2 and (m1, m2) <-> (m2, m1)."""
        return DatumSignature(self.n2, self.n1, tuple(sorted((t, b, a) for t, a, b in self.rows)))

    def __str__(self) -> str:
        parts = [f"({self.n1},{self.n2})"]
        parts.extend(f"{('x-1', 'x+1', f'd{t.degree}')[t.rank]}:{(a, b)}" for t, a, b in self.rows)
        return " ".join(parts)


def signature_of(datum: CuspidalDatum) -> DatumSignature:
    rows = sorted((signature_type(cls), *pair) for cls, pair in datum.pairs.items()
                  if pair != (0, 0))  # x -+ 1 when absent
    return DatumSignature(datum.parahoric.n1, datum.parahoric.n2, tuple(rows))


def signature_weight(group: GroupSpec, sig: DatumSignature) -> int:
    """Number of concrete data sharing the signature."""
    pooled = [row for row in sig.rows if row[0].rank == 2]  # x -+ 1 name one class each
    types = Counter(t for t, _, _ in pooled)
    if group.field.ext == "trivial" and ClassType(1, 2) in types:
        raise ValueError("linear classes are not pooled for the trivial involution")
    # Distinct classes go to the rows of each pooled type in order; rows
    # that repeat are interchangeable.
    weight = 1
    for t, k in types.items():
        weight *= perm(count_self_dual_classes(group.field, t.degree), k)
    for repeats in Counter(pooled).values():
        weight //= factorial(repeats)
    return weight


def signature_representative(group: GroupSpec, sig: DatumSignature) -> CuspidalDatum:
    """A concrete datum with the given signature, on canonical classes."""
    by_type: dict[ClassType, list[tuple[int, int]]] = {}
    for t, a, b in sig.rows:
        by_type.setdefault(t, []).append((a, b))
    entries = []
    for t, pairs in by_type.items():
        classes = enumerate_self_dual_classes(group.field, t.degree)
        if t.rank < 2:  # x - 1 or x + 1, first among the linear classes
            classes = classes[t.rank:t.rank + 1]
        if len(pairs) > len(classes):
            raise ValueError(f"not enough degree {t.degree} classes for the signature")
        entries.extend(zip(classes, pairs))
    supports = (FactorSupport.of([(cls, pair[slot]) for cls, pair in entries if pair[slot]])
                for slot in (0, 1))
    return CuspidalDatum(ParahoricSpec(group, sig.n1, sig.n2), tuple(supports))


def enumerate_signatures(group: GroupSpec, max_degree: int | None = None, mirrored=None):
    """Yield (signature, weight) over all maximal parahorics of the group.

    Each row type is spent with a copy per class of the type: one each
    for x - 1 and x + 1 under the trivial involution, and one per class
    of its degree for a pooled type.  Each weight is read off the spend
    (_way_weight).

    mirrored, if given, is the listing this yields for groups.mirror(group)
    at the same max_degree.  Its pairs are then flipped, in its order,
    and nothing is spent: DatumSignature.flipped maps the mirror's
    signatures one to one onto the group's, and the field, hence each
    weight, is the same."""
    if mirrored is not None:
        for sig, weight in mirrored:
            yield sig.flipped(), weight
        return
    field, kinds = group.field, group.slot_kinds
    linear = [t for t in map(signature_type, enumerate_self_dual_classes(field, 1)) if t.rank < 2]
    for parahoric in enumerate_parahorics(group):
        if not parahoric.maximal:
            continue
        budgets = tuple(f.dual_dim - sum(char_poly_exponent(f.kind, t, 0) for t in linear)
                        for f in parahoric.factors)
        types = [(1, t) for t in linear]
        types += [(count_self_dual_classes(field, d), ClassType(d, 2))
                  for d in _degree_pool(field, max(budgets), max_degree)]
        entries = [(copies, _options(kinds, t, budgets)) for copies, t in types]
        for way in _spend(entries, budgets):
            rows = tuple(sorted((types[index][1], *ms) for index, ms in way))
            sig = DatumSignature(parahoric.n1, parahoric.n2, rows)
            if _signature_sign_ok(parahoric, sig):
                yield sig, _way_weight(entries, way)


def _way_weight(entries, way) -> int:
    """The weight of the signature a way spends, read off the way: on each
    entry the distinct classes go to its choices in order, and a run of
    equal choices is interchangeable, so the entry gives the falling
    factorial of its copies over the factorial of each run.  Equal choices
    sit next to each other, as choices on one entry never increase.
    signature_weight, read off the rows, is its oracle."""
    weight = 1
    for index, choices in itertools.groupby(way, itemgetter(0)):
        left = entries[index][0]
        for _, run in itertools.groupby(choices):
            taken = sum(1 for _ in run)
            weight *= comb(left, taken)
            left -= taken
    return weight


def _signature_sign_ok(parahoric: ParahoricSpec, sig: DatumSignature) -> bool:
    """Clause d, evaluated on the signature without building a datum."""
    for index, factor in enumerate(parahoric.factors):
        if factor.kind == "SOeven" and not _type_matches(
                factor, sum(minus_type_exponent(t, ms[index]) for t, *ms in sig.rows)):
            return False
    return True
