"""Companion censuses, cross-form matching and packet statistics.

Two cuspidal data share reducibility behaviour exactly when they share
the multiset of real reducibility points.  The companions of a datum
are produced by swapping the slot multiplicities m1 <-> m2 of some set
of classes and re-solving for the parahoric; a swap set survives when
the swapped supports are valid on some maximal parahoric of the same
group and the reducibility points are unchanged.

The surviving swap sets admit a closed description.  A class with
m1 = m2 never moves.  Among the others (the raw set), a class is kept
exactly when the two slot exponent formulas differ by a constant, so
that the swap conserves the total; this removes x -+ 1 for odd
orthogonal groups, x - 1 for even ramified unitary groups and x + 1
for odd ones.  A kept class is constrained when swapping it flips a
parity the form pins down: the type of an even orthogonal slot, or the
slot dimension parity of an unramified unitary group.  Constrained
classes must be swapped in pairs; free classes swap independently.
Swaps of removed classes can conserve the totals jointly and even
validate, but they always move a reducibility point, so the census
filter eliminates them; the closed description and the generate and
validate search agree.

The search scores every subset on integers before it builds anything.
Against the slot kinds of the group searched, each class of datum.pairs
has, unswapped and swapped, its two slot exponent costs a_P(m) deg P
(x - 1 at m = 0 costs the implicit Sp entry), its two minus-type block
counts, and its real reducibility points (hecke.real_points, the s >= 1
members of hecke.type_exponent_pair).  All three are per class: the totals
and block counts of a swapped datum are sums over its classes, and its
IRed lists the points class by class in canonical order.  So a subset
scores as the unswapped sums plus the deltas of its classes, and it
keeps the points exactly when each swapped class keeps them swapped and
each other class unswapped.  What the search reads of a class is one
row, memoised on the searched and the datum's own slot kinds, the class
type and the pair: the four unswapped numbers, their swap delta, and
whether the points unswapped and swapped are the datum's own; so each
class costs one lookup per search.  Subsets are visited by _subsets, the
walk the closed form takes too: by size, each size in lexicographic
order.  A subset's totals are the unswapped sums plus the deltas of its
classes, summed for that subset alone, so the walk holds one subset at
a time, O(q) memory however large q is.
The totals name the parahoric through groups.parahoric_of, an
arithmetic solve of the dual-dimension rule that costs the same at any
Witt index, and the score hands it on.  The score rejects a missing or
nonmaximal parahoric, an SOeven slot whose block parity contradicts its
sign, and a swap that moves a point; clauses a and b hold for every
swap.  Each survivor is built once, on its parahoric, and validated in
full, by _survivor for the census and the cross-form search alike,
except the empty swap on the datum's own parahoric: _survivor reuses
the datum itself, already validated.  A survivor that
fails validation, or a kept swap that passes all but the points, is an
internal error naming the swap.  The closed form, enumerate_epsilon,
asks parahoric_of only whether a swap re-solves at all.

The census swap sets can also be read off the group's own signature
listing, without building a datum: listed_swap_sets, which the sweep
uses, as it lists every group anyway.  The points are compared class by
class, so a swap keeps them exactly when each class it swaps keeps them
swapped (the search's test, here on the datum's own group), and only
subsets of those raw classes are walked, in _subsets order.  Such a swap
has a survivor exactly when the swapped rows (DatumSignature.rows) are
those of a listed signature.  The rows fix the exponent totals of both
slots, so the dual-dimension rule names at most one parahoric, the one
the search's score names.  A listed signature lies on a maximal
parahoric whose factors' dual dimensions are those totals, as _spend
spends both budgets exactly (clause c), and its SOeven slots have the
block parity of their signs (cuspdata._signature_sign_ok, clause d);
clauses a and b hold for every swap.  So the search's survivor there
validates.  Conversely, a survivor is a valid datum of the group on the
datum's classes, so its signature is listed, given a degree cap that
the datum's classes meet.

Cross-form companions play the same game against every other form of
the group: same family, dimension, residue field and ramification
sign, different Witt index and anisotropic split.

Packet statistics: a datum with Jordan size l sits in a packet of size
2^(l-1).  Counting members e with integral exponent at least 1, with
e0 = 1 when some exponent is an odd integer, the packet accounts for
2^(e-e0) cuspidal representations; the census total divided by that
predicts the multiplicity with which the packet meets the census.  On
even orthogonal groups the statistics also count the representations of
the full orthogonal group, full_orthogonal_count, by the orbit rule of
the cuspdata docstring.

Every statistic is read through class types, so it is shared by every
datum of a signature, except delta, the number of slots carrying x + 1
(QSets.delta).  Under the quadratic involution x + 1 is pooled with the
other linear classes, so delta depends on which concrete class a datum
holds.  Only the census law reads it, on Sp alone, so the sweep may
check one representative per signature; the packet command reports the
delta of the concrete datum it is given.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cuspdata import (
    CuspidalDatum,
    FactorSupport,
    char_poly_exponent,
    count_representations,
    minus_type_exponent,
    signature_type,
    slot_series,
    _type_matches,
)
from .ffpoly import ClassType, SelfDualClass, class_x_plus_one
from .groups import GroupSpec, ParahoricSpec, group_forms, parahoric_of
from .hecke import ired, jordan, real_points, type_exponent_pair

__all__ = [
    "QSets",
    "Companion",
    "CompanionCensus",
    "CrossFormEntry",
    "PacketStats",
    "recover_m_pair",
    "q_sets",
    "enumerate_epsilon",
    "listed_swap_sets",
    "companions",
    "cross_form_companions",
    "full_orthogonal_count",
    "packet_stats",
]


def recover_m_pair(cls: SelfDualClass, s: int, s2: int) -> tuple[int, int]:
    """The multiplicity pair {m1, m2} recovered from the exponent pair,
    given as doubles (hecke module docstring).

    Unordered: returned with the larger multiplicity first.
    """
    total, diff = s + s2, abs(s - s2)
    if signature_type(cls).rank < 2:
        pair = (total // 4, diff // 4)
    else:
        pair = (total // 2, diff // 2)
    return (max(pair), min(pair))


@dataclass(frozen=True)
class QSets:
    """The swap candidates of a datum, stratified."""

    raw: tuple[SelfDualClass, ...]
    kept: tuple[SelfDualClass, ...]
    removed: tuple[SelfDualClass, ...]
    constrained: tuple[SelfDualClass, ...]  # kept classes that swap in pairs
    free: tuple[SelfDualClass, ...]
    # Slots carrying x + 1.  Not a signature invariant under the quadratic
    # involution, where x + 1 is pooled with the other linear classes: it
    # depends on which concrete class a datum holds (module docstring).
    delta: int

    @property
    def q(self) -> int:
        return len(self.raw)


@lru_cache(maxsize=256)
def _constant_difference(kind1: str, kind2: str, ctype: ClassType) -> bool:
    """Whether the two slot exponent formulas differ by a constant on
    classes of the type."""
    diffs = {char_poly_exponent(kind1, ctype, m) - char_poly_exponent(kind2, ctype, m)
             for m in range(3)}
    return len(diffs) == 1


def q_sets(datum: CuspidalDatum) -> QSets:
    kinds = datum.group.slot_kinds
    raw, kept, removed, constrained, free = [], [], [], [], []
    even_orthogonal = "SOeven" in kinds
    unitary = "U" in kinds
    for cls, (m1, m2) in datum.pairs.items():
        if m1 == m2:
            continue
        raw.append(cls)
        ctype = cls.type
        if not _constant_difference(kinds[0], kinds[1], ctype):
            removed.append(cls)
            continue
        kept.append(cls)
        if even_orthogonal:
            pinned = (minus_type_exponent(ctype, m1) - minus_type_exponent(ctype, m2)) % 2
        elif unitary:
            pinned = (char_poly_exponent("U", ctype, m1)
                      - char_poly_exponent("U", ctype, m2)) % 2
        else:
            pinned = 0
        (constrained if pinned else free).append(cls)
    delta = sum(1 for m in datum.pairs[class_x_plus_one(datum.field)] if m > 0)
    return QSets(tuple(raw), tuple(kept), tuple(removed),
                 tuple(constrained), tuple(free), delta)


@dataclass(frozen=True)
class Companion:
    swap_set: tuple[SelfDualClass, ...]
    datum: CuspidalDatum
    reps: int


@dataclass(frozen=True)
class CompanionCensus:
    datum: CuspidalDatum
    qsets: QSets
    companions: tuple[Companion, ...]

    @property
    def total(self) -> int:
        return sum(c.reps for c in self.companions)

    @property
    def swap_sets(self) -> tuple[tuple[SelfDualClass, ...], ...]:
        return tuple(c.swap_set for c in self.companions)


def _subsets(classes):
    """Every subset, by size; the classes come in canonical order."""
    for r in range(len(classes) + 1):
        yield from itertools.combinations(classes, r)


def _class_score(kinds: tuple[str, str], ctype: ClassType, pair) -> tuple[int, ...]:
    """Exponent costs and minus-type blocks of a class of the type in the
    two slots.

    The m = 0 cost of x - 1 in an Sp slot is the implicit entry."""
    return (*(char_poly_exponent(kind, ctype, m) * ctype.degree
              for kind, m in zip(kinds, pair)),
            *(minus_type_exponent(ctype, m) for m in pair))


@lru_cache(maxsize=4096)
def _prescore_row(kinds: tuple[str, str], own: tuple[str, str], ctype: ClassType,
                  pair: tuple[int, int]):
    """What the pre-score reads of a class of the type at multiplicities
    pair, searched in slots of the given kinds for a datum whose own slots
    have kinds own: its score, the delta its swap adds to the score, and
    whether its real reducibility points on kinds, unswapped and swapped,
    are those on own.  None when one of the three exponent pairs is not
    half-integral."""
    swapped = pair[::-1]
    exponents = (type_exponent_pair(own, ctype, pair), type_exponent_pair(kinds, ctype, pair),
                 type_exponent_pair(kinds, ctype, swapped))
    if None in exponents:
        return None
    points, unswapped, swapped_points = map(real_points, exponents)
    score = _class_score(kinds, ctype, pair)
    delta = tuple(b - a for a, b in zip(score, _class_score(kinds, ctype, swapped)))
    return score, delta, unswapped == points, swapped_points == points


def _prescore(group: GroupSpec, datum: CuspidalDatum):
    """Yield (swap set, parahoric, same points) for every subset of the
    raw classes (m1 != m2, in the order of datum.pairs), in _subsets
    order, whose swap passes the integer pre-score on the group: the
    totals name a maximal parahoric, which is yielded, and every SOeven
    slot gets the block parity of its sign.  Same points tells whether
    the swap keeps the datum's real reducibility points."""
    kinds, own = group.slot_kinds, datum.group.slot_kinds
    scores, raw, deltas = [], [], []
    # Bit i stands for raw[i]: its unswapped points differ (so it must be
    # swapped), or its swapped points differ (so it must not be).
    must_swap = must_stay = 0
    moved = False  # a class that never swaps has other points on this group
    for cls, pair in datum.pairs.items():
        row = _prescore_row(kinds, own, cls.type, pair)
        if row is None:
            raise AssertionError(f"reducibility exponent of {cls.label} is not half-integral")
        score, delta, stays, swapped_stays = row
        scores.append(score)
        if pair[0] == pair[1]:
            moved = moved or not stays
            continue
        must_swap |= (not stays) << len(raw)
        must_stay |= (not swapped_stays) << len(raw)
        raw.append(cls)
        deltas.append(delta)
    base = tuple(map(sum, zip(*scores)))
    for subset in _subsets(range(len(raw))):
        t1, t2, b1, b2 = map(sum, zip(base, *(deltas[i] for i in subset)))
        parahoric = parahoric_of(group, (t1, t2))
        if parahoric is None or not parahoric.maximal:
            continue
        f1, f2 = parahoric.factors
        if (f1.kind == "SOeven" and not _type_matches(f1, b1)
                or f2.kind == "SOeven" and not _type_matches(f2, b2)):
            continue
        mask = sum(1 << i for i in subset)
        same = not moved and mask & must_swap == must_swap and not mask & must_stay
        # From a list: tuple() of a generator grows its tuple by resizing,
        # and the resized blocks pile up in the tuple free lists.
        yield tuple([raw[i] for i in subset]), parahoric, same


def _survivor(parahoric: ParahoricSpec, datum: CuspidalDatum, subset) -> Companion:
    """The companion a swap that passed the pre-score builds on the
    parahoric the score named, validated in full; the empty swap on the
    datum's own parahoric is the datum itself, already validated."""
    if not subset and parahoric == datum.parahoric:
        return Companion(subset, datum, count_representations(datum).total)
    swapped = set(subset)
    s1, s2 = [], []  # datum.pairs is in support order
    for cls, (m1, m2) in datum.pairs.items():
        if cls in swapped:
            m1, m2 = m2, m1
        if m1:
            s1.append((cls, m1))
        if m2:
            s2.append((cls, m2))
    try:
        built = CuspidalDatum(parahoric, (FactorSupport(tuple(s1)), FactorSupport(tuple(s2))))
    except ValueError as err:
        raise AssertionError(f"swap {[c.label for c in subset]} passed the pre-score "
                             f"on {parahoric} but fails validation: {err}") from err
    return Companion(subset, built, count_representations(built).total)


def companions(datum: CuspidalDatum) -> CompanionCensus:
    """Every swap of raw classes giving a valid datum with the same
    reducibility points.  Includes the empty swap, so the census always
    contains the datum itself."""
    qs = q_sets(datum)
    kept = set(qs.kept)
    out = []
    for subset, parahoric, same in _prescore(datum.group, datum):
        if same:
            out.append(_survivor(parahoric, datum, subset))
        elif kept.issuperset(subset):
            raise AssertionError(
                f"kept swap {[c.label for c in subset]} moved a reducibility point")
    return CompanionCensus(datum, qs, tuple(out))


def listed_swap_sets(datum: CuspidalDatum, listed: set) -> tuple[tuple[SelfDualClass, ...], ...]:
    """The swap sets of companions(datum), read off the group's listing
    without building a datum: listed holds the DatumSignature.rows of
    every signature of datum.group that enumerate_signatures yields, at a
    degree cap the datum's classes meet.  Subsets of the raw classes that
    keep their real reducibility points when swapped, in _subsets order,
    are kept when their swapped rows are listed."""
    kinds = datum.group.slot_kinds
    rows, movable = [], []  # movable: (index into rows, swapped row, class)
    for cls, pair in datum.pairs.items():
        if pair == (0, 0):  # x -+ 1 when absent: no row, and never raw
            continue
        swapped = pair[::-1]
        exponents = (type_exponent_pair(kinds, cls.type, pair),
                     type_exponent_pair(kinds, cls.type, swapped))
        if None in exponents:
            raise AssertionError(f"reducibility exponent of {cls.label} is not half-integral")
        ctype = signature_type(cls)
        if pair != swapped and real_points(exponents[0]) == real_points(exponents[1]):
            movable.append((len(rows), (ctype, *swapped), cls))
        rows.append((ctype, *pair))
    out = []
    for subset in _subsets(movable):
        swapped_rows = rows.copy()
        for index, row, _ in subset:
            swapped_rows[index] = row
        if tuple(sorted(swapped_rows)) in listed:
            out.append(tuple([cls for _, _, cls in subset]))
    return tuple(out)


def enumerate_epsilon(datum: CuspidalDatum) -> tuple[tuple[SelfDualClass, ...], ...]:
    """Surviving swap sets computed without validating any support:
    subsets of the kept classes with evenly many constrained ones,
    subject only to the parahoric re-solving being possible."""
    qs = q_sets(datum)
    # Clause c makes the unswapped totals the factors' dual dimensions.
    f1, f2 = datum.parahoric.factors
    kept, constrained = qs.kept, set(qs.constrained)
    # Per kept class, by index: whether it is constrained, and the shift
    # its swap adds to the first slot's total (the second loses as much).
    pinned = [cls in constrained for cls in kept]
    shifts = []
    for cls in kept:
        m1, m2 = datum.pairs[cls]
        shifts.append((char_poly_exponent(f1.kind, cls.type, m2)
                       - char_poly_exponent(f1.kind, cls.type, m1)) * cls.degree)
    out = []
    for subset in _subsets(range(len(kept))):
        if sum(map(pinned.__getitem__, subset)) % 2:
            continue
        shift = sum(map(shifts.__getitem__, subset))
        if parahoric_of(datum.group, (f1.dual_dim + shift, f2.dual_dim - shift)) is not None:
            out.append(tuple([kept[i] for i in subset]))
    return tuple(out)


@dataclass(frozen=True)
class CrossFormEntry:
    group: GroupSpec
    companions: tuple[Companion, ...]

    @property
    def total(self) -> int:
        return sum(c.reps for c in self.companions)


def _other_forms(group: GroupSpec) -> tuple[GroupSpec, ...]:
    out = [form for form in group_forms(group.family, group.dim, group.field)
           if form.epsilon == group.epsilon and form != group]
    return tuple(sorted(out, key=lambda g: (-g.witt, g.aniso)))


def cross_form_companions(datum: CuspidalDatum) -> tuple[CrossFormEntry, ...]:
    """For every other form of the group, the swaps of raw classes that
    validate there with the same reducibility points.  Forms with no
    match are reported with an empty census."""
    return tuple(
        CrossFormEntry(form, tuple(_survivor(parahoric, datum, subset)
                                   for subset, parahoric, same in _prescore(form, datum)
                                   if same))
        for form in _other_forms(datum.group))


def full_orthogonal_count(datum: CuspidalDatum) -> int:
    """Representations of the full orthogonal group above the datum, by
    the orbit rule of the cuspdata docstring: one sign on each slot of
    positive dimension."""
    if datum.group.family != "SOeven":
        raise ValueError("full orthogonal counts only apply to even orthogonal groups")
    total = 1
    for factor, support in zip(datum.parahoric.factors, datum.supports):
        n, action = slot_series(factor, support)
        total *= n if factor.dim == 0 else 1 if action == "swapped" else 2 * n
    return total


@dataclass(frozen=True)
class PacketStats:
    datum: CuspidalDatum
    jordan_size: int
    packet_size: int
    e: int
    e0: int
    expected_count: int
    census_data: int
    census_total: int
    multiple: Fraction
    q: int
    delta: int
    o_per_datum: int | None = None
    o_total: int | None = None
    o_multiple: Fraction | None = None


def packet_stats(census: CompanionCensus) -> PacketStats:
    """Packet statistics of census.datum, read against its census."""
    datum = census.datum
    size = len(jordan(datum))
    # e counts the integral members of IRed; e0 is 1 when one of them is odd.
    integral = [s // 2 for _, s in ired(datum) if s % 2 == 0]
    e = len(integral)
    e0 = int(any(s % 2 for s in integral))
    expected = 2 ** (e - e0)
    stats = dict(
        datum=datum,
        jordan_size=size,
        packet_size=2 ** max(size - 1, 0),
        e=e,
        e0=e0,
        expected_count=expected,
        census_data=len(census.companions),
        census_total=census.total,
        multiple=Fraction(census.total, expected),
        q=census.qsets.q,
        delta=census.qsets.delta,
    )
    if datum.group.family == "SOeven":
        per = full_orthogonal_count(datum)
        o_total = sum(full_orthogonal_count(c.datum) for c in census.companions)
        stats.update(o_per_datum=per, o_total=o_total,
                     o_multiple=Fraction(o_total, expected))
    return PacketStats(**stats)
