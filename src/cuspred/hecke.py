"""Reducibility points, Jordan chains and parameter shapes of a datum.

Every self-dual class P supporting a datum, together with x -+ 1 which
are always inspected, gets a pair of finite parameters (f1, f2), one per
slot, read off the multiplicities through the tables

    trivial involution, linear P:
        SOodd:   f = 2m + 1 at both eigenvalues
        Sp:      f = 2m + 1 at x - 1,  f = 2m at x + 1
        SOeven:  f = 2m at both
    even degree (trivial) and every class of a U slot:
        f = (2m + 1) deg(P) / 2,   a half-integer when deg(P) is odd

with m = 0 when P does not appear in the slot.  The two reducibility
exponents of P are then

    s  = (f1 + f2) / (2 deg P),    s' = |f1 - f2| / (2 deg P),

always half-integers, with s >= s'.  Members with s >= 1 are the real
reducibility points; each contributes the Jordan chain m = 2s - 1,
2s - 3, ... >= 1.  The chains tile the dual standard representation:

    sum over P of (floor(s^2) + floor(s'^2)) deg P  =  dual dimension.

Every f, s and s' is held as its double, a plain int, so all of this is
integer arithmetic; half_text is the one place that writes a half-integer
out.  On SO(5) over F3 with x -+ 1 each in one slot, (s, s') = (3/2, 1/2)
at both classes, and the identity reads (2 + 0) + (2 + 0) = 4:

    >>> from cuspred.fixtures import gallery_entry
    >>> datum = gallery_entry("so5").datum
    >>> [(cls.label, reducibility_pair(datum, cls)) for cls in datum.pairs]
    [('x-1', (3, 1)), ('x+1', (3, 1))]
    >>> [half_text(s) for s in reducibility_pair(datum, next(iter(datum.pairs)))]
    ['3/2', '1/2']
    >>> identity_sides(datum)
    (4, 4)

The tables take the type of a class, ffpoly.ClassType, never the class:
its degree and whether it is x - 1, x + 1 or neither.  So the exponent
pair is type_exponent_pair, memoised on the slot kinds, the type and the
multiplicities; reducibility_pair reads it for a class of a datum.

A parameter shape distributes the two chains of each class over its two
tagged members, named by the rank of the class's signature type
(cuspdata.signature_type): ("1", "w0") at x - 1 and ("w1", "w2") at
x + 1 under the trivial involution, ("rho", "rho'") elsewhere.
Symplectic groups keep only shapes whose total determinant character is
trivial; the four linear tags map to the Klein group and each
contributes its vector times the parity of the chain sum it carries.
When some even degree class carries an odd chain sum the determinant
can be corrected for free and every shape survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .cuspdata import CuspidalDatum, signature_type
from .ffpoly import ClassType, SelfDualClass
from .groups import dual_dimension

__all__ = [
    "half_text",
    "ClassReport",
    "ReducibilityReport",
    "JordanEntry",
    "ShapeMember",
    "ParamShape",
    "finite_parameter",
    "parameter_pair",
    "type_exponent_pair",
    "reducibility_pair",
    "real_points",
    "iteration_domain",
    "ired",
    "jordan",
    "jordan_chain",
    "identity_sides",
    "verify_identity",
    "reducibility_report",
    "parameter_shapes",
]


def half_text(twice: int) -> str:
    """The half-integer twice / 2 as text: "3" or "5/2"."""
    if twice % 2 == 0:
        return str(twice // 2)
    return f"{twice}/2"


def finite_parameter(kind: str, ctype: ClassType, m: int) -> int:
    """The slot parameter f of every class of the type at multiplicity m
    (0 if absent): the table of the module docstring."""
    if m < 0:
        raise ValueError("multiplicity must be nonnegative")
    if kind == "U" or not ctype.is_linear:
        return (2 * m + 1) * ctype.degree
    if kind == "SOodd":
        return 2 * (2 * m + 1)
    if kind == "Sp":
        return 2 * (2 * m + 1 if ctype.is_x_minus_one else 2 * m)
    if kind == "SOeven":
        return 4 * m
    raise ValueError(f"unknown factor kind {kind!r}")


def parameter_pair(datum: CuspidalDatum, cls: SelfDualClass) -> tuple[int, int]:
    """(f1, f2) of the class in the two slots."""
    f1, f2 = datum.parahoric.factors
    m1, m2 = datum.pairs.get(cls, (0, 0))
    return (finite_parameter(f1.kind, cls.type, m1), finite_parameter(f2.kind, cls.type, m2))


@lru_cache(maxsize=4096)
def type_exponent_pair(kinds: tuple[str, str], ctype: ClassType,
                       pair: tuple[int, int]) -> tuple[int, int] | None:
    """(s, s') with s >= s' of every class of the type at multiplicities
    (m1, m2) in slots of the given kinds, None when not half-integral."""
    f1, f2 = (finite_parameter(kind, ctype, m) for kind, m in zip(kinds, pair))
    twice_degree = 2 * ctype.degree
    total, diff = f1 + f2, abs(f1 - f2)
    if total % twice_degree or diff % twice_degree:
        return None
    return (total // twice_degree, diff // twice_degree)


def reducibility_pair(datum: CuspidalDatum, cls: SelfDualClass) -> tuple[int, int]:
    """(s, s') with s >= s', both half-integers."""
    s_pair = type_exponent_pair(datum.group.slot_kinds, cls.type, datum.pairs.get(cls, (0, 0)))
    if s_pair is None:
        raise AssertionError(f"reducibility exponent of {cls.label} is not half-integral")
    return s_pair


def iteration_domain(datum: CuspidalDatum) -> tuple[SelfDualClass, ...]:
    """Support classes together with x -+ 1, in canonical order."""
    return tuple(datum.pairs)


def real_points(s_pair: tuple[int, int]) -> tuple[int, ...]:
    """The real reducibility points of a class with exponents (s, s'), in
    slots of any kinds: the members with s >= 1."""
    return tuple(s for s in s_pair if s >= 2)


def ired(datum: CuspidalDatum) -> tuple[tuple[SelfDualClass, int], ...]:
    """Multiset of real reducibility points, class by class."""
    # Classes come in canonical order and s >= s', so this is sorted.
    return tuple((cls, s) for cls in datum.pairs
                 for s in real_points(reducibility_pair(datum, cls)))


def jordan_chain(s: int) -> tuple[int, ...]:
    """Multiplicities 2s - 1, 2s - 3, ... >= 1 (empty when s < 1)."""
    return tuple(range(s - 1, 0, -2))


@dataclass(frozen=True)
class JordanEntry:
    cls: SelfDualClass
    member: int  # 0 carries the larger exponent
    m: int


def jordan(datum: CuspidalDatum) -> tuple[JordanEntry, ...]:
    out = []
    for cls in datum.pairs:
        for member, s in enumerate(reducibility_pair(datum, cls)):
            out.extend(JordanEntry(cls, member, m) for m in jordan_chain(s))
    return tuple(out)


def identity_sides(datum: CuspidalDatum) -> tuple[int, int]:
    lhs = 0
    for cls in datum.pairs:
        s, s2 = reducibility_pair(datum, cls)
        # (2s)^2 // 4 is floor(s^2): s^2 for integers, k^2 + k at k + 1/2.
        lhs += (s * s // 4 + s2 * s2 // 4) * cls.degree
    return lhs, dual_dimension(datum.group)


def verify_identity(datum: CuspidalDatum) -> bool:
    lhs, rhs = identity_sides(datum)
    return lhs == rhs


@dataclass(frozen=True)
class ClassReport:
    cls: SelfDualClass
    f_pair: tuple[int, int]
    s_pair: tuple[int, int]
    chains: tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class ReducibilityReport:
    datum: CuspidalDatum
    classes: tuple[ClassReport, ...]
    lhs: int
    dual_dimension: int

    @property
    def identity_holds(self) -> bool:
        return self.lhs == self.dual_dimension


def reducibility_report(datum: CuspidalDatum) -> ReducibilityReport:
    reports = []
    for cls in datum.pairs:
        f_pair = parameter_pair(datum, cls)
        s_pair = reducibility_pair(datum, cls)
        chains = (jordan_chain(s_pair[0]), jordan_chain(s_pair[1]))
        reports.append(ClassReport(cls, f_pair, s_pair, chains))
    lhs, rhs = identity_sides(datum)
    return ReducibilityReport(datum, tuple(reports), lhs, rhs)


# ---------------------------------------------------------------------------
# Parameter shapes.
# ---------------------------------------------------------------------------

_KLEIN = {"1": (0, 0), "w0": (1, 0), "w1": (0, 1), "w2": (1, 1)}


@dataclass(frozen=True)
class ShapeMember:
    tag: str
    s: int
    chain: tuple[int, ...]


@dataclass(frozen=True)
class ParamShape:
    entries: tuple[tuple[SelfDualClass, tuple[ShapeMember, ShapeMember]], ...]


# Member tags by the rank of signature_type: x - 1, x + 1, any other.
_TAGS = (("1", "w0"), ("w1", "w2"), ("rho", "rho'"))


def parameter_shapes(datum: CuspidalDatum) -> tuple[ParamShape, ...]:
    """All chain-to-member assignments, det-filtered for symplectic groups."""
    per_class: list[list[tuple[SelfDualClass, tuple[ShapeMember, ShapeMember]]]] = []
    free_determinant = False
    for cls in datum.pairs:
        s, s2 = reducibility_pair(datum, cls)
        chains = (jordan_chain(s), jordan_chain(s2))
        if not chains[0] and not chains[1]:
            continue
        if cls.degree > 1 and sum(chains[0] + chains[1]) % 2:
            free_determinant = True
        tags = _TAGS[signature_type(cls).rank]
        options = [(cls, (ShapeMember(tags[0], s, chains[0]),
                          ShapeMember(tags[1], s2, chains[1])))]
        if s != s2:
            options.append((cls, (ShapeMember(tags[0], s2, chains[1]),
                                  ShapeMember(tags[1], s, chains[0]))))
        per_class.append(options)
    shapes = [ParamShape(tuple(combo)) for combo in product(*per_class)]
    if datum.group.family != "Sp" or free_determinant:
        return tuple(shapes)
    kept = []
    for shape in shapes:
        det = (0, 0)
        for cls, members in shape.entries:
            for member in members:
                vec = _KLEIN.get(member.tag)
                if vec and sum(member.chain) % 2:
                    det = ((det[0] + vec[0]) % 2, (det[1] + vec[1]) % 2)
        if det == (0, 0):
            kept.append(shape)
    return tuple(kept)
