"""Classical groups over a p-adic field and their parahoric quotients.

A group is specified by its family, the dimension D of the underlying
space, the Witt index N over the base field, and the way the anisotropic
kernel distributes over the two ends of the local Dynkin diagram.  Five
families are treated:

* Sp:      symplectic, D = 2N,
* SOodd:   orthogonal, D odd, anisotropic defect 1 or 3,
* SOeven:  orthogonal, D even, anisotropic defect 0, 2 or 4,
* Uunram:  unitary over the unramified quadratic extension,
* Uram:    unitary over a ramified quadratic extension, with a sign
           epsilon recording which hermitian normalization is taken.

For 0 <= N1 <= N the maximal compact subgroups sit in a chain indexed by
(N1, N2 = N - N1), and the reductive quotient of the parahoric splits as
a product of two finite classical factors, one per end of the local
Dynkin diagram; the factor at end i acts on a space of dimension
2*Ni + ai, where (a1, a2) is the anisotropic split.  One table, _ENDS,
gives each family's two ends.  An end maps the anisotropic parts it
admits to the factor kind of its slot:

    symplectic end  {0: Sp}
    orthogonal end  {0: SOeven, 1: SOodd, 2: SOeven}
    unitary end     {0: U, 1: U}

    Sp      -> symplectic x symplectic
    SO      -> orthogonal x orthogonal
    Uunram  -> unitary    x unitary
    Uram    -> orthogonal x symplectic    (epsilon = +1)
               symplectic x orthogonal    (epsilon = -1)

A split is admissible when each end admits its part; besides that, SOodd
and SOeven fix the parity of D, Sp needs D >= 2, and the split SO(2) is
excluded.  An even orthogonal factor carries a type sign: split (plus)
when its anisotropic part is 0, and nonsplit (minus) when it is 2.  The
component group, the stabilizer modulo the parahoric, has order 2
exactly when the parahoric has an orthogonal factor and every orthogonal
factor has positive dimension, and order 1 otherwise.

Read from its other end, a group's diagram is that of its mirror form
(mirror): the split reversed and epsilon negated.  Every family's ends
are symmetric except Uram's, and Uram's two epsilons list them in
reverse order, so the mirror has the group's slots in reverse order and
its vertex (n1, n2) is the group's (n2, n1).

The factor kind, Sp, SOodd, SOeven or U, is the only name of a slot type
in the package: it alone fixes the exponent table, the parameter table and
the sign condition of the slot.  FiniteFactor, GroupSpec and
ParahoricSpec are value types, as FieldSpec is (see ffpoly): one object
per value, their derived values plain attributes.  So every vertex with
the same slot, of any group, shares the FiniteFactor and its dual_dim.

>>> G = GroupSpec("Sp", 6, 3, (0, 0), FieldSpec(3))
>>> dual_dimension(G)
7
>>> [str(P) for P in enumerate_parahorics(G)]
['Sp(6)/F3:(3,0)', 'Sp(6)/F3:(2,1)', 'Sp(6)/F3:(1,2)', 'Sp(6)/F3:(0,3)']
>>> [str(f) for f in enumerate_parahorics(G)[1].factors]
['Sp(4)', 'Sp(2)']
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .ffpoly import FieldSpec, Interned

__all__ = [
    "FAMILIES",
    "FACTOR_KINDS",
    "FiniteFactor",
    "GroupSpec",
    "ParahoricSpec",
    "dual_dimension",
    "group_forms",
    "mirror",
    "enumerate_parahorics",
    "parahoric_of",
    "component_group_order",
]

FAMILIES = ("Sp", "SOodd", "SOeven", "Uunram", "Uram")
FACTOR_KINDS = ("Sp", "SOodd", "SOeven", "U")

# The two ends of each family's local Dynkin diagram, keyed by family and
# epsilon.  An end maps the anisotropic parts it admits to the factor kind
# of its slot; Uram with epsilon = -1 has its ends reversed.
_SP_END = {0: "Sp"}
_SO_END = {0: "SOeven", 1: "SOodd", 2: "SOeven"}
_U_END = {0: "U", 1: "U"}
_ENDS = {
    ("Sp", 0): (_SP_END, _SP_END),
    ("SOodd", 0): (_SO_END, _SO_END),
    ("SOeven", 0): (_SO_END, _SO_END),
    ("Uunram", 0): (_U_END, _U_END),
    ("Uram", 1): (_SO_END, _SP_END),
    ("Uram", -1): (_SP_END, _SO_END),
}
_SPLIT_ERRORS = {
    "Sp": "symplectic groups are split of even dimension",
    "SOodd": "bad odd orthogonal anisotropic split",
    "SOeven": "bad even orthogonal anisotropic split",
    "Uunram": "bad unramified unitary anisotropic split",
    "Uram": "bad ramified unitary anisotropic split",
}


_FAMILY_NAMES = {"Sp": "Sp", "SOodd": "SO", "SOeven": "SO", "Uunram": "U", "Uram": "U"}
_DUAL_SHIFT = {"Sp": 1, "SOodd": -1}


def _dual_dim(kind: str, dim: int) -> int:
    """Dual-side dimension of a space of the given family or factor kind:
    one more for Sp, one less for SOodd, unchanged otherwise."""
    return dim + _DUAL_SHIFT.get(kind, 0)


@dataclass(frozen=True, eq=False)
class FiniteFactor(metaclass=Interned):
    """One factor of the reductive quotient of a parahoric.

    kind is "Sp", "SOodd", "SOeven" or "U"; dim is the dimension of the
    space the factor acts on (so Sp(dim), SO(dim), U(dim)); sign
    distinguishes the two forms of an even orthogonal group and is 0
    for the other kinds.  dual_dim is the dimension of the dual-side
    space attached to the factor.
    """

    kind: str
    dim: int
    sign: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FACTOR_KINDS:
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.dim < 0:
            raise ValueError("factor dimension must be nonnegative")
        if self.kind == "Sp" and self.dim % 2:
            raise ValueError("symplectic factors have even dimension")
        if self.kind == "SOodd" and self.dim % 2 == 0:
            raise ValueError("odd orthogonal factors have odd dimension")
        if self.kind == "SOeven":
            if self.dim % 2:
                raise ValueError("even orthogonal factors have even dimension")
            if self.sign not in (1, -1):
                raise ValueError("even orthogonal factors carry a sign")
            if self.dim == 0 and self.sign != 1:
                raise ValueError("the trivial orthogonal factor is split")
        elif self.sign != 0:
            raise ValueError("only even orthogonal factors carry a sign")
        self.__dict__["dual_dim"] = _dual_dim(self.kind, self.dim)

    def __str__(self) -> str:
        if self.kind == "SOeven":
            return f"SO{'+' if self.sign > 0 else '-'}({self.dim})"
        if self.kind == "SOodd":
            return f"SO({self.dim})"
        return f"{self.kind}({self.dim})"


@dataclass(frozen=True, eq=False)
class GroupSpec(metaclass=Interned):
    """A classical group over the p-adic field with given residue data.

    slot_kinds are the factor kinds of the two parahoric slots (the same
    at every vertex), and name is the classical name and dimension, as in
    Sp(6) or U(5).
    """

    family: str
    dim: int
    witt: int
    aniso: tuple[int, int]
    field: FieldSpec
    epsilon: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.witt < 0:
            raise ValueError("Witt index must be nonnegative")
        needs_quadratic = self.family == "Uunram"
        if (self.field.ext == "quadratic") != needs_quadratic:
            raise ValueError("field involution does not match the family")
        if self.family == "Uram":
            if self.epsilon not in (1, -1):
                raise ValueError("ramified unitary groups need epsilon = +-1")
        elif self.epsilon != 0:
            raise ValueError("epsilon is only meaningful for ramified unitary groups")
        a1, a2 = self.aniso
        if self.dim != 2 * self.witt + a1 + a2:
            raise ValueError("dim must equal 2*witt + sum(aniso)")
        end1, end2 = _ENDS[self.family, self.epsilon]
        if (a1 not in end1 or a2 not in end2
                or self.family == "Sp" and self.dim < 2
                or self.family == "SOodd" and self.dim % 2 == 0
                or self.family == "SOeven" and self.dim % 2):
            raise ValueError(_SPLIT_ERRORS[self.family])
        if self.family == "SOeven" and self.dim == 2 and self.aniso == (0, 0):
            raise ValueError("the two-dimensional split orthogonal group is excluded")
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        self.__dict__.update(slot_kinds=(end1[a1], end2[a2]),
                             name=f"{_FAMILY_NAMES[self.family]}({self.dim})")

    def __str__(self) -> str:
        tags = [f"w{self.witt}", f"a{self.aniso[0]}{self.aniso[1]}"]
        if self.family == "Uram":
            tags.append("e+" if self.epsilon > 0 else "e-")
        if self.family == "Uunram":
            tags.append("ur")
        extra = ",".join(tags)
        return f"{self.name}[{extra}]/F{self.field.q}"


def dual_dimension(group: GroupSpec) -> int:
    """Dimension of the dual-side space N^ attached to the group."""
    return _dual_dim(group.family, group.dim)


def group_forms(family: str, dim: int, field: FieldSpec):
    """Yield every valid group of the family, dimension and field.

    Anisotropic splits run over a1, a2 in range(3), and for Uram over
    both epsilons, in (a1, a2, epsilon) order.
    """
    epsilons = (1, -1) if family == "Uram" else (0,)
    for a1 in range(3):
        for a2 in range(3):
            for epsilon in epsilons:
                try:
                    yield GroupSpec(family, dim, (dim - a1 - a2) // 2, (a1, a2),
                                    field, epsilon)
                except ValueError:
                    continue


def mirror(group: GroupSpec) -> GroupSpec:
    """The same group read from the other end of its local Dynkin diagram:
    the anisotropic split reversed and epsilon negated, so that its slot
    kinds and factors come in reverse order and its vertex (n1, n2) is
    the group's (n2, n1).  The flip of a signature, DatumSignature.flipped,
    goes with it."""
    return GroupSpec(group.family, group.dim, group.witt, group.aniso[::-1], group.field,
                     -group.epsilon)


def _slot_factor(kind: str, n: int, a: int) -> FiniteFactor:
    """An even orthogonal slot is split exactly when its anisotropic part
    is 0."""
    return FiniteFactor(kind, 2 * n + a, (1 if a == 0 else -1) if kind == "SOeven" else 0)


@dataclass(frozen=True, eq=False)
class ParahoricSpec(metaclass=Interned):
    """A vertex of the chain, labelled by the split (n1, n2) of the Witt index.

    factors are the two factors of its reductive quotient; maximal is
    False exactly when a slot degenerates to the split SO(2) torus; label
    is the name every datum label starts with.
    """

    group: GroupSpec
    n1: int
    n2: int

    def __post_init__(self) -> None:
        if self.n1 < 0 or self.n2 < 0 or self.n1 + self.n2 != self.group.witt:
            raise ValueError("(n1, n2) must be a nonnegative split of the Witt index")
        group = self.group
        (k1, k2), (a1, a2) = group.slot_kinds, group.aniso
        factors = (_slot_factor(k1, self.n1, a1), _slot_factor(k2, self.n2, a2))
        self.__dict__.update(
            factors=factors,
            maximal=not any(f.kind == "SOeven" and f.dim == 2 and f.sign == 1 for f in factors),
            label=f"{group.name}/F{group.field.q}:({self.n1},{self.n2})")

    def __str__(self) -> str:
        return self.label


def enumerate_parahorics(group: GroupSpec) -> tuple[ParahoricSpec, ...]:
    """The N + 1 chain vertices, listed with n1 descending."""
    N = group.witt
    return tuple(ParahoricSpec(group, n1, N - n1) for n1 in range(N, -1, -1))


@lru_cache(maxsize=4096)
def parahoric_of(group: GroupSpec, dual_dims: tuple[int, int]) -> ParahoricSpec | None:
    """The parahoric whose factors have the given dual dimensions, None
    when none has, maximal or not.  Solved from the dual-dimension rule,
    so it costs the same at any Witt index; cached, as the companion
    search asks again for the same totals."""
    ns = []
    for kind, a, dual in zip(group.slot_kinds, group.aniso, dual_dims):
        twice = dual - _DUAL_SHIFT.get(kind, 0) - a  # 2 n, the factor being 2 n + a
        if twice < 0 or twice % 2:
            return None
        ns.append(twice // 2)
    return ParahoricSpec(group, *ns) if sum(ns) == group.witt else None


def component_group_order(parahoric: ParahoricSpec) -> int:
    """Order (1 or 2) of the stabilizer modulo the parahoric: 2 exactly
    when the parahoric has an orthogonal factor and every orthogonal
    factor has positive dimension."""
    dims = [f.dim for f in parahoric.factors if f.kind in ("SOodd", "SOeven")]
    return 2 if dims and min(dims) > 0 else 1
