"""Arithmetic of self-dual polynomial classes over small finite fields.

Semisimple classes in a finite classical group are encoded by monic
polynomials fixed by a duality on GF(q)[x].  Two dualities occur here:

* trivial involution: P~ is the monic reciprocal of P, whose roots are
  the inverses of the roots of P;
* quadratic involution: the coefficients of the reciprocal are also
  conjugated by the order-two automorphism of GF(q) over its index-two
  subfield, so the roots of P~ are the inverse conjugates of those of P.

The monic irreducibles with P~ = P and P(0) != 0 are the self-dual
classes.  Under the trivial involution they are x - 1, x + 1, and certain
polynomials of even degree 2m whose roots lie in the kernel of the norm
of GF(q^(2m)) over GF(q^m).  Under the quadratic involution every
self-dual class has odd degree, with roots in the norm-one torus of the
relevant quadratic extension.

Field elements are encoded as integers 0 <= a < q via base-p digits in
the power basis of a fixed defining polynomial, so 0 and 1 are the two
identities and the integers 0 .. p-1 form the prime subfield.  The
defining polynomial is the first monic one of degree e over GF(p),
ordering coefficient tuples from the constant term up, under which
multiplying by x has period exactly q - 1.  A full period puts every
nonzero residue among the powers of x, so the polynomial is irreducible
and x generates the unit group.  Those powers give the discrete log, and
the tables of a FieldTable are read off it: public lists, indexed as in
F.mul[a][b]; only pow computes.

The value types, FieldSpec here and FiniteFactor, GroupSpec and
ParahoricSpec in groups, have one object per value: their metaclass,
Interned, returns the object already built for the same fields while it
is alive, so == and hash are identity and each value is validated once.
Every value derived from the fields is a plain attribute, set once when
the object is built.  SelfDualClass keeps value equality, so that a
class parsed from JSON stays its own object, freed when the command is
done, though the cached class listing holds an equal one; its derived
values, hash included, are plain attributes set the same way.

A polynomial is its tuple of coefficients from the constant term up,
read with its field, and a SelfDualClass is the field and the tuple.
Class candidates come from one loop for both involutions: the constant
term runs over the norm-one elements, the upper half of the coefficients
is free and the lower half is solved from P~ = P.  Each candidate is
tested for irreducibility by Ben-Or's test, run on the tuples through
the same tables: P of degree n is irreducible exactly when it is prime
to x^(q^k) - x for every k <= n/2.

>>> F3 = FieldSpec(3)
>>> [c.label for c in enumerate_self_dual_classes(F3, 1)]
['x-1', 'x+1']
>>> [c.label for c in enumerate_self_dual_classes(F3, 2)]
['x^2+1']
>>> count_self_dual_classes(F3, 4)
2
>>> F9 = FieldSpec(3, 2, "quadratic")
>>> count_self_dual_classes(F9, 3)
8
"""

from __future__ import annotations

import inspect
import itertools
import weakref
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "MAX_ENUM_DEGREE",
    "MAX_Q",
    "DegreeLimitError",
    "Interned",
    "FieldSpec",
    "FieldTable",
    "ClassType",
    "SelfDualClass",
    "field_table",
    "is_irreducible",
    "sigma_dual",
    "poly_text",
    "enumerate_self_dual_classes",
    "count_self_dual_classes",
    "class_x_minus_one",
    "class_x_plus_one",
]

# Everything downstream is exact combinatorics over residue fields of
# size at most a few dozen, so the tables stay tiny.
MAX_Q = 32
MAX_ENUM_DEGREE = 8


class DegreeLimitError(ValueError):
    """A class enumeration asked for a degree above MAX_ENUM_DEGREE."""

    def __init__(self):
        super().__init__(f"enumeration is limited to degree {MAX_ENUM_DEGREE}")


class _NotIrreducible(ValueError):
    """SelfDualClass refuses a reducible polynomial.  The message is built
    only when shown: the class listing refuses most candidates and discards
    the error."""

    def __str__(self) -> str:
        return f"{poly_text(self.args[0])} is not irreducible"


def _factor(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} by trial division; {} below 2."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return out


def _is_prime(n: int) -> bool:
    return _factor(n) == {n: 1}


def _mobius(n: int) -> int:
    exponents = _factor(n).values()
    return 0 if any(k > 1 for k in exponents) else (-1) ** len(exponents)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


class Interned(type):
    """Metaclass of a frozen dataclass with eq=False: one object per value.

    A call fills its positional, keyword and default arguments into the
    tuple of the dataclass fields, refusing an unknown keyword with
    TypeError, and returns the object already built for that tuple.  Only
    a value that __post_init__ accepts is stored, and the table holds it
    weakly, so a value nothing else keeps is freed.
    """

    def __init__(cls, *args, **kwargs):
        super().__init__(*args, **kwargs)
        cls._objects = weakref.WeakValueDictionary()

    def __call__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls.__dataclass_fields__):
            bound = inspect.signature(cls.__init__).bind(None, *args, **kwargs)
            bound.apply_defaults()
            args = tuple(bound.arguments.values())[1:]
        try:
            return cls._objects[args]
        except KeyError:
            obj = cls._objects[args] = super().__call__(*args)
            return obj


@dataclass(frozen=True, eq=False)
class FieldSpec(metaclass=Interned):
    """A small finite field GF(p^e) with a marked involution.

    ext is "trivial" for the identity involution and "quadratic" for the
    order-two automorphism over the subfield of size p^(e/2).  q is its
    size p^e and q0 the size of the fixed field of the involution.
    """

    p: int
    e: int = 1
    ext: str = "trivial"

    def __post_init__(self) -> None:
        if self.e < 1:
            raise ValueError("e must be positive")
        # Bound p and e before p is factored and before p ** e is formed:
        # both take time that grows with the input.  For p >= 2 and
        # e >= bit_length(MAX_Q), p^e >= 2^e > MAX_Q.
        if self.p > MAX_Q or (self.p > 1 and self.e >= MAX_Q.bit_length()):
            size = self.p if self.e == 1 else f"{self.p}^{self.e}"
            raise ValueError(f"field size {size} exceeds {MAX_Q}")
        if not _is_prime(self.p) or self.p == 2:
            raise ValueError("p must be an odd prime")
        q = self.p ** self.e
        if q > MAX_Q:
            raise ValueError(f"field size {q} exceeds {MAX_Q}")
        if self.ext not in ("trivial", "quadratic"):
            raise ValueError("ext must be 'trivial' or 'quadratic'")
        if self.ext == "quadratic" and self.e % 2 != 0:
            raise ValueError("a quadratic involution needs even e")
        self.__dict__.update(q=q, q0=self.p ** (self.e // 2) if self.ext == "quadratic" else q)


class FieldTable:
    """Precomputed arithmetic for one FieldSpec, encoded as the module says:
    exp[k] = x^k, log inverts it, inv[0] is None and norm_one lists the a
    with a * sigma[a] = 1."""

    def __init__(self, spec: FieldSpec):
        self.q = spec.q
        p, e, q = spec.p, spec.e, spec.q

        def digits(a: int) -> list[int]:
            return [(a // p ** i) % p for i in range(e)]

        def undigits(ds: list[int]) -> int:
            return sum(d * p ** i for i, d in enumerate(ds))

        # Walk 1, x, x^2, ... modulo x^e + (lower) up to its first return
        # to 1; one that has not returned after q - 1 steps stops at length
        # q, which no period reaches.  Period q - 1 picks the modulus.
        for lower in itertools.product(range(p), repeat=e):
            exp = [1]
            while len(exp) < q:
                ds = digits(exp[-1])
                top = ds.pop()
                nxt = undigits([(d - top * c) % p for d, c in zip([0] + ds, lower)])
                if nxt == 1:
                    break
                exp.append(nxt)
            if len(exp) == q - 1:
                break
        self.modulus = lower if e > 1 else None
        self.exp = exp
        self.log = {a: k for k, a in enumerate(exp)}
        self.add = [[undigits([(x + y) % p for x, y in zip(digits(a), digits(b))])
                     for b in range(q)] for a in range(q)]
        self.mul = [[exp[(self.log[a] + self.log[b]) % (q - 1)] if a and b else 0
                     for b in range(q)] for a in range(q)]
        self.neg = [self.add[a].index(0) for a in range(q)]
        self.minus_one = self.neg[1]
        self.inv = [None] + [self.pow(a, q - 2) for a in range(1, q)]
        # a -> a^q0 is the involution: the identity when q0 = q.
        self.sigma = [self.pow(a, spec.q0) for a in range(q)]
        self.norm_one = tuple(a for a in range(1, q) if self.mul[a][self.sigma[a]] == 1)

    def pow(self, a: int, n: int) -> int:
        if n == 0:
            return 1
        return self.exp[self.log[a] * n % (self.q - 1)] if a else 0


@lru_cache(maxsize=None)
def field_table(spec: FieldSpec) -> FieldTable:
    return FieldTable(spec)


def poly_text(coeffs: tuple[int, ...]) -> str:
    """The text of a polynomial given by its coefficients from the constant
    term up, highest term first: (2, 0, 1) is x^2+2, () is 0."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c:
            head = "" if c == 1 and i else str(c)
            terms.append(head + ("" if i == 0 else "x" if i == 1 else f"x^{i}"))
    return "+".join(terms) or "0"


def _mod(a: list[int], b: list[int], F: FieldTable) -> list[int]:
    """The remainder of a by b, as coefficient lists from the constant term
    up; b has a nonzero leading coefficient, the result no trailing zero."""
    a = list(a)
    n = len(b) - 1
    add, mul = F.add, F.mul
    # Adding c * x^(top - n) * b * (-1 / lead) clears a[top] = c.
    scale = mul[F.minus_one][F.inv[b[-1]]]
    b = [mul[scale][c] for c in b]
    for top in range(len(a) - 1, n - 1, -1):
        row = mul[a[top]]
        for i in range(n):
            a[top - n + i] = add[a[top - n + i]][row[b[i]]]
    del a[n:]
    while a and not a[-1]:
        a.pop()
    return a


def _times(a: list[int], b: list[int], F: FieldTable) -> list[int]:
    """The product of two coefficient lists."""
    add, mul = F.add, F.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        row = mul[c]
        for j, d in enumerate(b):
            out[i + j] = add[out[i + j]][row[d]]
    return out


def is_irreducible(field: FieldSpec, coeffs: tuple[int, ...]) -> bool:
    """Ben-Or's test: P of degree n is irreducible exactly when
    gcd(x^(q^k) - x, P) = 1 for every k <= n/2, because x^(q^k) - x is the
    product of the monic irreducibles whose degree divides k.

    Runs on coefficient lists through the field tables, for any nonzero
    leading coefficient.
    """
    n = len(coeffs) - 1
    if n < 1:
        return False
    F = field_table(field)
    P = list(coeffs)
    h = [0, 1]  # x^(q^k) mod P, from k = 0
    for _ in range(n // 2):
        # h^q by squaring and multiplying, the bits of q from the top.
        base = h
        for bit in bin(field.q)[3:]:
            h = _mod(_times(h, h, F), P, F)
            if bit == "1":
                h = _mod(_times(h, base, F), P, F)
        # Euclid on h - x (padded to x's length) and P; the last nonzero
        # remainder is their gcd.
        a, b = h + [0, 0], P
        a[1] = F.add[a[1]][F.minus_one]
        while b:
            a, b = b, _mod(a, b, F)
        if len(a) > 1:
            return False
    return True


def sigma_dual(field: FieldSpec, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The monic polynomial whose roots are the inverse (conjugate) roots.

    Writing P = sum c_i x^i of degree n, the dual has coefficients
    sigma(c_{n-i}) / sigma(c_0).  It is an involution on monic
    polynomials with nonzero constant term.
    """
    if not coeffs or coeffs[0] == 0:
        raise ValueError("the dual needs a nonzero constant term")
    if coeffs[-1] != 1:
        raise ValueError("the dual is defined for monic polynomials")
    F = field_table(field)
    mul, sigma = F.mul, F.sigma
    scale = mul[F.inv[sigma[coeffs[0]]]]
    return tuple(scale[sigma[c]] for c in reversed(coeffs))


class ClassType(namedtuple("ClassType", ("degree", "rank"))):
    """The kind of a class: its degree and its rank, 0 for x - 1, 1 for
    x + 1 and 2 for any other.  The exponent and parameter tables take a
    type, never a class, and read nothing else of it; is_linear and
    is_x_minus_one are their vocabulary.  Memos key on the type, so they
    keep no class alive."""

    __slots__ = ()

    @property
    def is_linear(self) -> bool:
        return self.degree == 1

    @property
    def is_x_minus_one(self) -> bool:
        return self.rank == 0


@dataclass(frozen=True)
class SelfDualClass:
    """A monic irreducible polynomial equal to its own sigma-dual, given
    by its field and its coefficients from the constant term up.

    Its type tells x - 1 and x + 1, the linear classes of constant term
    -1 and 1, from the others; sort_key puts them first, as they play a
    distinguished role everywhere.
    """

    field: FieldSpec
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        field, cs = self.field, self.coeffs
        if any(not (0 <= c < field.q) for c in cs):
            raise ValueError("coefficient out of range for the field")
        if cs and cs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        degree = len(cs) - 1
        if degree < 1 or cs[-1] != 1 or cs[0] == 0:
            raise ValueError("a self-dual class is monic, nonconstant, and prime to x")
        if sigma_dual(field, cs) != cs:
            raise ValueError(f"{poly_text(cs)} is not self-dual")
        if not is_irreducible(field, cs):
            raise _NotIrreducible(cs)
        ranks = {field_table(field).minus_one: 0, 1: 1} if degree == 1 else {}
        kind = ClassType(degree, ranks.get(cs[0], 2))
        # Classes key every multiplicity map: hash the field and the
        # coefficients once, not on every lookup, as the generated hash
        # would.  Equal classes have equal fields, so this agrees with ==.
        self.__dict__.update(degree=degree, type=kind, _hash=hash((field, cs)),
                             label="x-1" if kind.is_x_minus_one else poly_text(cs),
                             sort_key=(*kind, cs))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.label


@lru_cache(maxsize=None)
def enumerate_self_dual_classes(field: FieldSpec, degree: int) -> tuple[SelfDualClass, ...]:
    """All self-dual classes of the given degree, in a fixed canonical order.

    The construction solves the functional equation for the coefficients
    and filters by irreducibility, once per candidate, so it touches
    q^(degree/2) candidates rather than q^degree.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    if degree > MAX_ENUM_DEGREE:
        raise DegreeLimitError()
    trivial = field.ext == "trivial"
    # No class has this degree: under the trivial involution the roots pair
    # off as r, 1/r, which differ unless r = +-1, so past degree 1 the
    # degree is even; under the quadratic one r^(-q0) = r^(q^j) makes the
    # degree divide 2j + 1.
    if (degree % 2 == 1 and degree > 1) if trivial else degree % 2 == 0:
        return ()
    F = field_table(field)
    half = degree // 2
    found = []
    # P~ = P: c0 * sigma(c0) = 1 and c_i = sigma(c_(n-i)) / sigma(c0).
    for c0 in F.norm_one:
        # Under the trivial involution c0 = -1 makes P anti-palindromic,
        # so P(1) = 0 and only x - 1 itself is irreducible.
        if trivial and degree > 1 and c0 != 1:
            continue
        scale = F.mul[F.inv[F.sigma[c0]]]
        for upper in itertools.product(range(field.q), repeat=half):
            cs = [c0] + [0] * (degree - 1 - half) + list(upper) + [1]
            for i in range(1, degree - half):
                cs[i] = scale[F.sigma[cs[degree - i]]]
            # Self-dual by construction, so SelfDualClass refuses only the
            # reducible candidates: its checks are the one filter.
            try:
                found.append(SelfDualClass(field, tuple(cs)))
            except ValueError:
                continue
    return tuple(sorted(found, key=lambda c: c.sort_key))


# sort_key puts x - 1 and x + 1 first among the linear classes under both
# involutions.
@lru_cache(maxsize=None)
def class_x_minus_one(field: FieldSpec) -> SelfDualClass:
    return enumerate_self_dual_classes(field, 1)[0]


@lru_cache(maxsize=None)
def class_x_plus_one(field: FieldSpec) -> SelfDualClass:
    return enumerate_self_dual_classes(field, 1)[1]


@lru_cache(maxsize=1024)
def count_self_dual_classes(field: FieldSpec, degree: int) -> int:
    """Census of self-dual classes by torus counting, without enumeration.

    Roots of a self-dual class of degree 2m (trivial involution, m >= 1)
    or degree d (quadratic involution, d odd) are the elements of exact
    degree in the norm-one torus of order q^m + 1, resp. q0^d + 1, so the
    census is Moebius inversion over the subtori.  The elements 1 and -1
    never carry an even-degree class; they sit in the smallest subtorus
    except when m is a power of two, where they are removed by hand.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    if field.ext == "trivial":
        if degree == 1:
            return 2
        if degree % 2 == 1:
            return 0
        m = degree // 2
        q = field.q
        total = sum(_mobius(m // d) * (q ** d + 1)
                    for d in _divisors(m) if (m // d) % 2 == 1)
        if m & (m - 1) == 0:
            total -= 2
        return total // degree
    if degree % 2 == 0:
        return 0
    q0 = field.q0
    total = sum(_mobius(degree // d) * (q0 ** d + 1) for d in _divisors(degree))
    return total // degree
