"""Exhaustive consistency sweeps over small residue fields.

The sweep walks every group of every family with dual dimension up to a
bound, over the fields of residue size 3 and 5 (their quadratic
extensions for the unramified unitary family), enumerates cuspidal data
by signature with class degrees capped, and runs the cheap global
checks on one representative per signature:

    identity    the Jordan chains tile the dual dimension exactly
    recovery    multiplicities are recoverable from the exponent pairs
    epsilon     the closed swap-set description matches the census swap
                sets read off the group's listing
                (packets.listed_swap_sets)
    census-law  on Sp, the generate and validate companion census
                (packets.companions) has size 2^(q + delta)

Each check takes the datum and the rows (DatumSignature.rows) of every
signature of its group: the sweep lists a group in full before it checks
any of its signatures.  So the sweep runs the companion search on
symplectic groups alone; tests/test_selfcheck.py holds the listing's
swap sets to the search's on every representative of the default sweep.
Each check imports the hecke and packets modules as it runs and calls
their functions as attributes: importing this module loads neither, and
patches take effect.

Classes of equal degree enter every checked quantity interchangeably,
so one representative per signature covers the whole census; the report
still records how many concrete data the signatures stand for.

The checks read a signature only through class types, and the field only
through its involution, so they depend only on the signature's field-free
key: (family, dimension, Witt index, anisotropic split, epsilon,
involution, signature).  Read from the diagram's other end, on the mirror
form (groups.mirror, DatumSignature.flipped), they give the same verdicts
again.  So one representative is checked per canonical key, the
field-free key or its mirror's, whichever sorts first: the first
signature in sweep order with that key.  Every signature and its data
weight are still counted, and the report also says how many
representatives it checked, one per key.  As every signature of a key
gets the same verdicts, the first failing signature is the first of its
key: a failure stops at the same datum as a per-signature sweep, with
the same reproducer.  tests/test_selfcheck.py keeps the per-signature
loop as the oracle of this reduction.

The same flip maps a group's signatures one to one onto its mirror's,
with equal weights, as the field is the same.  So once a group is swept
in full, its mirror adds no key.  The sweep keeps the listing of each
group it has spent in full, and when it meets the mirror it only counts
the flips of that listing, which enumerate_signatures(..., mirrored=...)
yields: nothing is spent and no key is looked up, and every signature
counted still comes out of enumerate_signatures.  A self-mirror group is always
spent, and a group that stopped on a failure is never kept, as the sweep
ends there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .cuspdata import (
    DatumSignature,
    enumerate_signatures,
    signature_representative,
)
from .ffpoly import MAX_ENUM_DEGREE, MAX_Q, DegreeLimitError, FieldSpec
from .groups import FAMILIES, GroupSpec, dual_dimension, group_forms, mirror

__all__ = [
    "ALL_CHECKS",
    "CheckFailure",
    "DEFAULT_DEGREE",
    "DEFAULT_DUAL",
    "DEFAULT_Q0",
    "SelfcheckReport",
    "canonical_key",
    "iter_group_specs",
    "run_selfcheck",
    "sweep_arguments",
]

@dataclass(frozen=True)
class CheckFailure:
    check: str
    datum: object  # the offending CuspidalDatum, kept whole as a reproducer
    detail: str


@dataclass(frozen=True)
class SelfcheckReport:
    q0_values: tuple[int, ...]
    max_dual: int
    max_degree: int
    checks: tuple[str, ...]
    groups: int
    signatures: int
    data_weight: int
    checked: int  # representatives checked, one per canonical key
    failure_counts: dict
    failures: tuple[CheckFailure, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not any(self.failure_counts.values())


def iter_group_specs(q0_values, max_dual: int):
    """Every group of every family with dual dimension at most the bound."""
    for q0 in q0_values:
        trivial = FieldSpec(q0)
        quadratic = FieldSpec(q0, 2, "quadratic")
        for family in FAMILIES:
            field = quadratic if family == "Uunram" else trivial
            for dim in range(1, max_dual + 3):
                for group in group_forms(family, dim, field):
                    if dual_dimension(group) <= max_dual:
                        yield group


def _field_free_key(group: GroupSpec, sig: DatumSignature) -> tuple:
    return (group.family, group.dim, group.witt, group.aniso, group.epsilon, group.field.ext,
            sig.n1, sig.n2, sig.rows)


def canonical_key(group: GroupSpec, sig: DatumSignature) -> tuple:
    """The field-free key of the signature on the group, or that of its
    flip on the mirror form, whichever sorts first."""
    return min(_field_free_key(group, sig), _field_free_key(mirror(group), sig.flipped()))


def _check_identity(datum, listed) -> str | None:
    from . import hecke

    if not hecke.verify_identity(datum):
        return "degree identity failed"
    return None


def _check_recovery(datum, listed) -> str | None:
    from . import hecke, packets

    for cls, pair in datum.pairs.items():
        s, s2 = hecke.reducibility_pair(datum, cls)
        if packets.recover_m_pair(cls, s, s2) != (max(pair), min(pair)):
            return f"multiplicities of {cls.label} not recovered"
    return None


def _check_epsilon(datum, listed) -> str | None:
    from . import packets

    swap_sets = packets.listed_swap_sets(datum, listed)
    closed = packets.enumerate_epsilon(datum)
    if swap_sets != closed:
        got = [[c.label for c in s] for s in swap_sets]
        predicted = [[c.label for c in s] for s in closed]
        return f"census swaps {got} but closed form {predicted}"
    return None


def _check_census_law(datum, listed) -> str | None:
    if datum.group.family != "Sp":
        return None
    from . import packets

    stats = packets.packet_stats(packets.companions(datum))
    if stats.census_total != 2 ** (stats.q + stats.delta):
        return (f"census total {stats.census_total} differs from "
                f"2^({stats.q}+{stats.delta})")
    return None


_CHECKS = {
    "identity": _check_identity,
    "recovery": _check_recovery,
    "epsilon": _check_epsilon,
    "census-law": _check_census_law,
}
ALL_CHECKS = tuple(_CHECKS)
# The sweep's defaults; the selfcheck command's help reads them from here.
DEFAULT_Q0 = (3, 5)
DEFAULT_DUAL = 13
DEFAULT_DEGREE = 4


def _check_selection(what: str, values) -> None:
    if not values:
        raise ValueError(f"no {what} selected")
    for value in values:
        if values.count(value) > 1:
            raise ValueError(f"{what} {value!r} is given twice")


def sweep_arguments(q0_values=DEFAULT_Q0, max_dual: int = DEFAULT_DUAL,
                    max_degree: int = DEFAULT_DEGREE, checks=ALL_CHECKS) -> tuple:
    """The arguments of run_selfcheck in its order, the selections as
    tuples; a ValueError names the first one that a sweep refuses."""
    q0_values, checks = tuple(q0_values), tuple(checks)
    _check_selection("residue size", q0_values)
    for q0 in q0_values:  # the sweep runs over F(q0) and F(q0^2)
        try:
            FieldSpec(q0, 2, "quadratic")
        except ValueError as err:
            raise ValueError(f"residue size {q0} is not supported: the sweep needs an odd prime"
                             f" q0 with F(q0^2) of at most {MAX_Q} elements ({err})") from err
    _check_selection("check", checks)
    for name in checks:
        if name not in _CHECKS:
            raise ValueError(f"unknown check {name!r}")
    if min(max_degree, max_dual) > MAX_ENUM_DEGREE:  # a representative would list such classes
        raise DegreeLimitError()
    return q0_values, max_dual, max_degree, checks


def run_selfcheck(q0_values=DEFAULT_Q0, max_dual: int = DEFAULT_DUAL,
                  max_degree: int = DEFAULT_DEGREE, checks=ALL_CHECKS) -> SelfcheckReport:
    """Sweep the groups and stop after the first datum that fails a check.
    The arguments are checked first, by sweep_arguments."""
    q0_values, max_dual, max_degree, checks = sweep_arguments(q0_values, max_dual,
                                                               max_degree, checks)
    started = time.monotonic()
    groups = signatures = data_weight = 0
    failures: list[CheckFailure] = []
    checked = set()
    listings: dict[GroupSpec, list] = {}  # group -> its listing, until its mirror comes
    for group in iter_group_specs(q0_values, max_dual):
        groups += 1
        twin = listings.pop(mirror(group), None)  # never the group itself: it is not listed yet
        if twin is not None:  # every key of the group is checked: only count
            for _, weight in enumerate_signatures(group, max_degree=max_degree, mirrored=twin):
                signatures += 1
                data_weight += weight
            continue
        listing = list(enumerate_signatures(group, max_degree=max_degree))
        listed = {sig.rows for sig, _ in listing}
        for sig, weight in listing:
            signatures += 1
            data_weight += weight
            key = canonical_key(group, sig)
            if key in checked:
                continue
            checked.add(key)
            datum = signature_representative(group, sig)
            for name in checks:
                try:
                    detail = _CHECKS[name](datum, listed)
                except (AssertionError, ValueError) as err:
                    detail = f"raised {err}"
                if detail is not None:
                    failures.append(CheckFailure(name, datum, detail))
            if failures:
                break
        if failures:
            break
        if mirror(group) != group:
            listings[group] = listing
    failure_counts = {name: sum(f.check == name for f in failures) for name in checks}
    return SelfcheckReport(
        q0_values=q0_values,
        max_dual=max_dual,
        max_degree=max_degree,
        checks=checks,
        groups=groups,
        signatures=signatures,
        data_weight=data_weight,
        checked=len(checked),
        failure_counts=failure_counts,
        failures=tuple(failures),
        elapsed=time.monotonic() - started,
    )
