"""A gallery of worked examples with their expected invariants.

Each entry pins one cuspidal datum together with every quantity the
package computes for it: representation counts, reducibility exponents,
Jordan data, packet sizes, companion censuses and cross-form totals.
The values were worked out by hand from the parameter tables and are
frozen here; the test suite recomputes all of them, and the command
line interface prints them next to the recomputed values.

All residue fields are of size three, the smallest odd case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cuspdata import CuspidalDatum, FactorSupport, count_representations
from .ffpoly import (
    FieldSpec,
    class_x_minus_one,
    class_x_plus_one,
    enumerate_self_dual_classes,
)
from .groups import GroupSpec, ParahoricSpec

__all__ = ["GalleryEntry", "evaluate_entry", "gallery", "gallery_entry"]


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    title: str
    datum: CuspidalDatum
    expected: dict
    note: str = ""


@lru_cache(maxsize=1)
def gallery() -> tuple[GalleryEntry, ...]:
    f3 = FieldSpec(3)
    xm, xp = class_x_minus_one(f3), class_x_plus_one(f3)
    p2 = enumerate_self_dual_classes(f3, 2)[0]  # x^2 + 1

    sp6 = GalleryEntry(
        name="sp6",
        title="Sp(6), eigenvalue 1 on the first slot and -1 on the second",
        datum=CuspidalDatum(
            ParahoricSpec(GroupSpec("Sp", 6, 3, (0, 0), f3), 2, 1),
            (FactorSupport.of([(xm, 1)]), FactorSupport.of([(xp, 1)]))),
        expected={
            "rep_total": 2,
            "identity": [7, 7],
            "s_pairs": {"x-1": ["2", "1"], "x+1": ["1", "1"]},
            "ired": [["x-1", "2"], ["x-1", "1"], ["x+1", "1"], ["x+1", "1"]],
            "jordan_size": 5,
            "packet_size": 16,
            "e": 4,
            "e0": 1,
            "expected_count": 8,
            "census_data": 4,
            "census_total": 8,
            "multiple": "1",
            "shapes": 1,
            "q": 2,
            "delta": 1,
        })

    sp4 = GalleryEntry(
        name="sp4",
        title="Sp(4), eigenvalue -1 on both slots",
        datum=CuspidalDatum(
            ParahoricSpec(GroupSpec("Sp", 4, 2, (0, 0), f3), 1, 1),
            (FactorSupport.of([(xp, 1)]), FactorSupport.of([(xp, 1)]))),
        expected={
            "rep_total": 4,
            "identity": [5, 5],
            "s_pairs": {"x-1": ["1", "0"], "x+1": ["2", "0"]},
            "ired": [["x-1", "1"], ["x+1", "2"]],
            "jordan_size": 3,
            "packet_size": 4,
            "e": 2,
            "e0": 1,
            "expected_count": 2,
            "census_data": 1,
            "census_total": 4,
            "multiple": "2",
            "shapes": 2,
            "q": 0,
            "delta": 2,
        })

    so8 = GalleryEntry(
        name="so8",
        title="split SO(8), eigenvalue 1 with multiplicity two",
        datum=CuspidalDatum(
            ParahoricSpec(GroupSpec("SOeven", 8, 4, (0, 0), f3), 4, 0),
            (FactorSupport.of([(xm, 2)]), FactorSupport.empty())),
        expected={
            "rep_total": 1,
            "identity": [8, 8],
            "s_pairs": {"x-1": ["2", "2"], "x+1": ["0", "0"]},
            "ired": [["x-1", "2"], ["x-1", "2"]],
            "jordan_size": 4,
            "packet_size": 8,
            "e": 2,
            "e0": 0,
            "expected_count": 4,
            "census_data": 2,
            "census_total": 2,
            "multiple": "1/2",
            "shapes": 1,
            "o_per_datum": 2,
            "o_total": 4,
            "o_multiple": "1",
        })

    so20 = GalleryEntry(
        name="so20",
        title="nonsplit SO(20) of Witt index 8, both eigenvalues on both slots",
        datum=CuspidalDatum(
            ParahoricSpec(GroupSpec("SOeven", 20, 8, (2, 2), f3), 4, 4),
            (FactorSupport.of([(xm, 2), (xp, 1)]), FactorSupport.of([(xm, 1), (xp, 2)]))),
        expected={
            "rep_total": 8,
            "identity": [20, 20],
            "s_pairs": {"x-1": ["3", "1"], "x+1": ["3", "1"]},
            "ired": [["x-1", "3"], ["x-1", "1"], ["x+1", "3"], ["x+1", "1"]],
            "jordan_size": 8,
            "packet_size": 128,
            "e": 4,
            "e0": 1,
            "expected_count": 8,
            "census_data": 2,
            "census_total": 16,
            "multiple": "2",
            "shapes": 4,
            "o_per_datum": 16,
            "o_total": 32,
            "o_multiple": "4",
            "crossform": {
                "SO(20)[w10,a00]/F3": 16,
                "SO(20)[w9,a11]/F3": 0,
                "SO(20)[w9,a20]/F3": 0,
                "SO(20)[w9,a02]/F3": 0,
            },
        })

    u14 = GalleryEntry(
        name="u14",
        title="ramified U(14), one quadratic class on both slots",
        datum=CuspidalDatum(
            ParahoricSpec(GroupSpec("Uram", 14, 6, (2, 0), f3, epsilon=1), 0, 6),
            (FactorSupport.of([(p2, 1)]), FactorSupport.of([(p2, 3)]))),
        expected={
            "rep_total": 1,
            "identity": [14, 14],
            "f_pairs": {"x^2+1": ["3", "7"]},
            "s_pairs": {"x^2+1": ["5/2", "1"], "x-1": ["1/2", "1/2"], "x+1": ["0", "0"]},
            "ired": [["x^2+1", "5/2"], ["x^2+1", "1"]],
            "jordan_size": 3,
            "packet_size": 4,
            "e": 1,
            "e0": 1,
            "expected_count": 1,
            "census_data": 1,
            "census_total": 1,
            "multiple": "1",
            "shapes": 2,
            "crossform": {
                "U(14)[w7,a00,e+]/F3": 1,
            },
        })

    so5 = GalleryEntry(
        name="so5",
        title="SO(5) of Witt index 2, both eigenvalues on the even slot",
        datum=CuspidalDatum(
            ParahoricSpec(GroupSpec("SOodd", 5, 2, (0, 1), f3), 2, 0),
            (FactorSupport.of([(xm, 1), (xp, 1)]), FactorSupport.empty())),
        expected={
            "rep_total": 4,
            "identity": [4, 4],
            "f_pairs": {"x-1": ["2", "1"], "x+1": ["2", "1"]},
            "s_pairs": {"x-1": ["3/2", "1/2"], "x+1": ["3/2", "1/2"]},
            "ired": [["x-1", "3/2"], ["x+1", "3/2"]],
            "jordan_size": 2,
            "packet_size": 2,
            "e": 0,
            "e0": 0,
            "expected_count": 1,
            "census_data": 1,
            "census_total": 4,
            "multiple": "4",
            "shapes": 4,
        },
        note=("The exponent pairs are recomputed from the parameter tables: "
              "both slots give f = (2, 1) at each eigenvalue, forcing the "
              "half-integral pairs (3/2, 1/2).  A hand table quoting integral "
              "pairs {2, 1} and {1, 1} here is inconsistent with those "
              "parameters and with the degree identity, which needs 2 + 2 = 4."))

    return (sp6, sp4, so8, so20, u14, so5)


def gallery_entry(name: str) -> GalleryEntry:
    for entry in gallery():
        if entry.name == name:
            return entry
    raise KeyError(f"no gallery entry named {name!r}")


def evaluate_entry(entry: GalleryEntry) -> dict:
    """Recompute the expected values of a gallery entry, key for key.

    The result has exactly the keys of entry.expected, so comparing the
    two dictionaries checks every frozen value at once.
    """
    from .hecke import (
        half_text,
        identity_sides,
        ired,
        iteration_domain,
        parameter_pair,
        parameter_shapes,
        reducibility_pair,
    )
    from .packets import companions, cross_form_companions, packet_stats

    datum = entry.datum
    by_label = {cls.label: cls for cls in iteration_domain(datum)}
    census = companions(datum)
    stats = packet_stats(census)
    values = {
        "rep_total": count_representations(datum).total,
        "identity": list(identity_sides(datum)),
        "f_pairs": {label: [half_text(f) for f in parameter_pair(datum, by_label[label])]
                    for label in entry.expected.get("f_pairs", ())},
        "s_pairs": {label: [half_text(s) for s in reducibility_pair(datum, by_label[label])]
                    for label in entry.expected.get("s_pairs", ())},
        "ired": [[cls.label, half_text(s)] for cls, s in ired(datum)],
        "jordan_size": stats.jordan_size,
        "packet_size": stats.packet_size,
        "e": stats.e,
        "e0": stats.e0,
        "expected_count": stats.expected_count,
        "census_data": stats.census_data,
        "census_total": stats.census_total,
        "multiple": str(stats.multiple),
        "shapes": len(parameter_shapes(datum)),
        "q": stats.q,
        "delta": stats.delta,
        "o_per_datum": stats.o_per_datum,
        "o_total": stats.o_total,
        "o_multiple": None if stats.o_multiple is None else str(stats.o_multiple),
        "crossform": {str(e.group): e.total for e in cross_form_companions(datum)},
    }
    return {key: values[key] for key in entry.expected}
