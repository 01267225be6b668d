"""The ten acceptance criteria.

Every check is exact; no tolerances appear anywhere.  Each criterion
also carries a wall-clock budget, asserted with a generous monotonic
timer so a pathological regression cannot hide behind a green suite.

Criteria 6, 7, 8 and 10 share one exhaustive sweep over all groups with
dual dimension at most 18 for residue sizes 3 and 5 and class degrees
at most 4, enumerated by signature so that the checked quantities cover
every concrete datum.
"""

import json
import time
from fractions import Fraction
from itertools import product

import pytest

from cuspred.cli import datum_to_obj, main
from cuspred.ffpoly import (
    FieldSpec,
    count_self_dual_classes,
    enumerate_self_dual_classes,
    is_irreducible,
    sigma_dual,
)
from cuspred.fixtures import gallery_entry
from cuspred.hecke import (
    half_text,
    identity_sides,
    ired,
    parameter_pair,
    parameter_shapes,
    reducibility_pair,
)
from cuspred.packets import companions, cross_form_companions, packet_stats
from cuspred.selfcheck import run_selfcheck


@pytest.fixture(scope="module")
def sweep():
    return run_selfcheck(q0_values=(3, 5), max_dual=18, max_degree=4)


def timed(budget: float):
    started = time.monotonic()

    def check():
        assert time.monotonic() - started < budget
    return check


def pair_str(pair):
    return [half_text(x) for x in pair]


def domain_class(datum, label):
    from cuspred.hecke import iteration_domain
    for cls in iteration_domain(datum):
        if cls.label == label:
            return cls
    raise KeyError(label)


def test_criterion_1_sp6():
    done = timed(1.0)
    datum = gallery_entry("sp6").datum
    assert pair_str(reducibility_pair(datum, domain_class(datum, "x-1"))) == ["2", "1"]
    assert pair_str(reducibility_pair(datum, domain_class(datum, "x+1"))) == ["1", "1"]
    assert identity_sides(datum) == (7, 7)
    census = companions(datum)
    stats = packet_stats(census)
    assert stats.jordan_size == 5
    assert stats.e == 4
    assert stats.e0 == 1
    assert stats.packet_size == 16
    assert stats.expected_count == 8
    assert stats.census_total == 8
    assert stats.census_data == 4
    done()


def test_criterion_2_sp4():
    done = timed(1.0)
    datum = gallery_entry("sp4").datum
    assert [(cls.label, half_text(s)) for cls, s in ired(datum)] == [
        ("x-1", "1"), ("x+1", "2")]
    assert len(parameter_shapes(datum)) == 2
    stats = packet_stats(companions(datum))
    assert stats.census_total == 4
    assert stats.expected_count == 2
    assert stats.multiple == Fraction(2)
    done()


def test_criterion_3_so8(capsys):
    done = timed(1.0)
    datum = gallery_entry("so8").datum
    assert [(cls.label, half_text(s)) for cls, s in ired(datum)] == [
        ("x-1", "2"), ("x-1", "2")]
    stats = packet_stats(companions(datum))
    assert stats.census_total == 2
    assert stats.multiple == Fraction(1, 2)
    code = main(["packet", json.dumps(datum_to_obj(datum)), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert any("full orthogonal doubling" in note for note in report["notes"])
    done()


def test_criterion_4_so20():
    done = timed(5.0)
    datum = gallery_entry("so20").datum
    assert pair_str(reducibility_pair(datum, domain_class(datum, "x-1"))) == ["3", "1"]
    assert pair_str(reducibility_pair(datum, domain_class(datum, "x+1"))) == ["3", "1"]
    assert identity_sides(datum) == (20, 20)
    census = companions(datum)
    stats = packet_stats(census)
    assert stats.expected_count == 8
    assert stats.census_total == 16
    assert [c.reps for c in census.companions] == [8, 8]
    totals = {str(e.group): e.total for e in cross_form_companions(datum)}
    assert totals["SO(20)[w10,a00]/F3"] == 16
    assert sum(totals.values()) == 16
    done()


def test_criterion_5_u14():
    done = timed(1.0)
    datum = gallery_entry("u14").datum
    quadratic = domain_class(datum, "x^2+1")
    assert quadratic.degree == 2
    assert pair_str(parameter_pair(datum, quadratic)) == ["3", "7"]
    assert [(cls.label, half_text(s)) for cls, s in ired(datum)] == [
        ("x^2+1", "5/2"), ("x^2+1", "1")]
    assert identity_sides(datum) == (14, 14)
    census = companions(datum)
    assert len(census.companions) == 1
    assert census.total == 1
    forms = {str(e.group): e.total for e in cross_form_companions(datum)}
    assert forms == {"U(14)[w7,a00,e+]/F3": 1}
    done()


def test_criterion_6_identity_sweep(sweep):
    assert sweep.elapsed < 120.0
    assert sweep.groups > 200
    assert sweep.signatures > 10000
    assert sweep.failure_counts["identity"] == 0


def test_criterion_7_recovery_round_trip(sweep):
    assert sweep.failure_counts["recovery"] == 0


def test_criterion_8_closed_form_matches_search(sweep):
    # a single mismatch between the companion sets read off each group's
    # listing and the closed parity description is a hard failure; the
    # listing census is held to generate-and-validate search in
    # tests/test_selfcheck.py
    assert sweep.failure_counts["epsilon"] == 0, sweep.failures


def test_criterion_9_self_dual_census():
    done = timed(10.0)
    fields = (FieldSpec(3), FieldSpec(5), FieldSpec(3, 2),
              FieldSpec(3, 2, "quadratic"))
    for field in fields:
        q = field.q
        for degree in range(1, 5):
            brute = 0
            for tail in product(range(q), repeat=degree):
                if tail[0] == 0:
                    continue
                poly = tail + (1,)
                if is_irreducible(field, poly) and sigma_dual(field, poly) == poly:
                    brute += 1
            assert count_self_dual_classes(field, degree) == brute
            assert len(enumerate_self_dual_classes(field, degree)) == brute
    # parity vanishing: no odd degrees above 1 with the trivial involution,
    # no even degrees with the quadratic one
    for field in (FieldSpec(3), FieldSpec(5), FieldSpec(3, 2)):
        assert count_self_dual_classes(field, 3) == 0
    assert count_self_dual_classes(FieldSpec(3, 2, "quadratic"), 2) == 0
    assert count_self_dual_classes(FieldSpec(3, 2, "quadratic"), 4) == 0
    done()


def test_criterion_10_symplectic_census_law(sweep):
    assert "census-law" in sweep.checks
    assert sweep.failure_counts["census-law"] == 0


def test_sweep_counts_every_signature(sweep):
    # The sweep checks one representative per canonical key, yet counts
    # every group, signature and concrete datum of the sweep.
    assert (sweep.groups, sweep.signatures, sweep.data_weight) == (358, 59980, 19940921422)
    assert sweep.checked == 20558
