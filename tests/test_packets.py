"""Tests for companion censuses, cross-form matching and packet statistics."""

import hashlib
import itertools
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from cuspred.cuspdata import (
    CuspidalDatum,
    FactorSupport,
    count_representations,
    enumerate_data,
    enumerate_signatures,
    signature_representative,
    slot_series,
)
from cuspred.ffpoly import (
    FieldSpec,
    class_x_minus_one,
    class_x_plus_one,
    enumerate_self_dual_classes,
)
from cuspred.fixtures import gallery, gallery_entry
from cuspred.groups import (
    GroupSpec,
    ParahoricSpec,
    component_group_order,
    enumerate_parahorics,
    parahoric_of,
)
from cuspred.hecke import ired, reducibility_pair
from cuspred.packets import (
    QSets,
    companions,
    cross_form_companions,
    enumerate_epsilon,
    full_orthogonal_count,
    packet_stats,
    q_sets,
    recover_m_pair,
    _other_forms,
    _prescore,
)
from cuspred.selfcheck import iter_group_specs

F3 = FieldSpec(3)
F7 = FieldSpec(7)
F9Q = FieldSpec(3, 2, "quadratic")

XM, XP = class_x_minus_one(F3), class_x_plus_one(F3)
P2 = enumerate_self_dual_classes(F3, 2)[0]
Q4A = enumerate_self_dual_classes(F3, 4)[0]


def labels(classes):
    return [c.label for c in classes]


def swap_label_sets(census):
    return {frozenset(c.label for c in s) for s in census.swap_sets}


class TestRecovery:
    def test_gallery_round_trip(self):
        for entry in gallery():
            datum = entry.datum
            for cls, pair in datum.pairs.items():
                s, s2 = reducibility_pair(datum, cls)
                assert recover_m_pair(cls, s, s2) == (max(pair), min(pair)), \
                    (entry.name, cls.label)

    def test_census_round_trip(self):
        for group in (GroupSpec("Sp", 6, 3, (0, 0), F3),
                      GroupSpec("SOeven", 8, 3, (1, 1), F3),
                      GroupSpec("Uunram", 5, 2, (1, 0), F9Q)):
            for datum in enumerate_data(group, max_degree=4):
                for cls, pair in datum.pairs.items():
                    s, s2 = reducibility_pair(datum, cls)
                    assert recover_m_pair(cls, s, s2) == (max(pair), min(pair))


class TestQSets:
    def test_gallery(self):
        qs = q_sets(gallery_entry("sp6").datum)
        assert labels(qs.raw) == ["x-1", "x+1"]
        assert qs.removed == () and qs.constrained == ()
        assert qs.delta == 1
        qs = q_sets(gallery_entry("sp4").datum)
        assert qs.q == 0 and qs.delta == 2
        qs = q_sets(gallery_entry("so8").datum)
        assert labels(qs.free) == ["x-1"] and qs.constrained == ()
        qs = q_sets(gallery_entry("so20").datum)
        assert labels(qs.constrained) == ["x-1", "x+1"] and qs.free == ()
        qs = q_sets(gallery_entry("u14").datum)
        assert labels(qs.constrained) == ["x^2+1"]
        qs = q_sets(gallery_entry("so5").datum)
        assert labels(qs.removed) == ["x-1", "x+1"] and qs.kept == ()

    def test_odd_orthogonal_removes_linear(self):
        # Raw linear classes of an odd orthogonal group never swap alone.
        group = GroupSpec("SOodd", 7, 3, (1, 0), F3)
        for datum in enumerate_data(group, max_degree=2):
            qs = q_sets(datum)
            assert all(c.degree > 1 for c in qs.kept)


class TestCompanions:
    def test_gallery_censuses(self):
        for entry in gallery():
            census = companions(entry.datum)
            assert len(census.companions) == entry.expected["census_data"], entry.name
            assert census.total == entry.expected["census_total"], entry.name

    def test_sp6_swaps(self):
        census = companions(gallery_entry("sp6").datum)
        assert swap_label_sets(census) == {
            frozenset(), frozenset({"x-1"}), frozenset({"x+1"}),
            frozenset({"x-1", "x+1"})}
        assert all(c.reps == 2 for c in census.companions)

    def test_so20_paired_swap(self):
        census = companions(gallery_entry("so20").datum)
        assert swap_label_sets(census) == {frozenset(), frozenset({"x-1", "x+1"})}
        assert all(c.reps == 8 for c in census.companions)

    def test_companions_preserve_everything(self):
        for entry in gallery():
            target = ired(entry.datum)
            for companion in companions(entry.datum).companions:
                assert companion.datum.group == entry.datum.group
                assert ired(companion.datum) == target
                assert companion.datum.parahoric.maximal

    def test_large_witt_index(self):
        # Sp(180600)/F3, [(x-1)^300] x [1]: the parahoric of each swap is
        # solved, not looked up among all 90,301 vertices of the chain.
        group = GroupSpec("Sp", 180600, 90300, (0, 0), F3)
        xm = class_x_minus_one(F3)
        datum = CuspidalDatum(ParahoricSpec(group, 90300, 0),
                              (FactorSupport.of([(xm, 300)]), FactorSupport.empty()))
        tracemalloc.start()
        try:
            census = companions(datum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert census.swap_sets == ((), (xm,))
        assert census.companions[1].datum.parahoric == ParahoricSpec(group, 0, 90300)
        assert peak < 1_000_000

    def test_empty_swap_is_identity(self):
        for entry in gallery():
            census = companions(entry.datum)
            first = census.companions[0]
            assert first.swap_set == ()
            assert first.datum == entry.datum
            assert first.datum is entry.datum


class TestClosedForm:
    def test_matches_gallery(self):
        for entry in gallery():
            census = companions(entry.datum)
            closed = enumerate_epsilon(entry.datum)
            assert census.swap_sets == closed, entry.name

    SWEEP = [
        GroupSpec("Sp", 6, 3, (0, 0), F3),
        GroupSpec("Sp", 8, 4, (0, 0), F3),
        GroupSpec("SOodd", 7, 3, (1, 0), F3),
        GroupSpec("SOodd", 7, 2, (2, 1), F3),
        GroupSpec("SOeven", 8, 4, (0, 0), F3),
        GroupSpec("SOeven", 8, 3, (2, 0), F3),
        GroupSpec("SOeven", 8, 3, (1, 1), F3),
        GroupSpec("Uunram", 6, 3, (0, 0), F9Q),
        GroupSpec("Uunram", 7, 3, (1, 0), F9Q),
        GroupSpec("Uram", 8, 4, (0, 0), F3, epsilon=1),
        GroupSpec("Uram", 8, 4, (0, 0), F3, epsilon=-1),
        GroupSpec("Uram", 9, 4, (1, 0), F3, epsilon=1),
    ]

    def test_matches_validation_on_sweep(self):
        for group in self.SWEEP:
            for datum in enumerate_data(group, max_degree=4):
                census = companions(datum)
                closed = enumerate_epsilon(datum)
                assert census.swap_sets == closed, str(datum)


class TestDeviationWitnesses:
    def test_odd_slot_pair_keeps_linear_swaps(self):
        # Even orthogonal group split as two odd slots: the linear
        # exponent formulas agree on both slots, so x -+ 1 stay kept and
        # unconstrained, unlike every other even orthogonal split.
        group = GroupSpec("SOeven", 12, 5, (1, 1), F3)
        datum = CuspidalDatum(
            ParahoricSpec(group, 3, 2),
            (FactorSupport.of([(XM, 1), (P2, 1)]), FactorSupport.of([(XP, 1)])))
        qs = q_sets(datum)
        assert labels(qs.kept) == ["x-1", "x+1", "x^2+1"]
        assert qs.constrained == ()
        census = companions(datum)
        assert len(census.companions) == 8
        assert census.swap_sets == enumerate_epsilon(datum)

    def test_even_ramified_unitary(self):
        # Slots (even orthogonal, symplectic): x - 1 removed, x + 1 kept
        # but sign-constrained.
        group = GroupSpec("Uram", 10, 4, (2, 0), F3, epsilon=1)
        datum = CuspidalDatum(
            ParahoricSpec(group, 1, 3),
            (FactorSupport.of([(Q4A, 1)]), FactorSupport.of([(XM, 1), (XP, 1)])))
        qs = q_sets(datum)
        assert labels(qs.removed) == ["x-1"]
        assert labels(qs.constrained) == ["x+1", Q4A.label]
        census = companions(datum)
        assert swap_label_sets(census) == {frozenset(), frozenset({"x+1", Q4A.label})}
        assert census.swap_sets == enumerate_epsilon(datum)

    def test_odd_ramified_unitary(self):
        # Slots (odd orthogonal, symplectic): x - 1 kept and free, x + 1
        # removed.
        group = GroupSpec("Uram", 9, 4, (1, 0), F3, epsilon=1)
        datum = CuspidalDatum(
            ParahoricSpec(group, 2, 2),
            (FactorSupport.of([(XM, 1)]), FactorSupport.of([(XP, 1), (P2, 1)])))
        qs = q_sets(datum)
        assert labels(qs.removed) == ["x+1"]
        assert labels(qs.free) == ["x-1", P2.label]
        census = companions(datum)
        assert len(census.companions) == 4
        assert census.swap_sets == enumerate_epsilon(datum)

    @staticmethod
    def removed_pair_datum():
        group = GroupSpec("SOodd", 17, 8, (1, 0), F3)
        return CuspidalDatum(
            ParahoricSpec(group, 6, 2),
            (FactorSupport.of([(XM, 2)]), FactorSupport.of([(XM, 1), (XP, 1)])))

    def test_removed_pair_cancellation_is_filtered(self):
        # Swapping two removed classes together can conserve the totals
        # and produce a valid datum, but it moves a reducibility point,
        # so the census rejects it.
        datum = self.removed_pair_datum()
        group = datum.group
        qs = q_sets(datum)
        assert labels(qs.removed) == ["x-1", "x+1"] and qs.kept == ()
        sneaky = build_by_trial(group, datum, (XM, XP))
        assert sneaky is not None  # validates...
        assert ired(sneaky) != ired(datum)  # ...but moves a point
        census = companions(datum)
        assert swap_label_sets(census) == {frozenset()}
        assert census.swap_sets == enumerate_epsilon(datum)

    def test_kept_swap_that_moves_a_point_raises(self, monkeypatch):
        # Were x -+ 1 kept, the swap of both would be a kept swap that
        # validates and moves a point: the search must say so, not skip it.
        datum = self.removed_pair_datum()
        honest = q_sets(datum)

        def lenient(d):
            return QSets(honest.raw, honest.raw, (), (), honest.raw, honest.delta)

        monkeypatch.setattr("cuspred.packets.q_sets", lenient)
        with pytest.raises(AssertionError, match=r"kept swap \['x-1', 'x\+1'\] moved"):
            companions(datum)

    def test_survivor_that_fails_validation_raises(self, monkeypatch):
        # The pre-score names the parahoric of every survivor, which is then
        # validated in full: a refusal is an internal error naming the swap.
        datum = gallery_entry("sp6").datum

        def refusing(parahoric, supports):
            if supports != datum.supports:
                raise ValueError("clause d: planted")
            return CuspidalDatum(parahoric, supports)

        monkeypatch.setattr("cuspred.packets.CuspidalDatum", refusing)
        with pytest.raises(AssertionError, match=r"^swap \['x-1'\] passed the pre-score on "
                           r"Sp\(6\)/F3:\(0,3\) but fails validation: clause d: planted$"):
            companions(datum)

    def test_unswapped_datum_named_on_another_parahoric_raises(self, monkeypatch):
        # The empty swap is the datum itself only on the datum's own
        # parahoric: a pre-score naming another is built there and refused.
        datum = gallery_entry("sp6").datum
        own, other = datum.parahoric, ParahoricSpec(datum.group, 0, 3)

        def misplaced(group, dual_dims):
            found = parahoric_of(group, dual_dims)
            return other if found == own else found

        monkeypatch.setattr("cuspred.packets.parahoric_of", misplaced)
        with pytest.raises(AssertionError, match=r"^swap \[\] passed the pre-score on "
                           r"Sp\(6\)/F3:\(0,3\) but fails validation: clause c: "):
            companions(datum)


def build_by_trial(group, datum, swap_set):
    """The valid datum that swapping m1 <-> m2 of the given classes builds
    on the group, found by offering the swapped supports to every
    parahoric of the group; None when none takes them.  Shares nothing
    with the search's pre-score or groups.parahoric_of."""
    pairs = {cls: pair[::-1] if cls in swap_set else pair for cls, pair in datum.pairs.items()}
    supports = tuple(FactorSupport.of([(cls, p[i]) for cls, p in pairs.items() if p[i]])
                     for i in (0, 1))
    built = []
    for parahoric in enumerate_parahorics(group):
        try:
            built.append(CuspidalDatum(parahoric, supports))
        except ValueError:
            pass
    assert len(built) <= 1, [str(b) for b in built]
    return built[0] if built else None


def brute_force_census(group, datum):
    """(swap set, datum, reps) for every subset of the classes with
    m1 != m2 whose swap builds a valid datum on the group with the same
    reducibility points: build everything, compare ired."""
    raw = [cls for cls, (m1, m2) in datum.pairs.items() if m1 != m2]
    target = ired(datum)
    out = []
    for r in range(len(raw) + 1):
        for subset in itertools.combinations(raw, r):
            companion = build_by_trial(group, datum, subset)
            if companion is not None and ired(companion) == target:
                out.append((subset, companion, count_representations(companion).total))
    return out


def oracle_data():
    for group in iter_group_specs((3, 5), 7):
        for sig, _ in enumerate_signatures(group, max_degree=4):
            yield signature_representative(group, sig)
    for entry in gallery():
        yield entry.datum


class TestSearchAgainstBruteForce:
    """The companion search against building and validating every swap."""

    @staticmethod
    def triples(companions_):
        return [(c.swap_set, c.datum, c.reps) for c in companions_]

    def test_companions_and_cross_forms(self):
        checked = 0
        for datum in oracle_data():
            census = companions(datum)
            assert self.triples(census.companions) == \
                brute_force_census(datum.group, datum), str(datum)
            entries = cross_form_companions(datum)
            assert [entry.group for entry in entries] == list(_other_forms(datum.group))
            for entry in entries:
                assert self.triples(entry.companions) == \
                    brute_force_census(entry.group, datum), (str(datum), str(entry.group))
            checked += 1
        assert checked > 500


class TestCensusPins:
    """Every census of the signatures up to dual dimension 9, pinned by
    digest: swap sets, companion data and reps, on the datum's own group
    and on each other form."""

    def test_companion_censuses_are_pinned(self):
        h = hashlib.sha256()
        censuses = 0

        def add(datum, form, census):
            nonlocal censuses
            for c in census:
                h.update(f"{datum}|{form}|{labels(c.swap_set)}|{c.datum}|{c.reps}\n".encode())
            h.update(f"{datum}|{form}|{len(census)}\n".encode())
            censuses += 1

        for group in iter_group_specs((3, 5), 9):
            for sig, _ in enumerate_signatures(group, max_degree=4):
                datum = signature_representative(group, sig)
                add(datum, group, companions(datum).companions)
                for entry in cross_form_companions(datum):
                    add(datum, entry.group, entry.companions)
        assert censuses == 6886  # 2,806 signatures on their own group, 4,080 on other forms
        assert h.hexdigest()[:16] == "81adbbdc426b6c6f"


def wide_datum(group, n1, n2, pairs):
    """A datum on the vertex (n1, n2) whose classes are the first classes
    over F7 of degrees 1, 2 and 4, with the given multiplicity pairs."""
    classes = [cls for degree in (1, 2, 4) for cls in enumerate_self_dual_classes(F7, degree)]
    supports = tuple(FactorSupport.of([(cls, pair[i]) for cls, pair in zip(classes, pairs)
                                       if pair[i]]) for i in (0, 1))
    return CuspidalDatum(ParahoricSpec(group, n1, n2), supports)


class TestWideSearch:
    """The pre-score past the q of the pinned sweeps."""

    # Ten classes, nine of them raw: x -+ 1, the three quadratic classes
    # and four quartic ones swap; the last quartic class sits at (1, 1).
    PAIRS = [(1, 0), (0, 1), (1, 0), (0, 1), (2, 0), (1, 0), (0, 1), (0, 2), (1, 0), (1, 1)]

    @pytest.mark.parametrize("group, n1, n2, census_size, other_sizes", [
        # x -+ 1 are removed: their swaps can conserve the totals, but move points.
        (GroupSpec("SOodd", 49, 24, (0, 1), F7), 11, 13, 64, [64, 64, 64]),
        # Every raw class is constrained; on the SOodd x SOodd form nothing validates.
        (GroupSpec("SOeven", 46, 22, (0, 2), F7), 11, 11, 256, [0, 0, 256, 0]),
    ])
    def test_nine_raw_classes_against_brute_force(self, group, n1, n2, census_size,
                                                    other_sizes):
        # brute_force_census validates each swap, through exponent_total,
        # and compares ired, through hecke.reducibility_pair.
        datum = wide_datum(group, n1, n2, self.PAIRS)
        census = companions(datum)
        assert census.qsets.q == 9
        assert len(census.companions) == census_size
        assert census.swap_sets == enumerate_epsilon(datum)
        triples = TestSearchAgainstBruteForce.triples
        assert triples(census.companions) == brute_force_census(group, datum)
        entries = cross_form_companions(datum)
        assert [len(entry.companions) for entry in entries] == other_sizes
        for entry in entries:
            assert triples(entry.companions) == brute_force_census(entry.group, datum), \
                str(entry.group)

    def test_search_memory_is_linear_in_q(self):
        # Twelve raw classes on Sp(40)/F7: all 4,096 swaps pass the
        # pre-score.  The walk sums each subset's totals afresh and holds
        # one subset at a time; a table of 4,096 four-tuples alone would
        # take about 290 kB.
        group = GroupSpec("Sp", 40, 20, (0, 0), F7)
        datum = wide_datum(group, 10, 10, [(1, 0), (0, 1)] * 6)
        # One untraced pass fills the bounded memos (pre-score rows, type
        # exponents, parahorics), so the peak does not hang on which tests
        # ran before.
        assert sum(1 for _ in _prescore(group, datum)) == 2 ** 12
        tracemalloc.start()
        try:
            passed = sum(1 for _ in _prescore(group, datum))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert passed == 2 ** 12
        assert peak < 64_000

    def test_exponent_that_is_not_half_integral_names_the_class(self):
        # No group pairs a U slot with an orthogonal one; searched in such
        # slots, x - 1 would get s = 5/4, and the pre-score says so.
        datum = gallery_entry("sp6").datum
        with pytest.raises(AssertionError,
                           match=r"^reducibility exponent of x-1 is not half-integral$"):
            list(_prescore(SimpleNamespace(slot_kinds=("U", "SOodd")), datum))


class TestCrossForm:
    def test_so20(self):
        entry = gallery_entry("so20")
        results = cross_form_companions(entry.datum)
        got = {str(r.group): r.total for r in results}
        assert got == entry.expected["crossform"]
        split = results[0]
        assert str(split.group) == "SO(20)[w10,a00]/F3"
        assert {frozenset(c.label for c in comp.swap_set) for comp in split.companions} \
            == {frozenset({"x-1"}), frozenset({"x+1"})}
        parahorics = {(comp.datum.parahoric.n1, comp.datum.parahoric.n2)
                      for comp in split.companions}
        assert parahorics == {(2, 8), (8, 2)}
        assert all(comp.reps == 8 for comp in split.companions)

    def test_u14(self):
        entry = gallery_entry("u14")
        results = cross_form_companions(entry.datum)
        got = {str(r.group): r.total for r in results}
        assert got == entry.expected["crossform"]
        (form,) = results
        (comp,) = form.companions
        assert (comp.datum.parahoric.n1, comp.datum.parahoric.n2) == (6, 1)
        assert labels(comp.swap_set) == ["x^2+1"]
        assert comp.reps == 1

    @pytest.mark.parametrize("group, others", [
        (GroupSpec("SOeven", 8, 4, (0, 0), F3),
         ["SO(8)[w3,a02]/F3", "SO(8)[w3,a11]/F3", "SO(8)[w3,a20]/F3", "SO(8)[w2,a22]/F3"]),
        (GroupSpec("SOodd", 7, 3, (1, 0), F3),
         ["SO(7)[w3,a01]/F3", "SO(7)[w2,a12]/F3", "SO(7)[w2,a21]/F3"]),
        (GroupSpec("Uunram", 6, 3, (0, 0), F9Q), ["U(6)[w2,a11,ur]/F9"]),
        (GroupSpec("Uram", 8, 4, (0, 0), F3, 1), ["U(8)[w3,a20,e+]/F3"]),
        (GroupSpec("Uram", 8, 4, (0, 0), F3, -1), ["U(8)[w3,a02,e-]/F3"]),
    ])
    def test_other_forms_are_pinned(self, group, others):
        assert [str(form) for form in _other_forms(group)] == others

    def test_symplectic_has_no_other_forms(self):
        assert cross_form_companions(gallery_entry("sp6").datum) == ()

    def test_cross_form_preserves_points(self):
        for name in ("so20", "u14", "so5", "so8"):
            datum = gallery_entry(name).datum
            target = ired(datum)
            for form in cross_form_companions(datum):
                for comp in form.companions:
                    assert ired(comp.datum) == target
                    assert comp.datum.group == form.group


class TestFullOrthogonal:
    def test_gallery(self):
        assert full_orthogonal_count(gallery_entry("so8").datum) == 2
        assert full_orthogonal_count(gallery_entry("so20").datum) == 16

    def test_swapped_slot_fuses(self):
        # A slot whose two series are swapped contributes one induced
        # label instead of two doubled ones.
        group = GroupSpec("SOeven", 4, 1, (2, 0), F3)
        datum = CuspidalDatum(
            ParahoricSpec(group, 1, 0),
            (FactorSupport.of([(Q4A, 1)]), FactorSupport.empty()))
        assert full_orthogonal_count(datum) == 1

    def test_only_even_orthogonal(self):
        with pytest.raises(ValueError):
            full_orthogonal_count(gallery_entry("sp6").datum)


def stabiliser_total(series, generators) -> int:
    """Sum of the stabiliser orders over the orbits of the slot label tuples.

    series holds slot_series's (n, action) for each slot, the labels of a
    slot being 0..n-1.  Each generator is a tuple of slot indices that one
    sign flips together; a flip exchanges the two labels of a swapped slot
    and fixes the labels of any other.  The signs span a group of order
    2^len(generators), and an orbit's stabiliser has order group / orbit.
    """
    group = list(itertools.product((False, True), repeat=len(generators)))

    def act(flips, labels):
        labels = list(labels)
        for flip, slots in zip(flips, generators):
            for i in slots:
                if flip and series[i][1] == "swapped":
                    labels[i] = 1 - labels[i]
        return tuple(labels)

    total = 0
    seen = set()
    for labels in itertools.product(*(range(n) for n, _ in series)):
        if labels in seen:
            continue
        orbit = {act(flips, labels) for flips in group}
        seen |= orbit
        total += len(group) // len(orbit)
    return total


class TestCountsAgainstOrbitWalk:
    """count_representations and full_orthogonal_count against walking the
    orbits of their sign groups on the slot series labels: the component
    group flips both slots with one sign, the full orthogonal group has one
    sign per slot of positive dimension."""

    @staticmethod
    def check(datum, cases) -> None:
        factors = datum.parahoric.factors
        series = tuple(slot_series(f, s) for f, s in zip(factors, datum.supports))
        order = component_group_order(datum.parahoric)
        component = [(0, 1)] if order == 2 else []
        assert count_representations(datum).total == stabiliser_total(series, component), \
            str(datum)
        cases.add((order, series))
        if datum.group.family == "SOeven":
            signs = [(i,) for i, f in enumerate(factors) if f.dim > 0]
            assert full_orthogonal_count(datum) == stabiliser_total(series, signs), str(datum)
            cases.add(("O", tuple(f.dim > 0 for f in factors), series))

    # The sweeps reach every case of both rules: a trivial or order-2
    # component group over fixed, one or two swapped slots; a swapped
    # slot and a slot of dimension 0 under the full orthogonal group.
    COVERED = {
        (1, ((2, "fixed"), (2, "fixed"))),
        (1, ((2, "swapped"), (1, "fixed"))),
        (2, ((2, "fixed"), (2, "fixed"))),
        (2, ((2, "swapped"), (1, "fixed"))),
        (2, ((2, "swapped"), (2, "swapped"))),
        ("O", (True, True), ((2, "swapped"), (2, "fixed"))),
        ("O", (True, False), ((2, "swapped"), (1, "fixed"))),
        ("O", (False, True), ((1, "fixed"), (2, "fixed"))),
    }

    def test_concrete_data(self):
        data = 0
        cases = set()
        for group in iter_group_specs((3, 5), 6):
            for datum in enumerate_data(group, max_degree=4):
                self.check(datum, cases)
                data += 1
        assert data == 37234
        assert self.COVERED <= cases

    def test_signature_representatives(self):
        signatures = 0
        cases = set()
        for group in iter_group_specs((3, 5), 13):
            for sig, _ in enumerate_signatures(group, max_degree=4):
                self.check(signature_representative(group, sig), cases)
                signatures += 1
        assert signatures == 12266
        assert self.COVERED <= cases


class TestPacketStats:
    def test_gallery(self):
        for entry in gallery():
            stats = packet_stats(companions(entry.datum))
            exp = entry.expected
            assert stats.jordan_size == exp["jordan_size"], entry.name
            assert stats.packet_size == exp["packet_size"], entry.name
            assert stats.e == exp["e"], entry.name
            assert stats.e0 == exp["e0"], entry.name
            assert stats.expected_count == exp["expected_count"], entry.name
            assert stats.census_data == exp["census_data"], entry.name
            assert stats.census_total == exp["census_total"], entry.name
            assert str(stats.multiple) == exp["multiple"], entry.name
            if "o_total" in exp:
                assert stats.o_per_datum == exp["o_per_datum"], entry.name
                assert stats.o_total == exp["o_total"], entry.name
                assert str(stats.o_multiple) == exp["o_multiple"], entry.name
            else:
                assert stats.o_total is None

    def test_multiple_values_are_small_powers(self):
        allowed = {Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)}
        for entry in gallery():
            assert packet_stats(companions(entry.datum)).multiple in allowed

    def test_symplectic_census_law(self):
        # Census total 2^(q + delta), e = q + delta + 1 unless both
        # slots carry x + 1, and an odd exponent always occurs.
        for group in (GroupSpec("Sp", 4, 2, (0, 0), F3),
                      GroupSpec("Sp", 6, 3, (0, 0), F3),
                      GroupSpec("Sp", 8, 4, (0, 0), F3)):
            for datum in enumerate_data(group, max_degree=4):
                stats = packet_stats(companions(datum))
                assert stats.census_total == 2 ** (stats.q + stats.delta), str(datum)
                expected_e = stats.q + stats.delta + (1 if stats.delta <= 1 else 0)
                assert stats.e == expected_e, str(datum)
                assert stats.e0 == 1, str(datum)
