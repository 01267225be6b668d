"""Tests for the sweep driver: group iteration and report plumbing."""

import hashlib
import itertools
import json
import random
from collections import Counter, defaultdict
from functools import cache
from types import SimpleNamespace

import pytest

from cuspred.cli import datum_from_obj, datum_to_obj, main
from cuspred.cuspdata import (
    DatumSignature,
    enumerate_signatures,
    signature_of,
    signature_representative,
    signature_type,
)
from cuspred.ffpoly import ClassType, FieldSpec
from cuspred.groups import FAMILIES, GroupSpec, dual_dimension, mirror
from cuspred.hecke import ired, jordan
from cuspred.packets import companions, enumerate_epsilon, listed_swap_sets, packet_stats
from cuspred.selfcheck import (
    _CHECKS,
    _field_free_key,
    canonical_key,
    iter_group_specs,
    run_selfcheck,
)


class TestGroupIteration:
    def test_families_and_bound(self):
        groups = list(iter_group_specs(q0_values=(3,), max_dual=9))
        assert {g.family for g in groups} == {"Sp", "SOodd", "SOeven", "Uunram", "Uram"}
        assert all(dual_dimension(g) <= 9 for g in groups)

    def test_field_assignment(self):
        for group in iter_group_specs(q0_values=(3,), max_dual=6):
            if group.family == "Uunram":
                assert group.field.ext == "quadratic" and group.field.q == 9
            else:
                assert group.field.ext == "trivial" and group.field.q == 3

    def test_ramified_unitary_carries_both_parities(self):
        epsilons = {g.epsilon for g in iter_group_specs((3,), 6)
                    if g.family == "Uram"}
        assert epsilons == {1, -1}

    def test_no_duplicates(self):
        groups = list(iter_group_specs((3, 5), 8))
        assert len(groups) == len(set(groups))

    def test_acceptance_sweep_groups_are_pinned(self):
        groups = [str(g) for g in iter_group_specs((3, 5), 13)]
        assert len(set(groups)) == len(groups) == 248
        digest = hashlib.sha256("\n".join(groups).encode()).hexdigest()
        assert digest[:16] == "a5ad344c6746406e"

    def test_bound_is_sharp(self):
        small = {g for g in iter_group_specs((3,), 7)}
        larger = {g for g in iter_group_specs((3,), 8)}
        assert small < larger
        assert all(dual_dimension(g) == 8 for g in larger - small)


class TestReport:
    def test_small_sweep_is_clean(self):
        report = run_selfcheck(q0_values=(3,), max_dual=6, max_degree=4)
        assert report.ok
        assert report.failures == ()
        assert report.groups == len(list(iter_group_specs((3,), 6)))
        assert report.signatures > 0
        # every signature stands for at least one concrete datum
        assert report.data_weight >= report.signatures

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_selfcheck(checks=("identity", "bogus"))

    @pytest.mark.parametrize("kwargs, message", [
        ({"q0_values": (3, 3)}, "residue size 3 is given twice"),
        ({"checks": ("identity", "identity")}, "check 'identity' is given twice"),
        ({"q0_values": ()}, "no residue size selected"),
        ({"checks": ()}, "no check selected"),
        ({"checks": ("",)}, "^empty check name$"),
    ])
    def test_repeated_or_empty_selection_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            run_selfcheck(max_dual=2, **kwargs)

    @pytest.mark.parametrize("q0", [7, 9, 2, 1, 0, -3, 10 ** 18 + 3])
    def test_unsupported_residue_size_rejected_up_front(self, monkeypatch, q0):
        def no_sweep(*args):
            raise AssertionError("the sweep started")

        monkeypatch.setattr("cuspred.selfcheck.iter_group_specs", no_sweep)
        with pytest.raises(ValueError, match=rf"^residue size {q0} is not supported: the "
                           r"sweep needs an odd prime q0 with F\(q0\^2\) of at most 32 "):
            run_selfcheck(q0_values=(3, q0), max_dual=2)

    def test_stops_at_first_failing_datum(self, monkeypatch):
        monkeypatch.setitem(_CHECKS, "identity", lambda datum, listed: "planted")
        report = run_selfcheck(q0_values=(3,), max_dual=6, checks=("identity", "recovery"))
        assert report.signatures == 1 and not report.ok
        assert report.failure_counts == {"identity": 1, "recovery": 0}
        assert [(f.check, f.detail) for f in report.failures] == [("identity", "planted")]

    def test_check_subset_runs_alone(self):
        report = run_selfcheck(q0_values=(3,), max_dual=4, checks=("identity",))
        assert report.checks == ("identity",)
        assert set(report.failure_counts) == {"identity"}
        assert report.ok

    def test_census_is_searched_only_for_the_checks_that_read_it(self, monkeypatch):
        # epsilon reads its census off the group's listing; only census-law
        # searches, once per checked symplectic key.
        searched = []

        def counting(datum):
            searched.append(datum)
            return companions(datum)

        monkeypatch.setattr("cuspred.packets.companions", counting)
        for checks in (("identity", "recovery"), ("epsilon",)):
            report = run_selfcheck(q0_values=(3,), max_dual=6, checks=checks)
            assert report.ok
            assert (report.checked, report.signatures) == (199, 380)
            assert searched == []
        report = run_selfcheck(q0_values=(3,), max_dual=6, checks=("census-law",))
        assert report.ok and report.checked == 199
        symplectic = {canonical_key(group, sig) for group in iter_group_specs((3,), 6)
                      if group.family == "Sp"
                      for sig, _ in enumerate_signatures(group, max_degree=4)}
        assert {canonical_key(d.group, signature_of(d)) for d in searched} == symplectic
        assert len(searched) == len(symplectic) == 8

    @pytest.mark.parametrize("q0", [(3, 5), (5, 3)])
    def test_listing_census_equals_the_search(self, monkeypatch, q0):
        # The oracle of the epsilon check's census: on every representative
        # the default sweep checks, the swap sets read off the group's
        # listing are those the generate and validate search finds.
        compared = []

        def compare(datum, listed):
            assert listed_swap_sets(datum, listed) == companions(datum).swap_sets, str(datum)
            compared.append(datum)

        monkeypatch.setitem(_CHECKS, "epsilon", compare)
        report = run_selfcheck(q0_values=q0, max_dual=13, checks=("epsilon",))
        assert report.ok and report.checked == len(compared) == 3900


class TestCanonicalKeys:
    """The sweep checks one representative per canonical key, the first in
    sweep order.  The per-signature loop below is the reduction's oracle:
    every signature of the keys it meets gives the same invariants, over
    either field and on either side of the flip."""

    @staticmethod
    @cache
    def listed(group):
        return {sig.rows for sig, _ in enumerate_signatures(group, max_degree=4)}

    @classmethod
    def invariants(cls, group, sig, flip):
        """What the checks read of the signature's representative, free of
        the field; a datum on the flipped side is mapped back."""
        datum = signature_representative(group, sig)
        order = slice(None, None, -1 if flip else 1)

        def typed(classes):
            return tuple(sorted((signature_type(c), *datum.pairs[c][order]) for c in classes))

        found = companions(datum)
        qs, stats = found.qsets, packet_stats(found)
        return {
            "verdicts": tuple(check(datum, cls.listed(group)) is None
                             for check in _CHECKS.values()),
            "census": sorted(((c.datum.parahoric.n1, c.datum.parahoric.n2)[order],
                              typed(c.swap_set), c.reps) for c in found.companions),
            "closed": sorted(map(typed, enumerate_epsilon(datum))),
            "qsets": tuple(map(len, (qs.raw, qs.kept, qs.removed, qs.constrained, qs.free))),
            # Under the quadratic involution x + 1 is pooled with the other
            # linear classes, so delta is not a signature invariant there.
            "delta": qs.delta if group.field.ext == "trivial" else None,
            "ired": sorted((signature_type(cls), s) for cls, s in ired(datum)),
            "jordan": len(jordan(datum)),
            "totals": (stats.census_total, stats.multiple, stats.o_total),
        }

    def test_representatives_agree_across_fields_and_flips(self):
        sweep = list(iter_group_specs((3, 5), 9))
        signatures = {group: [sig for sig, _ in enumerate_signatures(group, max_degree=4)]
                      for group in sweep}
        members = defaultdict(list)
        for group, sigs in signatures.items():
            mirrored = set(signatures[mirror(group)])
            for sig in sigs:
                assert sig.flipped() in mirrored, (str(group), str(sig))
                key = canonical_key(group, sig)
                members[key].append((group, sig, key != _field_free_key(group, sig)))
        assert (sum(map(len, members.values())), len(members)) == (2806, 845)
        across_fields = across_flips = 0
        for key, sharing in members.items():
            first = self.invariants(*sharing[0])
            for member in sharing[1:]:
                assert self.invariants(*member) == first, (key, str(member[0]), str(member[1]))
            across_fields += len({group.field.p for group, _, _ in sharing}) > 1
            across_flips += len({flip for _, _, flip in sharing}) > 1
        assert (across_fields, across_flips) == (601, 796)

    @pytest.mark.parametrize("q0", [(3, 5), (5, 3)])
    def test_each_key_is_checked_once(self, monkeypatch, q0):
        calls = []
        monkeypatch.setitem(_CHECKS, "identity", lambda datum, listed: calls.append(datum))
        report = run_selfcheck(q0_values=q0, max_dual=6)
        assert report.ok
        assert (report.groups, report.signatures, report.data_weight) == (118, 857, 37234)
        assert len(calls) == 250

    @pytest.mark.parametrize("q0", [(3, 5), (5, 3)])
    def test_report_counts_the_checked_representatives(self, capsys, q0):
        assert run_selfcheck(q0_values=q0, max_dual=6, checks=("identity",)).checked == 250
        args = ["selfcheck", "--dualdim", "6", "--checks", "identity"]
        args += ["--q", str(q0[0]), "--q", str(q0[1])]
        assert main([*args, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["checked"] == 250
        assert main(args) == 0
        assert "- swept 118 groups, 857 signatures, 37234 data, 250 checked (" \
            in capsys.readouterr().out

    @pytest.mark.parametrize("q0, p", [((5, 3), 5), ((3, 5), 3)])
    def test_failure_is_reported_on_the_first_field(self, capsys, monkeypatch, q0, p):
        # SO(5)[w2,a01] at (2,0) with x + 1 and one quadratic class in the
        # first slot: a key of both fields, and of the mirror SO(5)[w2,a10].
        sig = DatumSignature(2, 0, ((ClassType(1, 1), 1, 0), (ClassType(2, 2), 1, 0)))
        target = canonical_key(GroupSpec("SOodd", 5, 2, (0, 1), FieldSpec(3)), sig)

        def planted(datum, listed):
            return "planted" if canonical_key(datum.group, signature_of(datum)) == target else None

        monkeypatch.setitem(_CHECKS, "identity", planted)
        args = ["selfcheck", "--dualdim", "6", "--checks", "identity,epsilon", "--format", "json"]
        assert main([*args, "--q", str(q0[0]), "--q", str(q0[1])]) == 1
        [failure] = json.loads(capsys.readouterr().out)["failures"]
        assert (failure["check"], failure["detail"]) == ("identity", "planted")
        assert failure["group"] == f"SO(5)[w2,a01]/F{p}"
        reproduced = datum_from_obj(failure["reproducer"])
        assert reproduced.field.p == p and signature_of(reproduced) == sig


class TestMirrorGroups:
    """The sweep spends one group of each mirror pair: the group met
    second only gets the flips of the first one's listing.  The
    per-signature loop over every group, as in TestCanonicalKeys, is the
    oracle."""

    SWEEP = list(iter_group_specs((3, 5), 13))

    @staticmethod
    @cache
    def listing(group):
        return tuple(enumerate_signatures(group, max_degree=4))

    def test_flips_of_the_mirror_listing_are_the_listing(self):
        swept = set(self.SWEEP)
        for group in self.SWEEP:
            assert mirror(group) in swept, str(group)
            flipped = enumerate_signatures(group, max_degree=4,
                                           mirrored=self.listing(mirror(group)))
            assert Counter(flipped) == Counter(self.listing(group)), str(group)

    @pytest.mark.parametrize("q0", [(3, 5), (5, 3)])
    def test_totals_equal_the_per_signature_loop(self, q0):
        # Up to dual 9, as in TestCanonicalKeys; CI pins the default sweep
        # (dual 13) under both q0 orders.
        sweep = list(iter_group_specs(q0, 9))
        totals = (len(sweep), sum(len(self.listing(group)) for group in sweep),
                  sum(weight for group in sweep for _, weight in self.listing(group)))
        report = run_selfcheck(q0_values=q0, max_dual=9, checks=("identity",))
        assert report.ok and (report.groups, report.signatures, report.data_weight) == totals

    @pytest.mark.parametrize("q0", [(3, 5), (5, 3)])
    def test_the_second_of_a_mirror_pair_is_not_spent(self, monkeypatch, q0):
        calls, spent, yielded = [], [], []

        def counting(group, mirrored=None, **kwargs):
            calls.append(group)
            if mirrored is None:
                spent.append(group)
            for item in enumerate_signatures(group, mirrored=mirrored, **kwargs):
                yielded.append(item)
                yield item

        monkeypatch.setattr("cuspred.selfcheck.enumerate_signatures", counting)
        report = run_selfcheck(q0_values=q0, max_dual=6)
        assert report.ok
        assert (report.groups, report.signatures, report.data_weight) == (118, 857, 37234)
        assert (len(calls), len(spent)) == (118, 74)
        # Every signature the report counts still comes out of
        # enumerate_signatures, which is where a traced run counts them.
        assert len(yielded) == report.signatures
        # A self-mirror group is its own first: it is always spent.
        seen = set()
        for group in iter_group_specs(q0, 6):
            assert (group in spent) == (mirror(group) == group or mirror(group) not in seen)
            seen.add(group)


class TestPastTheSweepBound:
    """Seeded random data above the acceptance sweep bound of dual dimension 18."""

    def test_random_data_pass_every_check(self):
        rng = random.Random(2016)
        groups = [g for g in iter_group_specs((3, 5), 26) if dual_dimension(g) > 18]
        assert len(groups) == 160
        # Draw round-robin over the families, so that the Sp census law
        # always runs (only 8 of the 160 groups are Sp).  A group with
        # fewer than five signatures at degree <= 3 is passed over.
        pools = [rng.sample([g for g in groups if g.family == family], 8) for family in FAMILIES]
        data = []
        for group in itertools.chain.from_iterable(zip(*pools)):
            signatures = [sig for sig, _ in enumerate_signatures(group, max_degree=3)]
            if len(signatures) >= 5:
                listed = {sig.rows for sig in signatures}
                data.extend((signature_representative(group, sig), listed)
                            for sig in rng.sample(signatures, 5))
            if len(data) == 60:
                break
        assert len(data) == 60
        assert {datum.group.family for datum, _ in data} == set(FAMILIES)
        for datum, listed in data:
            assert datum_from_obj(json.loads(json.dumps(datum_to_obj(datum)))) == datum
            for name, check in _CHECKS.items():
                assert check(datum, listed) is None, (name, str(datum))


class TestFailureReports:
    """A planted fault, end to end through the CLI: each check's failure
    detail, the counts, both renderings and a reproducer that the CLI
    takes back.  The sweep over F3 up to dual dimension 3 starts on Sp(2),
    so the census law runs on its first datum."""

    DATUM = "Sp(2)/F3:(1,0) [(x^2+1)^1] x [1]"
    ALL_OK = dict.fromkeys(("identity", "recovery", "epsilon", "census-law"), 0)

    def planted_stats(census):
        return SimpleNamespace(census_total=3, q=1, delta=0)

    def raising_search(datum):
        raise AssertionError("planted search fault")

    def raising_listing(datum, listed):
        raise AssertionError("planted listing fault")

    PLANTS = {
        "identity": ("hecke.verify_identity", lambda datum: False,
                     {"identity": "degree identity failed"}),
        "recovery": ("packets.recover_m_pair", lambda cls, s, s2: (-1, -1),
                     {"recovery": "multiplicities of x-1 not recovered"}),
        "epsilon": ("packets.enumerate_epsilon", lambda datum: [],
                    {"epsilon": "census swaps [[], ['x^2+1']] but closed form []"}),
        "census-law": ("packets.packet_stats", planted_stats,
                       {"census-law": "census total 3 differs from 2^(1+0)"}),
        "search": ("packets.companions", raising_search,
                   {"census-law": "raised planted search fault"}),
        "listing": ("packets.listed_swap_sets", raising_listing,
                    {"epsilon": "raised planted listing fault"}),
    }

    def sweep(self, capsys, monkeypatch, plant, fmt):
        name, fault, details = self.PLANTS[plant]
        monkeypatch.setattr(f"cuspred.{name}", fault)
        code = main(["selfcheck", "--q", "3", "--dualdim", "3", "--format", fmt])
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        return out, details

    def describes(self, capsys, reproducer):
        assert main(["describe", json.dumps(reproducer)]) == 0
        assert self.DATUM in capsys.readouterr().out

    @pytest.mark.parametrize("plant", PLANTS)
    def test_json_report(self, capsys, monkeypatch, plant):
        out, details = self.sweep(capsys, monkeypatch, plant, "json")
        rep = json.loads(out)
        assert rep["ok"] is False
        assert (rep["groups"], rep["signatures"], rep["data_weight"]) == (1, 1, 1)
        assert rep["failure_counts"] == {**self.ALL_OK, **dict.fromkeys(details, 1)}
        assert [(f["check"], f["datum"], f["detail"]) for f in rep["failures"]] == [
            (check, self.DATUM, detail) for check, detail in details.items()]
        for failure in rep["failures"]:
            self.describes(capsys, failure["reproducer"])

    @pytest.mark.parametrize("plant", PLANTS)
    def test_markdown_report(self, capsys, monkeypatch, plant):
        out, details = self.sweep(capsys, monkeypatch, plant, "md")
        lines = out.splitlines()
        assert lines[5:9] == [f"- {check}: {'1 FAILURES' if check in details else 'ok'}"
                              for check in self.ALL_OK]
        assert lines[-1] == "- verdict: FAILED"
        reported = lines[9:-1]
        assert len(reported) == 2 * len(details)
        for (check, detail), line, reproducer in zip(details.items(), reported[::2],
                                                     reported[1::2]):
            assert line == f"- FAILURE [{check}] {self.DATUM}: {detail}"
            assert reproducer.startswith("    reproducer: {")
            self.describes(capsys, json.loads(reproducer[len("    reproducer: "):]))
