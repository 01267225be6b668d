"""End-to-end tests of the command line interface."""

import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import cuspred
from cuspred.cli import _dumps, datum_from_obj, datum_to_obj, group_from_obj, group_to_obj, main
from cuspred.cuspdata import (
    CuspidalDatum,
    count_representations,
    enumerate_data,
    signature_representative,
)
from cuspred.ffpoly import MAX_ENUM_DEGREE, DegreeLimitError, FieldSpec, enumerate_self_dual_classes
from cuspred.fixtures import gallery, gallery_entry
from cuspred.groups import GroupSpec
from cuspred.selfcheck import iter_group_specs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


def datum_text(name: str) -> str:
    return json.dumps(datum_to_obj(gallery_entry(name).datum))


class TestSerialization:
    def test_datum_round_trip(self):
        for entry in gallery():
            obj = datum_to_obj(entry.datum)
            assert datum_from_obj(json.loads(json.dumps(obj))) == entry.datum

    def test_group_round_trip(self):
        for entry in gallery():
            group = entry.datum.group
            assert group_from_obj(group_to_obj(group)) == group

    def test_schema_shape(self):
        obj = datum_to_obj(gallery_entry("sp6").datum)
        assert set(obj) == {"group", "parahoric", "supports"}
        assert set(obj["group"]) == {"family", "epsilon", "witt_index", "aniso", "field"}
        assert obj["parahoric"] == {"n1": 2, "n2": 1}
        # x - 1 over F3, constant term first
        assert obj["supports"][0] == [{"poly": [2, 1], "m": 1}]


class TestMemos:
    def test_no_memo_keeps_a_class_alive(self, capsys, monkeypatch):
        # Memos key on a class's type, never on the class: the classes
        # built from a datum's JSON are freed once the commands are done.
        refs = []

        def recorded(obj):
            datum = datum_from_obj(obj)
            refs.extend(weakref.ref(cls) for support in datum.supports
                        for cls, _ in support.entries)
            return datum

        monkeypatch.setattr("cuspred.cli.datum_from_obj", recorded)
        for name in ("u14", "so20"):
            for command in ("describe", "packet", "crossform"):
                assert run(capsys, command, datum_text(name))[0] == 0
        gc.collect()
        assert len(refs) == 6 * 3
        assert [ref() for ref in refs] == [None] * len(refs)


class TestValidate:
    def test_valid_datum(self, capsys):
        code, rep = run_json(capsys, "validate", datum_text("sp6"))
        assert code == 0
        assert rep["valid"] is True
        assert all(f["clauses"]["a"] == "pass" for f in rep["factors"])

    def test_budget_violation_names_clause_c(self, capsys):
        obj = datum_to_obj(gallery_entry("sp6").datum)
        obj["supports"][0][0]["m"] = 2
        code, rep = run_json(capsys, "validate", json.dumps(obj))
        assert code == 1
        assert rep["valid"] is False
        bad = rep["factors"][0]["clauses"]["c"]
        assert "exponent total" in bad

    def test_non_maximal_parahoric_rejected(self, capsys):
        obj = datum_to_obj(gallery_entry("so8").datum)
        obj["parahoric"] = {"n1": 1, "n2": 3}
        obj["supports"] = [[], []]
        code, rep = run_json(capsys, "validate", json.dumps(obj))
        assert code == 1
        assert rep["parahoric_maximal"] is False


class TestDescribe:
    def test_sp6_report(self, capsys):
        code, rep = run_json(capsys, "describe", datum_text("sp6"))
        assert code == 0
        assert rep["identity"] == {"lhs": 7, "rhs": 7, "ok": True}
        assert rep["ired"] == [["x-1", "2"], ["x-1", "1"], ["x+1", "1"], ["x+1", "1"]]
        assert rep["representations"]["total"] == 2
        assert rep["shapes"]["count"] == 1

    def test_markdown_keeps_fractions(self, capsys):
        code, out, _ = run(capsys, "describe", datum_text("u14"))
        assert code == 0
        assert "5/2" in out
        assert "2.5" not in out

    def test_markdown_states_identity(self, capsys):
        code, out, _ = run(capsys, "describe", datum_text("sp6"))
        assert code == 0
        assert "identity: 7 = 7" in out

    def test_json_output_is_byte_deterministic(self, capsys):
        _, first, _ = run(capsys, "describe", datum_text("so20"), "--format", "json")
        _, second, _ = run(capsys, "describe", datum_text("so20"), "--format", "json")
        assert first == second


class TestPacket:
    def test_so8_census_and_doubling_note(self, capsys):
        code, rep = run_json(capsys, "packet", datum_text("so8"))
        assert code == 0
        assert rep["census"] == {"data": 2, "total": 2}
        assert rep["packet"]["multiple"] == "1/2"
        assert rep["orthogonal"] == {"per_datum": 2, "total": 4, "multiple": "1"}
        assert any("full orthogonal doubling" in note for note in rep["notes"])

    def test_sp6_swap_sets(self, capsys):
        code, rep = run_json(capsys, "packet", datum_text("sp6"))
        assert code == 0
        assert rep["census"] == {"data": 4, "total": 8}
        assert [c["swaps"] for c in rep["companions"]] == [
            [], ["x-1"], ["x+1"], ["x-1", "x+1"]]
        assert rep["stratification"]["free"] == ["x-1", "x+1"]


class TestCrossform:
    def test_u14_finds_quasi_split_form(self, capsys):
        code, rep = run_json(capsys, "crossform", datum_text("u14"))
        assert code == 0
        totals = {f["group"]: f["census_total"] for f in rep["forms"]}
        assert totals == {"U(14)[w7,a00,e+]/F3": 1}

    def test_so20_split_form_total(self, capsys):
        code, rep = run_json(capsys, "crossform", datum_text("so20"))
        assert code == 0
        totals = {f["group"]: f["census_total"] for f in rep["forms"]}
        assert totals["SO(20)[w10,a00]/F3"] == 16


# An odd orthogonal slot of positive rank inside a ramified unitary group.
URAM_SO3 = json.dumps({
    "group": {"family": "Uram", "epsilon": 1, "witt_index": 1, "aniso": [1, 0],
              "field": {"p": 3}},
    "parahoric": {"n1": 1, "n2": 0},
    "supports": [[{"poly": [1, 0, 1], "m": 1}], []]})
URAM_SO3_NOTE = ("untested combination: odd orthogonal factor of positive rank inside a "
                 "ramified unitary group; its cuspidal count is taken to be 1 per support")


class TestNotes:
    @pytest.mark.parametrize("command", ["validate", "describe", "packet"])
    def test_ramified_unitary_odd_orthogonal_note(self, capsys, command):
        code, rep = run_json(capsys, command, URAM_SO3)
        assert code == 0 and rep["notes"] == [URAM_SO3_NOTE]
        code, out, err = run(capsys, command, URAM_SO3)
        assert (code, err) == (0, "")
        assert f"- note: {URAM_SO3_NOTE}" in out.splitlines()

    def test_crossform_carries_no_notes(self, capsys):
        code, rep = run_json(capsys, "crossform", URAM_SO3)
        assert code == 0 and "notes" not in rep
        code, out, err = run(capsys, "crossform", URAM_SO3)
        assert code == 0 and "note:" not in out


class TestEnumerate:
    GROUP = json.dumps(group_to_obj(gallery_entry("sp4").datum.group))

    def test_census_size(self, capsys):
        code, rep = run_json(capsys, "enumerate", self.GROUP, "--count")
        assert code == 0
        assert rep["count"] == 12
        assert "data" not in rep

    def test_degree_bound(self, capsys):
        code, rep = run_json(capsys, "enumerate", self.GROUP, "--degree", "2")
        assert code == 0
        assert rep["count"] == 8
        assert len(rep["data"]) == 8
        assert all(datum_from_obj(obj).group == gallery_entry("sp4").datum.group
                   for obj in rep["data"])

    def test_degree_bound_applies_to_pooled_classes_only(self, capsys):
        # Under the trivial involution x-1 and x+1 are not pooled: degree 0
        # still lists the data on them.  Under the quadratic one every
        # class is pooled, so degree 0 lists none.
        sp2 = {"family": "Sp", "witt_index": 1, "aniso": [0, 0], "field": {"p": 3}}
        code, out, _ = run(capsys, "enumerate", json.dumps(sp2), "--degree", "0")
        assert code == 0
        assert out.splitlines()[2:] == [
            "- degree bound: 0", "- cuspidal data: 2", "- representations: 4",
            "    - Sp(2)/F3:(1,0) [(x+1)^1] x [1]", "    - Sp(2)/F3:(0,1) [1] x [(x+1)^1]"]
        u2 = {"family": "Uunram", "witt_index": 1, "aniso": [0, 0],
              "field": {"p": 3, "e": 2, "ext": "quadratic"}}
        code, rep = run_json(capsys, "enumerate", json.dumps(u2), "--degree", "0")
        assert code == 0
        assert (rep["degree_bound"], rep["count"], rep["data"]) == (0, 0, [])
        code, rep = run_json(capsys, "enumerate", json.dumps(u2), "--degree", "1", "--count")
        assert code == 0 and rep["count"] == 12

    def test_listing_is_written_as_it_goes(self):
        # Only each factor's supports are held, never the data.
        # SO(15)/F3 at degree 8: 823 data, 811,167 bytes of JSON.  Listing
        # the data peaks at 0.15 MB.  Building the payload dicts and one
        # json.dumps of them peaked at 7.7 MB; writing datum by datum peaks
        # at 0.17 MB.  The bound leaves no room for the text held whole.
        so15 = {"family": "SOodd", "witt_index": 7, "aniso": [1, 0], "field": {"p": 3}}
        written, listed = self.listing_peaks(so15, 8)
        assert written < listed + 400 * 1024, (written, listed)
        # U(8)/F9 at degree 5: 7,701 data, 7,410,302 bytes of JSON.  Listing
        # the data peaks at 1.4 MB; writing from the support lists peaks at
        # 0.46 MB.  The bound leaves no room for the data built, nor for
        # every support's text held at once (0.95 MB).
        u8 = {"family": "Uunram", "witt_index": 4, "aniso": [0, 0],
              "field": {"p": 3, "e": 2, "ext": "quadratic"}}
        written, listed = self.listing_peaks(u8, 5)
        assert written < listed / 2, (written, listed)

    @staticmethod
    def listing_peaks(obj, degree) -> tuple[int, int]:
        """tracemalloc peaks of the JSON listing written to devnull and of
        enumerate_data on the same group, with the class caches filled."""
        argv = ["enumerate", "--format", "json", "--degree", str(degree), json.dumps(obj)]

        def peak(func) -> int:
            tracemalloc.start()
            try:
                func()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(argv) == 0  # fills the class caches
            written = peak(lambda: main(argv))
        return written, peak(lambda: enumerate_data(group_from_obj(obj), max_degree=degree))


def listing_oracle(group, degree, count_only: bool) -> dict:
    """The enumerate output in each format, built whole: the payload dict,
    then one json.dumps or one markdown rendering of it."""
    data = enumerate_data(group, max_degree=degree)
    payload = {
        "group": str(group),
        "degree_bound": degree,
        "count": len(data),
        "total_reps": sum(count_representations(d).total for d in data),
    }
    if not count_only:
        payload["data"] = [datum_to_obj(d) for d in data]
        payload["labels"] = [str(d) for d in data]
    lines = [f"# enumerate {payload['group']}", ""]
    bound = payload["degree_bound"]
    lines.append(f"- degree bound: {bound if bound is not None else 'none'}")
    lines.append(f"- cuspidal data: {payload['count']}")
    lines.append(f"- representations: {payload['total_reps']}")
    lines.extend(f"    - {label}" for label in payload.get("labels", ()))
    return {"json": json.dumps(payload, sort_keys=True, indent=2) + "\n",
            "md": "\n".join(lines) + "\n"}


class TestListingBytes:
    """enumerate prints, byte for byte, what the whole-payload oracle prints."""

    EMPTY = GroupSpec("SOeven", 4, 1, (1, 1), FieldSpec(5))

    def check(self, capsys, group, degree, count_only=False):
        argv = ["enumerate", json.dumps(group_to_obj(group))]
        argv += [] if degree is None else ["--degree", str(degree)]
        argv += ["--count"] if count_only else []
        try:
            expected = {fmt: (0, text, "")
                        for fmt, text in listing_oracle(group, degree, count_only).items()}
        except DegreeLimitError as refusal:
            expected = dict.fromkeys(
                ("json", "md"), (2, "", f"error: {refusal}: pass --degree 8 or less\n"))
        for fmt, output in expected.items():
            assert run(capsys, *argv, "--format", fmt) == output, (str(group), fmt)

    def test_every_small_group_at_degree_4(self, capsys):
        groups = list(iter_group_specs((3, 5), 5))
        assert len(groups) == 88
        for group in groups:
            self.check(capsys, group, 4)

    def test_every_small_group_count_at_degree_4(self, capsys):
        # --count reads the census size and the representations off the
        # support lists, apart from the listing.
        for group in iter_group_specs((3, 5), 5):
            self.check(capsys, group, 4, count_only=True)

    def test_gallery_groups_without_degree_bound(self, capsys):
        # so20 and u14 would list classes past degree 8 and are refused.
        for entry in gallery():
            self.check(capsys, entry.datum.group, None)
            self.check(capsys, entry.datum.group, None, count_only=True)

    def test_empty_listing(self, capsys):
        assert enumerate_data(self.EMPTY, max_degree=0) == ()
        self.check(capsys, self.EMPTY, 0)
        self.check(capsys, self.EMPTY, 0, count_only=True)


def stdlib_dumps(obj, depth: int = 0) -> str:
    """The oracle of _dumps: the standard library's indented encoder."""
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


STORED = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def digest_prefix_matches(out: str, prefix: str) -> bool:
    assert len(prefix) == 20
    return hashlib.sha256(out.encode()).hexdigest().startswith(prefix)


class TestStoredQueries:
    """The JSON outputs of the benchmark's stored queries keep the SHA-256
    prefixes recorded with them in perfbench/data, which this only reads."""

    def test_every_query_output_matches_its_digest(self, capsys):
        records = json.loads((STORED / "queries.json").read_text(encoding="utf-8"))
        assert len(records) == 406
        mismatched = []
        for index, record in enumerate(records):
            assert sorted(record["sha256"]) == ["crossform", "describe", "packet", "validate"]
            text = json.dumps(record["datum"])
            for command, prefix in sorted(record["sha256"].items()):
                code, out, err = run(capsys, command, text, "--format", "json")
                if (code, err) != (0, "") or not digest_prefix_matches(out, prefix):
                    mismatched.append((index, command, code, err))
        assert mismatched == []

    def test_examples_match_their_digest(self, capsys):
        reference = json.loads((STORED / "reference.json").read_text(encoding="utf-8"))
        code, out, err = run(capsys, "examples", "--format", "json")
        assert (code, err) == (0, "")
        assert digest_prefix_matches(out, reference["examples_sha256"])


class TestJsonBytes:
    """Every JSON output is byte for byte json.dumps(..., sort_keys=True, indent=2)."""

    # U(10)/F9 at (4,1): four classes with two options each, 64 shapes.
    SHAPES_64 = json.dumps(
        {"group": {"family": "Uunram", "epsilon": 0, "witt_index": 5, "aniso": [0, 0],
                   "field": {"p": 3, "e": 2, "ext": "quadratic"}},
         "parahoric": {"n1": 4, "n2": 1},
         "supports": [[{"poly": [5, 1], "m": 1}, {"poly": [7, 1], "m": 1},
                       {"poly": [1, 3, 8, 1], "m": 1}, {"poly": [1, 8, 3, 1], "m": 1}],
                      [{"poly": [2, 1], "m": 1}, {"poly": [1, 1], "m": 1}]]})

    def argvs(self):
        data = [datum_text(entry.name) for entry in gallery()] + [self.SHAPES_64]
        for text in data:
            for command in ("validate", "describe", "packet", "crossform"):
                yield [command, text]
            yield ["enumerate", text, "--degree", "2"]
        yield ["examples"]
        yield ["selfcheck", "--dualdim", "4"]

    def test_every_json_output_round_trips(self, capsys):
        seen = set()
        for argv in self.argvs():
            code, out, err = run(capsys, *argv, "--format", "json")
            assert code in (0, 1) and err == "", argv
            assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out, argv
            seen.add(argv[0])
        assert len(seen) == 7

    def test_shared_shape_entries_are_written_in_full(self, capsys):
        code, rep = run_json(capsys, "describe", self.SHAPES_64)
        assert code == 0
        assert rep["shapes"]["count"] == len(rep["shapes"]["entries"]) == 64
        assert len({json.dumps(shape) for shape in rep["shapes"]["entries"]}) == 64

    @pytest.mark.parametrize("obj", [
        {}, [], (), {"a": {}, "b": [], "c": ()},
        [[], [{}], {"x": []}],
        (1, (2, 3), ["four", (5,)]),
        {"é": "ü ñ 𝔽   \x00 \"quoted\" \\ /", "plain": "text"},
        [True, False, None, 0, -1, 1.5, -0.0],
        {"big": 10 ** 3999, "neg": -(7 ** 4733)},  # 4,000 digits each
    ])
    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_dumps_matches_stdlib(self, obj, depth):
        assert _dumps(obj, depth) == stdlib_dumps(obj, depth)

    def test_container_shared_at_two_depths(self):
        shared = [1, {"k": [2, 3]}]
        obj = {"a": shared, "b": [shared, {"c": shared}], "d": shared}
        for depth in (0, 2):
            assert _dumps(obj, depth) == stdlib_dumps(obj, depth)

    @pytest.mark.parametrize("obj", [{1: 2}, {"a": {None: 1}}, [{"b": 1, (2,): 3}]])
    def test_key_that_is_not_a_str_is_refused(self, obj):
        with pytest.raises(TypeError, match="keys must be str"):
            _dumps(obj)


class TestSelfcheck:
    def test_small_sweep_passes(self, capsys):
        code, rep = run_json(capsys, "selfcheck", "--q", "3", "--dualdim", "5")
        assert code == 0
        assert rep["ok"] is True
        assert rep["failures"] == []
        assert rep["groups"] > 0 and rep["signatures"] > 0

    def test_single_check_selection(self, capsys):
        code, rep = run_json(capsys, "selfcheck", "--q", "3", "--dualdim", "4",
                             "--checks", "identity")
        assert code == 0
        assert rep["checks"] == ["identity"]

    def test_unknown_check_is_usage_error(self, capsys):
        code, out, err = run(capsys, "selfcheck", "--checks", "bogus")
        assert code == 2
        assert "bogus" in err

    def test_repeated_residue_size_is_usage_error(self, capsys):
        # It used to sweep F3 twice and report 48 groups.
        code, out, err = run(capsys, "selfcheck", "--q", "3", "--q", "3", "--dualdim", "2")
        assert (code, out) == (2, "")
        assert "residue size 3 is given twice" in err

    def test_repeated_check_is_usage_error(self, capsys):
        code, out, err = run(capsys, "selfcheck", "--dualdim", "2",
                             "--checks", "identity,identity")
        assert (code, out) == (2, "")
        assert "check 'identity' is given twice" in err

    def test_empty_check_list_is_usage_error(self, capsys):
        # It used to run all four checks, as if --checks were absent.
        code, out, err = run(capsys, "selfcheck", "--dualdim", "2", "--checks", "")
        assert (code, out) == (2, "")
        assert "unknown check ''" in err

    @pytest.mark.parametrize("q0, reason", [
        ("7", "field size 49 exceeds 32"),
        ("9", "p must be an odd prime"),
    ])
    def test_unsupported_residue_size_is_usage_error(self, capsys, q0, reason):
        code, out, err = run(capsys, "selfcheck", "--q", "3", "--q", q0, "--dualdim", "2")
        assert (code, out) == (2, "")
        assert err == (f"error: residue size {q0} is not supported: the sweep needs an odd "
                       f"prime q0 with F(q0^2) of at most 32 elements ({reason})\n")

    def test_library_value_error_in_the_sweep_is_an_internal_error(self, capsys, monkeypatch):
        # Only the refusals of the arguments exit 2: a ValueError the
        # library raises once the sweep runs, outside a check, is a fault.
        # selfcheck reads no input: the fault is the library's, with no reproducer.
        calls = []

        def planted(group, sig):
            calls.append(group)
            if len(calls) == 5:
                raise ValueError("planted library fault")
            return signature_representative(group, sig)

        monkeypatch.setattr("cuspred.selfcheck.signature_representative", planted)
        code, out, err = run(capsys, "selfcheck", "--dualdim", "3")
        assert (code, out, err) == (1, "", "internal error: planted library fault\n")


class TestExamples:
    def test_all_entries_match(self, capsys):
        code, rep = run_json(capsys, "examples")
        assert code == 0
        assert rep["all_match"] is True
        assert [e["name"] for e in rep["entries"]] == [
            "sp6", "sp4", "so8", "so20", "u14", "so5"]
        assert all(e["diffs"] == {} for e in rep["entries"])

    def test_library_value_error_is_an_internal_error(self, capsys, monkeypatch):
        # examples reads no input: the fault is the library's, with no reproducer.
        def planted(entry):
            raise ValueError("planted library fault")

        monkeypatch.setattr("cuspred.cli.evaluate_entry", planted)
        code, out, err = run(capsys, "examples")
        assert (code, out, err) == (1, "", "internal error: planted library fault\n")

    def test_single_entry_with_note(self, capsys):
        code, rep = run_json(capsys, "examples", "--name", "so5")
        assert code == 0
        entry = rep["entries"][0]
        assert entry["match"] is True
        assert "inconsistent" in entry["note"]


class TestMarkdown:
    def test_gallery_markdown_is_pinned(self, capsys):
        # md is the default format; pin every query command and a degree
        # bounded census on each gallery entry, plus examples.
        h = hashlib.sha256()
        commands = (["validate"], ["describe"], ["packet"], ["crossform"],
                    ["enumerate", "--degree", "4"])
        runs = [argv + [datum_text(entry.name)] for entry in gallery() for argv in commands]
        for argv in runs + [["examples"]]:
            code, out, err = run(capsys, *argv)
            assert err == ""
            h.update(f"{code}\n{out}".encode())
        assert len(runs) + 1 == 31
        assert h.hexdigest()[:16] == "1c6db0a7ecbbe0aa"


def _broken(name: str, edit) -> str:
    obj = datum_to_obj(gallery_entry(name).datum)
    edit(obj)
    return json.dumps(obj)


def _set(path, value):
    def edit(obj):
        for step in path[:-1]:
            obj = obj[step]
        obj[path[-1]] = value
    return edit


# Gallery data broken one way each.  Clause a cannot be reached from JSON,
# which only builds self-dual irreducible classes over the group's field,
# so the two class-level breaks stand in for it and exit 2 before any
# clause is checked.
BROKEN_DATA = {
    "class not self-dual": _broken("sp6", _set(("supports", 0, 0, "poly"), [2, 1, 1])),
    "class reducible": _broken("so8", _set(("supports", 0, 0, "poly"), [1, 1, 1])),
    "clause c, Sp slot": _broken("sp6", _set(("supports", 0, 0, "m"), 2)),
    "clause c, both slots": _broken("sp4", lambda obj: [
        entry.update(m=2) for support in obj["supports"] for entry in support]),
    "clause c, ramified unitary": _broken("u14", _set(("supports", 1, 0, "m"), 2)),
    "clause c, SO odd slot": _broken("so5", _set(("supports", 1), [{"poly": [2, 1], "m": 1}])),
    "clause d, split SO(20)": _broken("so20", lambda obj: (
        obj["group"].update(witt_index=10, aniso=[0, 0]),
        obj.update(parahoric={"n1": 5, "n2": 5}))),
    "clause d, SO(8)": _broken("so8", _set(("supports", 0), [
        {"poly": [2, 1], "m": 1}, {"poly": [1, 1], "m": 1},
        {"poly": [1, 1, 1, 1, 1], "m": 1}])),
    "non-maximal, empty supports": _broken("so8", lambda obj: obj.update(
        parahoric={"n1": 1, "n2": 3}, supports=[[], []])),
    "non-maximal, gallery supports": _broken("so8", _set(("parahoric",), {"n1": 3, "n2": 1})),
}


class TestInvalidData:
    def test_invalid_data_outputs_are_pinned(self, capsys):
        # validate and describe, JSON and md, stdout and stderr together.
        h = hashlib.sha256()
        codes = []
        for text in BROKEN_DATA.values():
            for command in ("validate", "describe"):
                for fmt in ("json", "md"):
                    code, out, err = run(capsys, command, text, "--format", fmt)
                    codes.append(code)
                    h.update(f"{code}\n{out}\n{err}".encode())
        assert codes == [2] * 8 + [1] * 32
        assert h.hexdigest()[:16] == "d325c27b257427c3"


    @pytest.mark.parametrize("name, verdicts", [
        ("clause c, Sp slot", ["pass", "pass", "exponent total", "not checked"]),
        ("clause d, SO(8)", ["pass", "pass", "pass", "support type"]),
    ])
    def test_clauses_before_the_failing_one_pass(self, capsys, name, verdicts):
        # Clauses are tested in order, and clause b holds for every support.
        code, rep = run_json(capsys, "validate", BROKEN_DATA[name])
        assert code == 1
        (bad,) = [f["clauses"] for f in rep["factors"] if not f["valid"]]
        assert [bad[c] for c in "ab"] == verdicts[:2]
        assert bad["c"].startswith(verdicts[2]) and bad["d"].startswith(verdicts[3])


class TestErrorPaths:
    def test_malformed_json(self, capsys):
        code, out, err = run(capsys, "describe", '{"group": ')
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("source", ["inline", "file", "stdin"])
    def test_deeply_nested_json(self, capsys, monkeypatch, tmp_path, source):
        # The parser gives up with a RecursionError: malformed input, not
        # a traceback.
        text = "[" * 100000 + "]" * 100000
        if source == "file":
            path = tmp_path / "deep.json"
            path.write_text(text)
            text = str(path)
        elif source == "stdin":
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            text = "-"
        code, out, err = run(capsys, "describe", text)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_missing_keys(self, capsys):
        code, out, err = run(capsys, "describe", '{"group": {"family": "Sp"}}')
        assert code == 2

    def test_non_self_dual_polynomial(self, capsys):
        obj = datum_to_obj(gallery_entry("sp6").datum)
        obj["supports"][0][0]["poly"] = [1, 1, 1]  # x^2 + x + 1 is not self-dual
        code, out, err = run(capsys, "validate", json.dumps(obj))
        assert code == 2

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "describe", "/no/such/file.json")
        assert code == 2

    def test_unknown_gallery_name(self, capsys):
        code, out, err = run(capsys, "examples", "--name", "nope")
        assert (code, out, err) == (2, "", "error: no gallery entry named 'nope'\n")

    def test_empty_gallery_name(self, capsys):
        code, out, err = run(capsys, "examples", "--name", "")
        assert (code, out, err) == (2, "", "error: no gallery entry named ''\n")

    @pytest.mark.parametrize("argv, key", [
        (("enumerate", '{"family": "Sp", "witt_index": 1, "witt_index": 2, '
                       '"aniso": [0, 0], "field": {"p": 3}}', "--count"), "witt_index"),
        (("enumerate", '{"family": "Sp", "witt_index": 2, "aniso": [0, 0], '
                       '"field": {"p": 3, "p": 5}}', "--count"), "p"),
        (("validate", '{"group": {}, "group": {}}'), "group"),
        (("describe", '{"supports": [[{"poly": [2, 1], "m": 1, "m": 2}]]}'), "m"),
    ])
    def test_duplicate_key_is_refused(self, capsys, argv, key):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: duplicate key {key!r}\n")

    @pytest.mark.parametrize("path, key", [
        ((), "extra"),
        (("group",), "Family"),
        (("group", "field"), "E"),
        (("parahoric",), "n3"),
        (("supports", 0, 0), "mult"),
    ])
    def test_unknown_key(self, capsys, path, key):
        obj = datum_to_obj(gallery_entry("sp6").datum)
        target = obj
        for step in path:
            target = target[step]
        target[key] = 1
        code, out, err = run(capsys, "validate", json.dumps(obj))
        assert code == 2
        assert repr(key) in err

    @pytest.mark.parametrize("text", ["[1,2]", " []", "3"])
    def test_input_not_an_object(self, capsys, tmp_path, text):
        if not text.lstrip().startswith("["):
            path = tmp_path / "datum.json"
            path.write_text(text)
            text = str(path)
        code, out, err = run(capsys, "describe", text)
        assert code == 2
        assert "not a JSON object" in err

    def test_repeated_polynomial(self, capsys):
        obj = datum_to_obj(gallery_entry("sp6").datum)
        obj["supports"][0].append({"poly": [2, 1], "m": 3})
        code, out, err = run(capsys, "validate", json.dumps(obj))
        assert code == 2
        assert "x-1 is listed twice" in err

    def test_enumerate_past_degree_limit(self, capsys):
        sp18 = json.dumps({"family": "Sp", "witt_index": 9, "aniso": [0, 0],
                           "field": {"p": 3}})
        for extra in ((), ("--degree", "10")):
            code, out, err = run(capsys, "enumerate", "--count", sp18, *extra)
            assert code == 2
            assert "--degree 8 or less" in err

    def test_enumerate_refuses_large_witt_index_at_once(self, capsys, monkeypatch):
        # Without --degree, the census tries the top pool degree of its
        # widest factor first, so it refuses before it lists any class: a
        # listing within the cap would be a class listed before the refusal.
        tried = []

        def recorded(field, degree):
            tried.append((field.q, degree))
            if degree <= MAX_ENUM_DEGREE:
                raise AssertionError(f"listed the degree {degree} classes before the refusal")
            return enumerate_self_dual_classes(field, degree)

        monkeypatch.setattr("cuspred.cuspdata.enumerate_self_dual_classes", recorded)
        cases = [("Sp", 100000, (0, 0), 200000), ("Sp", 10, (0, 0), 20),
                 # only the second slot's widest factor, SO-(10), is past the cap
                 ("SOeven", 4, (0, 2), 10)]
        for p in (3, 31):
            for family, witt, aniso, top in cases:
                group = json.dumps({"family": family, "witt_index": witt,
                                    "aniso": list(aniso), "field": {"p": p}})
                tried.clear()
                code, out, err = run(capsys, "enumerate", "--count", group)
                assert (code, out) == (2, "")
                assert err == "error: enumeration is limited to degree 8: pass --degree 8 or less\n"
                assert tried == [(p, top)]

    def test_selfcheck_refuses_degree_past_limit_before_sweeping(self, capsys, monkeypatch):
        def sweep(*args):
            raise AssertionError("swept")

        monkeypatch.setattr("cuspred.selfcheck.iter_group_specs", sweep)
        code, out, err = run(capsys, "selfcheck", "--dualdim", "18", "--degree", "10")
        assert (code, out) == (2, "")
        assert err == "error: enumeration is limited to degree 8: pass --degree 8 or less\n"

    def test_enumerate_degree_above_limit_within_budget(self, capsys):
        group = json.dumps(group_to_obj(gallery_entry("sp4").datum.group))
        code, rep = run_json(capsys, "enumerate", "--count", group, "--degree", "10")
        assert code == 0
        assert rep["count"] == 12

    def test_enumerate_accepts_full_datum_but_not_unknown_keys(self, capsys):
        obj = datum_to_obj(gallery_entry("sp4").datum)
        code, rep = run_json(capsys, "enumerate", "--count", json.dumps(obj))
        assert code == 0 and rep["count"] == 12
        obj["extra"] = 1
        code, out, err = run(capsys, "enumerate", "--count", json.dumps(obj))
        assert code == 2 and "'extra'" in err

    @pytest.mark.parametrize("path, key, value, name", [
        (("group", "field"), "p", 3.7, "p"),
        (("group", "field"), "e", "1", "e"),
        (("group",), "witt_index", "2", "witt_index"),
        (("group", "aniso"), 1, 0.0, "aniso"),
        (("group",), "epsilon", False, "epsilon"),
        (("parahoric",), "n1", 2.0, "n1"),
        (("parahoric",), "n2", "1", "n2"),
        (("supports", 0, 0, "poly"), 0, 2.5, "poly"),
        (("supports", 0, 0), "m", True, "m"),
    ])
    def test_number_that_is_not_a_json_integer(self, capsys, path, key, value, name):
        obj = datum_to_obj(gallery_entry("sp6").datum)
        target = obj
        for step in path:
            target = target[step]
        target[key] = value
        code, out, err = run(capsys, "validate", json.dumps(obj))
        assert code == 2
        assert f"{name!r}" in err and "must be a JSON integer" in err

    def test_field_degree_must_be_positive(self, capsys):
        obj = datum_to_obj(gallery_entry("sp6").datum)
        obj["group"]["field"]["e"] = 0
        code, out, err = run(capsys, "validate", json.dumps(obj))
        assert (code, out, err) == (2, "", "error: bad field description: e must be positive\n")

    @pytest.mark.parametrize("key, value", [("p", 3.0), ("e", 1.0)])
    def test_field_number_error_is_prefixed_once(self, capsys, key, value):
        # The field reader lets its own SchemaError through, as the group
        # and datum readers do, so the message is not wrapped twice.
        obj = datum_to_obj(gallery_entry("sp6").datum)
        obj["group"]["field"][key] = value
        code, out, err = run(capsys, "validate", json.dumps(obj))
        assert (code, out) == (2, "")
        assert err == f"error: '{key}' in field must be a JSON integer, got {value}\n"

    @pytest.mark.parametrize("path, key, what", [
        (("group",), "witt_index", "group"),
        ((), "supports", "datum"),
        (("parahoric",), "n2", "parahoric"),
        (("supports", 0, 0), "poly", "support entry"),
        (("group", "field"), "p", "field"),
    ])
    def test_missing_key_is_named_with_its_object(self, capsys, path, key, what):
        obj = datum_to_obj(gallery_entry("sp6").datum)
        target = obj
        for step in path:
            target = target[step]
        del target[key]
        code, out, err = run(capsys, "validate", json.dumps(obj))
        assert (code, out, err) == (2, "", f"error: missing key {key!r} in {what}\n")

    @pytest.mark.parametrize("path, key, value, message", [
        (("group",), "aniso", "00", "'aniso' in group must be a JSON list of 2 integers, got \"00\""),
        (("group",), "aniso", {"a": 0}, "'aniso' in group must be a JSON list of 2 integers, "
                                         "got {\"a\": 0}"),
        (("group",), "aniso", [0, 0, 0], "'aniso' in group must be a JSON list of 2 integers, "
                                         "got [0, 0, 0]"),
        (("group",), "aniso", 5, "'aniso' in group must be a JSON list of 2 integers, got 5"),
        (("supports", 0, 0), "poly", "21",
         "'poly' in support entry must be a JSON list of integers, got \"21\""),
        (("supports", 0, 0), "poly", 3, "'poly' in support entry must be a JSON list of integers, got 3"),
        ((), "supports", "ab", "supports is not a JSON list"),
    ], ids=["aniso-string", "aniso-object", "aniso-triple", "aniso-number",
            "poly-string", "poly-number", "supports-string"])
    def test_value_that_is_not_a_list_is_refused_as_such(self, capsys, path, key, value, message):
        obj = datum_to_obj(gallery_entry("sp6").datum)
        target = obj
        for step in path:
            target = target[step]
        target[key] = value
        code, out, err = run(capsys, "validate", json.dumps(obj))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("path, key, value, message", [
        ((), "group", 3, "group is not a JSON object"),
        (("group",), "field", 3, "field is not a JSON object"),
        ((), "parahoric", 3, "parahoric is not a JSON object"),
        (("supports", 0), 0, 3, "support entry is not a JSON object"),
        ((), "supports", [[], [], []], "a datum carries exactly two supports"),
        ((), "supports", [[]], "a datum carries exactly two supports"),
    ], ids=["group", "field", "parahoric", "support-entry", "three-supports", "one-support"])
    def test_value_of_the_wrong_shape_is_refused_as_such(self, capsys, path, key, value, message):
        obj = datum_to_obj(gallery_entry("sp6").datum)
        target = obj
        for step in path:
            target = target[step]
        target[key] = value
        code, out, err = run(capsys, "validate", json.dumps(obj))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("path, key, value, message", [
        # Neither may be read as something else: an empty support, x - 1.
        (("supports",), 1, {}, "supports[1] is not a JSON list"),
        (("supports", 0, 0), "poly", [2, 1, 0], "leading coefficient must be nonzero"),
    ], ids=["support-object", "zero-leading-coefficient"])
    def test_malformed_support_is_not_repaired(self, capsys, path, key, value, message):
        obj = datum_to_obj(gallery_entry("so8").datum)
        target = obj
        for step in path:
            target = target[step]
        target[key] = value
        code, out, err = run(capsys, "validate", json.dumps(obj))
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("key, value", [("p", 3.7), ("witt_index", "2")])
    def test_enumerate_refuses_repaired_numbers(self, capsys, key, value):
        group = {"family": "Sp", "witt_index": 2, "aniso": [0, 0], "field": {"p": 3}}
        (group["field"] if key == "p" else group)[key] = value
        code, out, err = run(capsys, "enumerate", "--count", json.dumps(group))
        assert code == 2 and out == ""
        assert f"{key!r}" in err

    @pytest.mark.parametrize("argv", [
        ("enumerate", "--degree", "-1", TestEnumerate.GROUP),
        ("selfcheck", "--dualdim", "-3"),
        ("selfcheck", "--degree", "-1"),
        ("selfcheck", "--dualdim", "2.5"),
    ])
    def test_negative_or_fractional_bound(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        assert exit_info.value.code == 2
        assert "nonnegative integer" in capsys.readouterr().err

    def test_zero_bounds_stay_valid(self, capsys):
        code, rep = run_json(capsys, "enumerate", TestEnumerate.GROUP, "--degree", "0")
        assert code == 0 and rep["degree_bound"] == 0
        code, rep = run_json(capsys, "selfcheck", "--dualdim", "0", "--degree", "0")
        assert code == 0 and rep["max_dual"] == 0 and rep["ok"] is True

    def test_internal_error_prints_reproducer(self, capsys, monkeypatch):
        def broken(datum):
            raise AssertionError("kept swap ['x-1'] moved a reducibility point")

        monkeypatch.setattr("cuspred.packets.companions", broken)
        text = datum_text("sp6")
        code, out, err = run(capsys, "packet", text)
        assert code == 1 and out == ""
        first, second = err.splitlines()
        assert first == "internal error: kept swap ['x-1'] moved a reducibility point"
        assert second.startswith("reproducer: ")
        assert json.loads(second[len("reproducer: "):]) == json.loads(text)

    def test_library_key_error_is_internal_error(self, capsys, monkeypatch):
        # Only bad input exits 2: a KeyError from inside the library is a
        # broken invariant, reported with a reproducer.
        def broken(datum):
            raise KeyError("x+1")

        monkeypatch.setattr("cuspred.packets.companions", broken)
        text = datum_text("sp6")
        code, out, err = run(capsys, "packet", text)
        assert code == 1 and out == ""
        first, second = err.splitlines()
        assert first == "internal error: KeyError('x+1')"
        assert second.startswith("reproducer: ")
        assert json.loads(second[len("reproducer: "):]) == json.loads(text)

    @pytest.mark.parametrize("argv", [
        ["selfcheck", "--q", "1000000000000000003", "--dualdim", "1"],
        ["enumerate", "--count", json.dumps(
            {"family": "Sp", "witt_index": 1, "aniso": [0, 0], "field": {"p": 3, "e": 100000000}})],
        ["describe", json.dumps(
            {"group": {"family": "Sp", "witt_index": 1, "aniso": [0, 0],
                       "field": {"p": 3, "e": 2 ** 70}},
             "parahoric": {"n1": 1, "n2": 0}, "supports": [[], []]})],
    ])
    def test_oversized_field_exits_at_once(self, argv):
        # In a subprocess with a timeout, so that a size check made after
        # the primality test of p or after p ** e fails instead of hanging.
        env = dict(os.environ, PYTHONPATH=str(Path(cuspred.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "cuspred", *argv], env=env,
                              capture_output=True, text=True, timeout=10)
        assert (done.returncode, done.stdout) == (2, "")
        assert "exceeds 32" in done.stderr

    @pytest.mark.parametrize("fmt", ["json", "md"])
    def test_reader_closing_the_pipe_is_not_bad_input(self, fmt):
        # U(8)/F9 at degree 5 lists 7,701 data, far more than a pipe holds.
        group = json.dumps({"family": "Uunram", "witt_index": 4, "aniso": [0, 0],
                            "field": {"p": 3, "e": 2, "ext": "quadratic"}})
        env = dict(os.environ, PYTHONPATH=str(Path(cuspred.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "cuspred", "enumerate", group, "--degree", "5",
             "--format", fmt], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert len(head) == 100
        assert (proc.wait(timeout=30), err) == (1, b"")

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "datum.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, "describe", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("command, name, swap, parahoric", [
        ("packet", "sp6", "['x-1']", "Sp(6)/F3:(0,3)"),
        ("crossform", "so20", "['x-1']", "SO(20)/F3:(2,8)"),
    ])
    def test_survivor_refused_by_validation_is_internal_error(
            self, capsys, monkeypatch, command, name, swap, parahoric):
        # A swap the pre-score passes must validate; were it refused, the
        # search reports the swap instead of skipping it.
        datum = gallery_entry(name).datum

        def refusing(parahoric, supports):
            if supports != datum.supports:
                raise ValueError("clause c: planted")
            return CuspidalDatum(parahoric, supports)

        monkeypatch.setattr("cuspred.packets.CuspidalDatum", refusing)
        text = datum_text(name)
        code, out, err = run(capsys, command, text)
        assert code == 1 and out == ""
        first, second = err.splitlines()
        assert first == f"internal error: swap {swap} passed the pre-score on {parahoric} " \
                        "but fails validation: clause c: planted"
        assert second.startswith("reproducer: ")
        assert json.loads(second[len("reproducer: "):]) == json.loads(text)

    def test_oversized_json_integer(self, capsys):
        # Python refuses to read an integer literal past 4,300 digits.
        group = '{"family": "Sp", "witt_index": 1, "aniso": [0, 0], "field": {"p": %s}}'
        code, out, err = run(capsys, "enumerate", "--count", group % ("9" * 5000))
        assert (code, out) == (2, "")
        assert err.startswith("error: Exceeds the limit (4300 digits)")

    def test_invalid_datum_on_describe(self, capsys):
        obj = datum_to_obj(gallery_entry("sp6").datum)
        obj["supports"][0][0]["m"] = 2
        code, out, err = run(capsys, "describe", json.dumps(obj))
        assert code == 1
        assert err.startswith("invalid input:")
