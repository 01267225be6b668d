"""Command line front end.

Subcommands:

    validate    check a datum file clause by clause
    describe    reducibility report for a datum
    packet      companion census and packet statistics for a datum
    crossform   companion censuses on the other forms of the same group
    enumerate   all cuspidal data for a group
    selfcheck   exhaustive consistency sweep over small groups
    examples    recompute the built-in gallery and diff against stored values

Data travel as JSON.  A datum is

    {"group": {"family": "Sp", "epsilon": 0, "witt_index": 3,
               "aniso": [0, 0], "field": {"p": 3, "e": 1, "ext": "trivial"}},
     "parahoric": {"n1": 2, "n2": 1},
     "supports": [[{"poly": [2, 1], "m": 1}], [{"poly": [1, 1], "m": 1}]]}

where polynomials list their coefficients from the constant term up.
Every subcommand accepts a file path, inline JSON, or "-" for stdin, and
prints JSON (canonically ordered, byte-deterministic) or markdown.
Every JSON output is byte for byte json.dumps(payload, sort_keys=True,
indent=2) of its payload, produced by one writer that lays out each
subtree shared within a payload once.  enumerate holds each factor's
supports, never the data: it counts from them and writes its listing
datum by datum, each datum's text joined from its two supports' texts;
its bytes are those of the whole listing rendered at once.
The --degree of enumerate and selfcheck bounds the degrees of the pooled
classes only: under the trivial involution x-1 and x+1 are not pooled,
so enumerate --degree 0 still lists the two data on x+1 of Sp(2)/F3,
while under the quadratic involution every class is pooled and U(2)/F9
has none at degree 0.
validate and enumerate load only ffpoly, groups and cuspdata, with the
fixtures and selfcheck that the parser reads; describe loads hecke too,
and packet, crossform, selfcheck and examples load hecke and packets.
Exit codes: 0 success, 1 failed validation or a failed check, 2 bad
input: a file that is not UTF-8, malformed JSON, JSON nested too deeply,
input that is not a JSON object, a key given twice in one object, an
unknown key, a missing key (named with its object), an "aniso" that is
not a JSON list of two integers, a "poly" that is not a JSON list of
integers, "supports" that is not a JSON list, a number that is not a
JSON integer (3.7, "2" and true are refused), a polynomial listed twice
in one support, a support that is not a JSON list, a "poly" whose
leading coefficient is 0, a field of more than 32 elements (however
large p or e), a JSON integer of more than 4,300 digits, a --degree,
--dualdim or --q that is not a nonnegative integer in ASCII digits, a
selfcheck residue size or check given twice, a selfcheck residue size
other than an odd prime q0 with F(q0^2) of at most 32 elements (so 3
or 5), an empty check name, or an enumerate or a selfcheck that would
list classes past degree 8 (pass --degree 8 or less; enumerate refuses
before it lists any class, and selfcheck before it sweeps, when both
--degree and --dualdim exceed 8). An unknown
examples --name, the empty one included, exits 2 too.  Only these
refusals of its arguments make selfcheck exit 2.  An internal
invariant failure (a failed assertion or a KeyError raised inside the
library, or a ValueError it raises in selfcheck or examples, which read
no input) exits 1 with "internal error:" on stderr, and with the input
JSON as a reproducer for a command that reads one.  A ValueError the
library raises on the input of validate, describe, packet, crossform or
enumerate exits 1 with "invalid input:".  A reader that closes stdout
early, as "| head -c 100" does, ends the command with exit 1 and nothing
on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import cache
from json.encoder import encode_basestring_ascii

from .cuspdata import (
    CuspidalDatum,
    FactorSupport,
    census_total_reps,
    count_representations,
    datum_label,
    enumerate_census,
    slot_series,
    support_violation,
)
from .ffpoly import MAX_ENUM_DEGREE, DegreeLimitError, FieldSpec, SelfDualClass
from .fixtures import evaluate_entry, gallery, gallery_entry
from .groups import GroupSpec, ParahoricSpec, component_group_order
from .selfcheck import (ALL_CHECKS, DEFAULT_DEGREE, DEFAULT_DUAL, DEFAULT_Q0, run_selfcheck,
                        sweep_arguments)

__all__ = [
    "SchemaError",
    "datum_from_obj",
    "datum_to_obj",
    "group_from_obj",
    "group_to_obj",
    "main",
]


class SchemaError(ValueError):
    """The input is well-formed JSON but not a valid object description."""


def _refusal(err: ValueError) -> SchemaError:
    """A library refusal of the input as a SchemaError; a degree past the
    cap names its remedy."""
    if isinstance(err, DegreeLimitError):
        return SchemaError(f"{err}: pass --degree {MAX_ENUM_DEGREE} or less")
    return SchemaError(str(err))


def _check_keys(obj, required: tuple[str, ...], what: str, optional: tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} is not a JSON object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise SchemaError(f"unknown key {unknown[0]!r} in {what}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise SchemaError(f"missing key {missing[0]!r} in {what}")


def _json_int(value, key: str, what: str) -> int:
    """The value when it is a JSON integer; bool is refused though it is an int."""
    if type(value) is not int:
        raise SchemaError(f"{key!r} in {what} must be a JSON integer, got {json.dumps(value)}")
    return value


def _json_ints(value, key: str, what: str, length: int | None = None) -> list[int]:
    """The value when it is a JSON list of integers, of the given length if any."""
    if not isinstance(value, list) or length not in (None, len(value)):
        count = "" if length is None else f"{length} "
        raise SchemaError(f"{key!r} in {what} must be a JSON list of {count}integers, "
                          f"got {json.dumps(value)}")
    return [_json_int(v, key, what) for v in value]


def field_to_obj(field: FieldSpec) -> dict:
    return {"p": field.p, "e": field.e, "ext": field.ext}


@contextmanager
def _reading(what: str):
    """Let a SchemaError through; rewrap any other KeyError, TypeError or
    ValueError as a SchemaError naming the description being read."""
    try:
        yield
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise SchemaError(f"bad {what} description: {err}") from err


def field_from_obj(obj) -> FieldSpec:
    _check_keys(obj, ("p",), "field", optional=("e", "ext"))
    with _reading("field"):
        return FieldSpec(_json_int(obj["p"], "p", "field"),
                         _json_int(obj.get("e", 1), "e", "field"),
                         str(obj.get("ext", "trivial")))


def group_to_obj(group: GroupSpec) -> dict:
    return {
        "family": group.family,
        "epsilon": group.epsilon,
        "witt_index": group.witt,
        "aniso": list(group.aniso),
        "field": field_to_obj(group.field),
    }


def group_from_obj(obj) -> GroupSpec:
    _check_keys(obj, ("family", "witt_index", "aniso", "field"), "group", optional=("epsilon",))
    with _reading("group"):
        witt = _json_int(obj["witt_index"], "witt_index", "group")
        a1, a2 = _json_ints(obj["aniso"], "aniso", "group", length=2)
        field = field_from_obj(obj["field"])
        return GroupSpec(str(obj["family"]), 2 * witt + a1 + a2, witt, (a1, a2),
                         field, _json_int(obj.get("epsilon", 0), "epsilon", "group"))


def entry_to_obj(cls: SelfDualClass, m: int) -> dict:
    return {"poly": list(cls.coeffs), "m": m}


def support_to_obj(support: FactorSupport) -> list:
    return [entry_to_obj(cls, m) for cls, m in support.entries]


def _support_from_obj(obj, field: FieldSpec, index: int) -> FactorSupport:
    if not isinstance(obj, list):
        raise SchemaError(f"supports[{index}] is not a JSON list")
    pairs = []
    for item in obj:
        _check_keys(item, ("poly", "m"), "support entry")
        coeffs = tuple(_json_ints(item["poly"], "poly", "support entry"))
        pairs.append((SelfDualClass(field, coeffs),
                      _json_int(item["m"], "m", "support entry")))
    return FactorSupport.of(pairs)


def parahoric_to_obj(parahoric: ParahoricSpec) -> dict:
    return {"n1": parahoric.n1, "n2": parahoric.n2}


def datum_to_obj(datum: CuspidalDatum) -> dict:
    return {
        "group": group_to_obj(datum.group),
        "parahoric": parahoric_to_obj(datum.parahoric),
        "supports": [support_to_obj(s) for s in datum.supports],
    }


_DATUM_KEYS = ("group", "parahoric", "supports")


def datum_parts_from_obj(obj) -> tuple[ParahoricSpec, tuple[FactorSupport, FactorSupport]]:
    """Build the pieces of a datum without running the support validation."""
    _check_keys(obj, _DATUM_KEYS, "datum")
    with _reading("datum"):
        group = group_from_obj(obj["group"])
        _check_keys(obj["parahoric"], ("n1", "n2"), "parahoric")
        parahoric = ParahoricSpec(group, _json_int(obj["parahoric"]["n1"], "n1", "parahoric"),
                                  _json_int(obj["parahoric"]["n2"], "n2", "parahoric"))
        supports = obj["supports"]
        if not isinstance(supports, list):
            raise SchemaError("supports is not a JSON list")
        if len(supports) != 2:
            raise SchemaError("a datum carries exactly two supports")
        s1, s2 = (_support_from_obj(s, group.field, i) for i, s in enumerate(supports))
        return parahoric, (s1, s2)


def datum_from_obj(obj) -> CuspidalDatum:
    parahoric, supports = datum_parts_from_obj(obj)
    return CuspidalDatum(parahoric, supports)


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _read_json(source: str):
    try:
        if source == "-":
            text = sys.stdin.read()
        elif source.lstrip().startswith(("{", "[")):
            text = source
        else:
            with open(source, encoding="utf-8") as handle:
                text = handle.read()
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as err:  # not UTF-8, bad JSON, a repeated key, or a huge integer
        raise SchemaError(str(err)) from err
    except RecursionError as err:
        raise SchemaError("JSON nested too deeply") from err
    if not isinstance(obj, dict):
        raise SchemaError("input is not a JSON object")
    return obj


def _dumps(obj, depth: int = 0) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), laid out to sit `depth`
    levels deep.  Within one call, a container met twice at the same depth
    is laid out once: the memo is keyed by its id, which stays its own
    while obj holds it.  Keys must be str."""
    return _text(obj, depth, {})


def _text(value, depth: int, memo: dict) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return repr(value)  # the text json.dumps writes for it
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    key = (id(value), depth)
    done = memo.get(key)
    if done is None:
        done = memo[key] = _layout(value, depth, memo)
    return done


def _layout(value, depth: int, memo: dict) -> str:
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = "\n" + "  " * (depth + 1)
    if isinstance(value, dict):
        for k in value:
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
        items = [f"{encode_basestring_ascii(k)}: {_text(value[k], depth + 1, memo)}"
                 for k in sorted(value)]
        ends = "{}"
    else:
        items = [_text(item, depth + 1, memo) for item in value]
        ends = "[]"
    return f"{ends[0]}{inner}{(',' + inner).join(items)}\n{'  ' * depth}{ends[1]}"


def _emit(args, obj, render_md) -> None:
    if args.format == "json":
        print(_dumps(obj))
    else:
        print("\n".join(render_md(obj)))


def _labels(classes) -> list:
    return [cls.label for cls in classes]


def _datum_notes(parahoric: ParahoricSpec) -> list:
    notes = []
    if parahoric.group.family == "Uram":
        for factor in parahoric.factors:
            if factor.kind == "SOodd" and factor.dual_dim > 0:
                notes.append(
                    "untested combination: odd orthogonal factor of positive "
                    "rank inside a ramified unitary group; its cuspidal count "
                    "is taken to be 1 per support")
                break
    return notes


# ---------------------------------------------------------------- validate

_CLAUSES = ("a", "b", "c", "d")


def _cmd_validate(args) -> int:
    parahoric, supports = datum_parts_from_obj(args.obj)
    field = parahoric.group.field
    factors = []
    valid = parahoric.maximal
    for factor, support in zip(parahoric.factors, supports):
        violation = support_violation(factor, support, field)
        if violation is None:
            verdicts = dict.fromkeys(_CLAUSES, "pass")
            if factor.kind != "SOeven":
                verdicts["d"] = "pass (no sign condition)"
        else:
            clause, reason = violation
            # support_violation tests the clauses in order, and clause b
            # holds for every FactorSupport, so the earlier ones passed.
            failed = _CLAUSES.index(clause)
            verdicts = {c: "pass" if i < failed or c == "b" else "not checked"
                        for i, c in enumerate(_CLAUSES)}
            verdicts[clause] = reason
        ok = violation is None
        valid = valid and ok
        factors.append({"factor": str(factor), "clauses": verdicts, "valid": ok})
    report = {
        "group": str(parahoric.group),
        "parahoric": str(parahoric),
        "parahoric_maximal": parahoric.maximal,
        "factors": factors,
        "valid": valid,
        "notes": _datum_notes(parahoric),
    }

    def render(rep) -> list:
        lines = [f"# validate {rep['parahoric']}", ""]
        lines.append(f"- maximal parahoric: {'yes' if rep['parahoric_maximal'] else 'NO'}")
        for item in rep["factors"]:
            lines.append(f"- factor {item['factor']}: "
                         f"{'valid' if item['valid'] else 'INVALID'}")
            for clause in _CLAUSES:
                lines.append(f"    - clause {clause}: {item['clauses'][clause]}")
        lines.append(f"- datum: {'valid' if rep['valid'] else 'INVALID'}")
        lines.extend(f"- note: {note}" for note in rep["notes"])
        return lines

    _emit(args, report, render)
    return 0 if valid else 1


# ---------------------------------------------------------------- describe

def _cmd_describe(args) -> int:
    from .hecke import (half_text, identity_sides, ired, jordan, parameter_shapes,
                        reducibility_report)

    datum = datum_from_obj(args.obj)
    (n1, act1), (n2, act2) = map(slot_series, datum.parahoric.factors, datum.supports)
    lhs, rhs = identity_sides(datum)
    shapes = parameter_shapes(datum)
    # parameter_shapes hands every shape that takes a (class, members)
    # option the same tuple: one dict per tuple, so that _dumps lays each
    # out once however many shapes take it.  Keyed by id: hashing a tuple
    # hashes its members again on every lookup.
    options = {id(option): option for shape in shapes for option in shape}
    option_objs = {
        key: {"class": cls.label,
              "members": [{"tag": m.tag, "s": half_text(m.s), "chain": list(m.chain)}
                          for m in members]}
        for key, (cls, members) in options.items()
    }
    obj = {
        "datum": str(datum),
        "group": str(datum.group),
        "representations": {
            "n1": n1,
            "n2": n2,
            "component_order": component_group_order(datum.parahoric),
            "slot_actions": [act1, act2],
            "total": count_representations(datum),
        },
        "classes": [
            {
                "class": c.cls.label,
                "degree": c.cls.degree,
                "f_pair": [half_text(f) for f in c.f_pair],
                "s_pair": [half_text(s) for s in c.s_pair],
                "chains": [list(chain) for chain in c.chains],
            }
            for c in reducibility_report(datum)
        ],
        "ired": [[cls.label, half_text(s)] for cls, s in ired(datum)],
        "jordan": [{"class": j.cls.label, "member": j.member, "m": j.m}
                   for j in jordan(datum)],
        "identity": {"lhs": lhs, "rhs": rhs, "ok": lhs == rhs},
        "shapes": {
            "count": len(shapes),
            "entries": [[option_objs[id(option)] for option in shape]
                        for shape in shapes],
        },
        "notes": _datum_notes(datum.parahoric),
    }

    def render(rep) -> list:
        ident = rep["identity"]
        lines = [f"# describe {rep['datum']}", ""]
        r = rep["representations"]
        lines.append(f"- representations: {r['total']} "
                     f"(series {r['n1']} x {r['n2']}, component order "
                     f"{r['component_order']})")
        lines.append("")
        lines.append("| class | f-pair | s-pair | chains |")
        lines.append("|---|---|---|---|")
        for c in rep["classes"]:
            chains = " / ".join(",".join(str(m) for m in chain) or "-"
                                for chain in c["chains"])
            lines.append(f"| {c['class']} | ({c['f_pair'][0]}, {c['f_pair'][1]}) "
                         f"| ({c['s_pair'][0]}, {c['s_pair'][1]}) | {chains} |")
        lines.append("")
        lines.append("- IRed: " + (", ".join(f"({label}, {s})" for label, s in rep["ired"])
                                   or "empty"))
        lines.append("- Jordan: " + (", ".join(
            f"({j['class']}, member {j['member']}, {j['m']})" for j in rep["jordan"])
            or "empty"))
        lines.append(f"- identity: {ident['lhs']} = {ident['rhs']} "
                     f"({'ok' if ident['ok'] else 'FAILED'})")
        lines.append(f"- parameter shapes: {rep['shapes']['count']}")
        for shape in rep["shapes"]["entries"]:
            parts = []
            for cls in shape:
                members = " ".join(
                    f"{m['tag']}[s={m['s']};{','.join(str(x) for x in m['chain']) or '-'}]"
                    for m in cls["members"])
                parts.append(f"{cls['class']}: {members}")
            lines.append("    - " + "; ".join(parts))
        lines.extend(f"- note: {note}" for note in rep["notes"])
        return lines

    _emit(args, obj, render)
    return 0 if lhs == rhs else 1


# ---------------------------------------------------------------- packet

def _cmd_packet(args) -> int:
    from .packets import companions, packet_stats

    datum = datum_from_obj(args.obj)
    census = companions(datum)
    stats = packet_stats(census)
    qs = census.qsets
    notes = _datum_notes(datum.parahoric)
    obj = {
        "datum": str(datum),
        "group": str(datum.group),
        "stratification": {
            "raw": _labels(qs.raw),
            "kept": _labels(qs.kept),
            "removed": _labels(qs.removed),
            "constrained": _labels(qs.constrained),
            "free": _labels(qs.free),
            "q": qs.q,
            "delta": qs.delta,
        },
        "companions": [
            {
                "swaps": _labels(c.swap_set),
                "datum": str(c.datum),
                "parahoric": [c.datum.parahoric.n1, c.datum.parahoric.n2],
                "reps": c.reps,
            }
            for c in census.companions
        ],
        "census": {"data": stats.census_data, "total": stats.census_total},
        "packet": {
            "jordan_size": stats.jordan_size,
            "packet_size": stats.packet_size,
            "e": stats.e,
            "e0": stats.e0,
            "expected_count": stats.expected_count,
            "multiple": str(stats.multiple),
        },
        "notes": notes,
    }
    if stats.o_per_datum is not None:
        obj["orthogonal"] = {
            "per_datum": stats.o_per_datum,
            "total": stats.o_total,
            "multiple": str(stats.o_multiple),
        }
        obj["notes"] = notes + [
            f"full orthogonal doubling: each datum extends in {stats.o_per_datum} "
            f"ways, so the full orthogonal census totals {stats.o_total} "
            f"(multiple {stats.o_multiple} of the expected packet count)"]

    def render(rep) -> list:
        lines = [f"# packet {rep['datum']}", ""]
        s = rep["stratification"]
        lines.append(f"- swap candidates: raw {s['raw']}, kept {s['kept']}, "
                     f"removed {s['removed']}")
        lines.append(f"- constrained {s['constrained']}, free {s['free']}, "
                     f"q = {s['q']}, delta = {s['delta']}")
        lines.append("")
        lines.append("| swaps | companion | reps |")
        lines.append("|---|---|---|")
        for c in rep["companions"]:
            swaps = ", ".join(c["swaps"]) or "(none)"
            lines.append(f"| {swaps} | {c['datum']} | {c['reps']} |")
        lines.append("")
        p = rep["packet"]
        lines.append(f"- census: {rep['census']['data']} data, "
                     f"{rep['census']['total']} representations")
        lines.append(f"- jordan size {p['jordan_size']}, packet size {p['packet_size']}, "
                     f"e = {p['e']}, e0 = {p['e0']}")
        lines.append(f"- expected cuspidal count {p['expected_count']}, "
                     f"multiple {p['multiple']}")
        if "orthogonal" in rep:
            o = rep["orthogonal"]
            lines.append(f"- full orthogonal: {o['per_datum']} per datum, "
                         f"total {o['total']}, multiple {o['multiple']}")
        lines.extend(f"- note: {note}" for note in rep["notes"])
        return lines

    _emit(args, obj, render)
    return 0


# ---------------------------------------------------------------- crossform

def _cmd_crossform(args) -> int:
    from .packets import cross_form_companions

    datum = datum_from_obj(args.obj)
    entries = cross_form_companions(datum)
    obj = {
        "datum": str(datum),
        "group": str(datum.group),
        "forms": [
            {
                "group": str(entry.group),
                "census_data": len(entry.companions),
                "census_total": entry.total,
                "companions": [
                    {"swaps": _labels(c.swap_set), "datum": str(c.datum),
                     "reps": c.reps}
                    for c in entry.companions
                ],
            }
            for entry in entries
        ],
    }

    def render(rep) -> list:
        lines = [f"# crossform {rep['datum']}", ""]
        if not rep["forms"]:
            lines.append("- no other forms share this dimension")
        for form in rep["forms"]:
            lines.append(f"- {form['group']}: {form['census_data']} data, "
                         f"{form['census_total']} representations")
            for c in form["companions"]:
                swaps = ", ".join(c["swaps"]) or "(none)"
                lines.append(f"    - swaps {swaps}: {c['datum']} ({c['reps']} reps)")
        return lines

    _emit(args, obj, render)
    return 0


# ---------------------------------------------------------------- enumerate

def _write_json_list(write, texts) -> None:
    """Write a JSON list one level deep from its items' texts, laid out as
    json.dumps(..., indent=2) lays it out ("[]" when there are none)."""
    sep = "[\n    "
    for text in texts:
        write(sep + text)
        sep = ",\n    "
    write("[]" if sep == "[\n    " else "\n  ]")


def _reused(supports1, texts2):
    """The second slot's texts of a parahoric, held (for that parahoric
    alone) only when more than one first-slot support pairs with them."""
    return list(texts2) if len(supports1) > 1 else texts2


def _data_texts(group: GroupSpec, census):
    """Each datum's text as json.dumps(..., sort_keys=True, indent=2) sets
    it in the "data" list of an enumerate listing, joined from the texts
    of the group, its parahoric and its two supports, each rendered once
    per parahoric.  The keys are written in sorted order."""
    group_text = _dumps(group_to_obj(group), 3)
    entry_text = cache(lambda entry: _dumps(entry_to_obj(*entry), 5))

    def support_text(support: FactorSupport) -> str:
        if not support.entries:
            return "[]"
        entries = ",\n          ".join([entry_text(entry) for entry in support.entries])
        return f"[\n          {entries}\n        ]"

    for parahoric, (supports1, supports2) in census:
        head = (f'{{\n      "group": {group_text},'
                f'\n      "parahoric": {_dumps(parahoric_to_obj(parahoric), 3)},'
                '\n      "supports": [\n        ')
        texts2 = _reused(supports1, map(support_text, supports2))
        for s1 in supports1:
            head1 = f"{head}{support_text(s1)},\n        "
            for text2 in texts2:
                yield f"{head1}{text2}\n      ]\n    }}"


def _datum_labels(census):
    """Each datum's label, joined from the labels of its two supports, each
    rendered once per parahoric."""
    for parahoric, (supports1, supports2) in census:
        labels2 = _reused(supports1, map(str, supports2))
        for s1 in supports1:
            label1 = str(s1)
            for label2 in labels2:
                yield datum_label(parahoric, label1, label2)


def _cmd_enumerate(args) -> int:
    obj = args.obj
    if "group" in obj:
        _check_keys(obj, ("group",), "datum", optional=_DATUM_KEYS[1:])
        obj = obj["group"]
    group = group_from_obj(obj)
    try:
        census = enumerate_census(group, max_degree=args.degree)
    except DegreeLimitError as err:
        raise _refusal(err) from err
    # Only each factor's supports are held, never the data: the count and
    # the representations are read off them, and the listing is written
    # datum by datum, each datum's text joined from its supports' texts.
    # The JSON is byte for byte json.dumps(listing, sort_keys=True,
    # indent=2) of the listing as one object, so count comes before data
    # and labels.
    count = sum(len(s1) * len(s2) for _, (s1, s2) in census)
    total_reps = census_total_reps(census)
    write = sys.stdout.write
    if args.format == "md":
        bound = "none" if args.degree is None else args.degree
        write(f"# enumerate {group}\n\n- degree bound: {bound}\n"
              f"- cuspidal data: {count}\n- representations: {total_reps}\n")
        if not args.count:
            for label in _datum_labels(census):
                write(f"    - {label}\n")
        return 0
    write(f'{{\n  "count": {count},\n')
    if not args.count:
        write('  "data": ')
        _write_json_list(write, _data_texts(group, census))
        write(",\n")
    write(f'  "degree_bound": {_dumps(args.degree)},\n  "group": {_dumps(str(group))},\n')
    if not args.count:
        write('  "labels": ')
        _write_json_list(write, map(_dumps, _datum_labels(census)))
        write(",\n")
    write(f'  "total_reps": {total_reps}\n}}\n')
    return 0


# ---------------------------------------------------------------- selfcheck

def _cmd_selfcheck(args) -> int:
    # Only the options given are passed on: selfcheck holds the defaults.
    # Only its refusals of them are bad input: a ValueError raised once
    # the sweep runs is a library fault.
    given = {"q0_values": args.q, "max_dual": args.dualdim, "max_degree": args.degree,
             "checks": None if args.checks is None else args.checks.split(",")}
    try:
        arguments = sweep_arguments(**{k: v for k, v in given.items() if v is not None})
    except ValueError as err:
        raise _refusal(err) from err
    report = run_selfcheck(*arguments)
    obj = {
        "q0_values": list(report.q0_values),
        "max_dual": report.max_dual,
        "max_degree": report.max_degree,
        "checks": list(report.checks),
        "groups": report.groups,
        "signatures": report.signatures,
        "data_weight": report.data_weight,
        "checked": report.checked,
        "failure_counts": report.failure_counts,
        "ok": report.ok,
        "failures": [
            {
                "check": f.check,
                "group": str(f.datum.group),
                "datum": str(f.datum),
                "detail": f.detail,
                "reproducer": datum_to_obj(f.datum),
            }
            for f in report.failures
        ],
    }

    def render(rep) -> list:
        lines = ["# selfcheck", ""]
        lines.append(f"- fields: residue sizes {rep['q0_values']}, "
                     f"dual dimension <= {rep['max_dual']}, "
                     f"class degree <= {rep['max_degree']}")
        lines.append(f"- checks: {', '.join(rep['checks'])}")
        lines.append(f"- swept {rep['groups']} groups, {rep['signatures']} signatures, "
                     f"{rep['data_weight']} data, {rep['checked']} checked "
                     f"({report.elapsed:.1f}s)")
        for name, count in rep["failure_counts"].items():
            lines.append(f"- {name}: {'ok' if not count else f'{count} FAILURES'}")
        for f in rep["failures"]:
            lines.append(f"- FAILURE [{f['check']}] {f['datum']}: {f['detail']}")
            lines.append(f"    reproducer: {json.dumps(f['reproducer'], sort_keys=True)}")
        lines.append(f"- verdict: {'ok' if rep['ok'] else 'FAILED'}")
        return lines

    _emit(args, obj, render)
    return 0 if report.ok else 1


# ---------------------------------------------------------------- examples

def _cmd_examples(args) -> int:
    if args.name is not None:
        try:
            entries = [gallery_entry(args.name)]
        except KeyError as err:
            raise SchemaError(err.args[0]) from err
    else:
        entries = list(gallery())
    out = []
    all_match = True
    for entry in entries:
        computed = evaluate_entry(entry)
        diffs = {
            key: {"stored": entry.expected[key], "computed": computed[key]}
            for key in entry.expected if entry.expected[key] != computed[key]
        }
        all_match = all_match and not diffs
        out.append({
            "name": entry.name,
            "title": entry.title,
            "datum": datum_to_obj(entry.datum),
            "label": str(entry.datum),
            "stored": entry.expected,
            "computed": computed,
            "diffs": diffs,
            "match": not diffs,
            "note": entry.note or None,
        })
    obj = {"entries": out, "all_match": all_match}

    def render(rep) -> list:
        lines = []
        for item in rep["entries"]:
            lines.append(f"# {item['name']}: {item['title']}")
            lines.append("")
            lines.append(f"- datum: {item['label']}")
            lines.append(f"- match: {'yes' if item['match'] else 'NO'}")
            lines.append("")
            lines.append("| quantity | stored | computed |")
            lines.append("|---|---|---|")
            for key, stored in item["stored"].items():
                lines.append(f"| {key} | {stored} | {item['computed'][key]} |")
            if item["note"]:
                lines.append("")
                lines.append(f"note: {item['note']}")
            lines.append("")
        lines.append(f"all entries match: {'yes' if rep['all_match'] else 'NO'}")
        return lines

    _emit(args, obj, render)
    return 0 if all_match else 1


# ---------------------------------------------------------------- driver

def _bound(text: str) -> int:
    """A nonnegative integer in ASCII digits; argparse exits 2 on anything
    else, a sign, a space or another script's digits included."""
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cuspred",
        description="exact reducibility and packet calculus for depth zero "
                    "cuspidal data of p-adic classical groups")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text, needs_input=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "md"), default="md",
                       help="output format (default md)")
        if needs_input:
            p.add_argument("input", nargs="?", default="-",
                           help="path to a JSON file, inline JSON, or - for stdin")
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, "check a datum clause by clause")
    add("describe", _cmd_describe, "reducibility report for a datum")
    add("packet", _cmd_packet, "companion census and packet statistics")
    add("crossform", _cmd_crossform, "companion censuses on the other forms")

    p = add("enumerate", _cmd_enumerate, "all cuspidal data for a group")
    p.add_argument("--degree", type=_bound, default=None,
                   help="bound on the degrees of the pooled polynomial classes; under the"
                        " trivial involution x-1 and x+1 are not pooled and always listed")
    p.add_argument("--count", action="store_true",
                   help="print only the number of data and of representations")

    p = add("selfcheck", _cmd_selfcheck, "exhaustive consistency sweep",
            needs_input=False)
    p.add_argument("--q", type=_bound, action="append",
                   help="residue field size q0, an odd prime with F(q0^2) of at most 32 elements;"
                        f" repeatable (default {' and '.join(map(str, DEFAULT_Q0))})")
    p.add_argument("--dualdim", type=_bound, default=None,
                   help=f"bound on the dual dimension (default {DEFAULT_DUAL})")
    p.add_argument("--degree", type=_bound, default=None,
                   help="bound on the degrees of the pooled polynomial classes; under the"
                        " trivial involution x-1 and x+1 are not pooled and always swept"
                        f" (default {DEFAULT_DEGREE})")
    p.add_argument("--checks", default=None,
                   help=f"comma separated subset of {','.join(ALL_CHECKS)}")

    p = add("examples", _cmd_examples, "recompute the built-in gallery",
            needs_input=False)
    p.add_argument("--name", default=None,
                   help="run a single gallery entry")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if "input" in args:
            args.obj = _read_json(args.input)
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does: not bad input.
        # Point stdout at devnull so that the flush at exit raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, SchemaError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (AssertionError, KeyError, ValueError) as err:
        if isinstance(err, ValueError) and "input" in args:
            print(f"invalid input: {err}", file=sys.stderr)
            return 1
        # A broken invariant, or a ValueError where no input was read: not bad input.
        print(f"internal error: {repr(err) if isinstance(err, KeyError) else err}",
              file=sys.stderr)
        if "obj" in args:
            print(f"reproducer: {json.dumps(args.obj, sort_keys=True)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
