"""Record the benchmark's inputs and reference outputs from the current code.

    python3 perfbench/make_reference.py

Writes perfbench/data/queries.json, the stored pool of query data with
the SHA-256 (first 20 hex digits) of every command's JSON output, and
perfbench/data/reference.json, the sweep counts, the digest of
`examples`, and the census calls with their digests and sizes.  The
files in the repository were recorded on the seed commit; rerun this
only to record references for a deliberate change of output.

Query pool: two groups per family and residue size (3 or 5) with dual
dimension 14 to 21, drawn with a fixed seed, and up to twenty signature
representatives (class degree <= 4) per group, plus the six gallery
entries.  Within a group the costliest datum is always sent, and the
others are sorted by their measured cost and paired; a run draws one
datum of each pair, so seeds change the data but hardly the amount of
work or the largest output.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    DATA,
    QUERY_COMMANDS,
    SWEEP_BOUND,
    SWEEP_CHECKS,
    SWEEP_DEGREE,
    SWEEP_Q0,
    run_cli,
    run_child,
    sha,
)

POOL_SEED = 2016
DIGITS = 20
GROUPS_PER_KIND = 2
DATA_PER_GROUP = 20
TEST_SWEEP_BOUND = 5

F3 = {"p": 3}
F5 = {"p": 5}
F9 = {"p": 3, "e": 2, "ext": "quadratic"}
F25 = {"p": 5, "e": 2, "ext": "quadratic"}

# (group, degree bound); each is run once with --count and once listing.
CENSUS_GROUPS = (
    ({"family": "Sp", "witt_index": 8, "aniso": [0, 0], "field": F3}, 8),
    ({"family": "Sp", "witt_index": 6, "aniso": [0, 0], "field": F5}, 4),
    ({"family": "SOeven", "witt_index": 8, "aniso": [0, 0], "field": F3}, 8),
    ({"family": "SOeven", "witt_index": 6, "aniso": [1, 1], "field": F5}, 4),
    ({"family": "SOodd", "witt_index": 7, "aniso": [1, 0], "field": F3}, 8),
    ({"family": "SOodd", "witt_index": 6, "aniso": [1, 0], "field": F5}, 6),
    ({"family": "Uunram", "witt_index": 4, "aniso": [0, 0], "field": F9}, 5),
    ({"family": "Uunram", "witt_index": 2, "aniso": [1, 0], "field": F25}, 3),
    ({"family": "Uram", "epsilon": -1, "witt_index": 6, "aniso": [0, 1], "field": F3}, 8),
    ({"family": "Uram", "epsilon": 1, "witt_index": 6, "aniso": [1, 0], "field": F5}, 6),
)


def output(argv: list) -> str:
    rc, text, _, error = run_cli(argv)
    if rc != 0:
        raise SystemExit(f"{argv[0]} failed: {error or rc}")
    return text


def query_pool() -> list[dict]:
    from cuspred.cli import datum_to_obj
    from cuspred.cuspdata import enumerate_signatures, signature_representative
    from cuspred.fixtures import gallery
    from cuspred.groups import dual_dimension
    from cuspred.selfcheck import iter_group_specs

    rng = random.Random(POOL_SEED)
    kinds: dict[tuple, list] = {}
    for group in iter_group_specs((3, 5), 21):
        if dual_dimension(group) >= 14:
            kinds.setdefault((group.family, group.field.q0), []).append(group)
    data = [[datum_to_obj(entry.datum)] for entry in gallery()]
    for key in sorted(kinds):
        for group in rng.sample(kinds[key], GROUPS_PER_KIND):
            sigs = list(enumerate_signatures(group, max_degree=4))
            picked = rng.sample(sigs, min(DATA_PER_GROUP, len(sigs)))
            data.append([datum_to_obj(signature_representative(group, sig))
                         for sig, _ in picked])
    pool = []
    for stratum_base, members in enumerate(data):
        records = []
        for obj in members:
            text = json.dumps(obj, sort_keys=True)
            started = time.perf_counter()
            digests = {c: sha(output([c, "--format", "json", text]))[:DIGITS]
                       for c in QUERY_COMMANDS}
            records.append((time.perf_counter() - started, obj, digests))
        records.sort(key=lambda r: r[0])
        for index, (_, obj, digests) in enumerate(records):
            # the costliest datum of a group is always sent, the rest in pairs
            pair = len(records) if index == len(records) - 1 else index // 2
            pool.append({"stratum": 0, "key": (stratum_base, pair),
                         "datum": obj, "sha256": digests})
    keys = sorted({tuple(r["key"]) for r in pool})
    for record in pool:
        record["stratum"] = keys.index(tuple(record.pop("key")))
    return pool


def sweep_reference(bound: int) -> dict:
    args = ["selfcheck", "--format", "json", "--dualdim", str(bound),
            "--degree", str(SWEEP_DEGREE), "--checks", ",".join(SWEEP_CHECKS)]
    for q in SWEEP_Q0:
        args += ["--q", str(q)]
    out = json.loads(output(args))
    if not out["ok"]:
        raise SystemExit("the reference sweep failed")
    return {key: out[key] for key in ("groups", "signatures", "data_weight")}


def census_calls() -> list[dict]:
    calls = []
    for group, degree in CENSUS_GROUPS:
        for count in (True, False):
            args = ["enumerate", "--format", "json", "--degree", str(degree)]
            args += ["--count"] if count else []
            report, wall, error = run_child(["cli", "0", *args, json.dumps(group)])
            if report is None or report["rc"] != 0:
                raise SystemExit(f"census call failed: {error}")
            print(f"census {json.dumps(group)} degree {degree} count {count}: "
                  f"{report['count']} data, {wall:.2f} s", file=sys.stderr)
            calls.append({"group": group, "degree": degree, "count": count,
                          "size": report["count"],
                          "sha256": report["sha256"][:DIGITS]})
    return calls


def main() -> int:
    reference = {
        "sweep": {str(b): sweep_reference(b) for b in (TEST_SWEEP_BOUND, SWEEP_BOUND)},
        "examples_sha256": sha(output(["examples", "--format", "json"]))[:DIGITS],
        "census": census_calls(),
    }
    pool = query_pool()
    DATA.mkdir(exist_ok=True)
    (DATA / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    with open(DATA / "queries.json", "w", encoding="utf-8") as handle:
        handle.write("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in pool)
                     + "\n]\n")
    print(f"{len(pool)} pooled data in "
          f"{len({r['stratum'] for r in pool})} strata", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
