"""Seeded input generation for the request-path benchmark.

Runs as its own process, before any timing starts::

    python3 perfbench/gen.py KIND SEED SCALE OUTDIR

KIND is a workload name (``pqe-sweep``, ``whatif``, ``cold-load``) and
SCALE is ``full`` or ``tiny`` (|D| ≈ 600, for the self-check).  The
program under test only ever sees the JSON documents written to OUTDIR:

* ``server.json`` — a ``repro serve --requests`` stream document (query,
  data sources, and one request whose answer marks the end of set-up);
* ``tid.json`` — the probabilistic database payload alone, the bytes the
  cold-load ops decode (TID workloads only);
* ``warmup.json`` — a tiny TID payload for the cold-load warm-up op.

Generating in a separate process keeps the generator's objects out of the
benchmark process, whose peak-memory growth is the cold-load memory metric.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

QUERY = "Q() :- R(A, B), S(A, C), T(A, C, D)"

#: |D| per workload and scale.  whatif also fixes the Shapley split:
#: endogenous facts (all of R plus a sample of S ∪ T) and the repair menu.
SIZES = {
    "full": {"pqe-sweep": 32000, "cold-load": 16000, "whatif": 2000},
    "tiny": {"pqe-sweep": 600, "cold-load": 600, "whatif": 600},
}
WHATIF_SHAPE = {
    # (endogenous R facts, other endogenous facts, repair facts per relation)
    "full": (96, 32, 64),
    "tiny": (16, 8, 16),
}


def tid(size: int, seed: int, skew: float):
    """A q_eq1 tuple-independent database of about *size* facts."""
    from repro.query.parser import parse_query
    from repro.workloads.generators import random_probabilistic_database

    return random_probabilistic_database(
        parse_query(QUERY), facts_per_relation=size // 3,
        domain_size=max(4, size // 6), seed=seed, skew=skew,
    )


def whatif(scale: str, seed: int) -> dict:
    """The whatif sources: ``database``/``repair`` and their Shapley split.

    R holds only endogenous facts, so the exogenous facts alone never
    satisfy the query and Shapley values are not trivially zero.
    """
    from repro.db.io import database_to_dict
    from repro.db.database import Database
    from repro.query.parser import parse_query
    from repro.workloads.generators import random_bagset_instance

    size = SIZES[scale]["whatif"]
    endo_r, endo_other, repair_per = WHATIF_SHAPE[scale]
    rng = random.Random(seed)
    per = (size - endo_r) // 2
    instance = random_bagset_instance(
        parse_query(QUERY), base_facts_per_relation=per,
        repair_facts_per_relation=repair_per, budget=1,
        domain_size=max(8, size // 13), seed=rng,
    )
    facts = sorted(instance.database.facts(), key=repr)
    r_facts = [fact for fact in facts if fact.relation == "R"]
    others = [fact for fact in facts if fact.relation != "R"]
    endogenous = rng.sample(r_facts, endo_r) + rng.sample(others, endo_other)
    chosen = set(endogenous)
    exogenous = [fact for fact in others if fact not in chosen]
    return {
        "database": database_to_dict(Database([*exogenous, *endogenous])),
        "repair": database_to_dict(instance.repair_database),
        "exogenous": database_to_dict(Database(exogenous)),
        "endogenous": database_to_dict(Database(endogenous)),
    }


def generate(kind: str, seed: int, scale: str, outdir: Path) -> None:
    from repro.db.io import probabilistic_to_dict

    outdir.mkdir(parents=True, exist_ok=True)
    if kind == "whatif":
        document = {
            "query": QUERY,
            "data": whatif(scale, seed),
            "requests": [{"family": "sat_counts"}],
        }
        (outdir / "server.json").write_text(json.dumps(document))
        return
    skew = 0.8 if kind == "pqe-sweep" else 0.0
    payload = json.dumps(
        probabilistic_to_dict(tid(SIZES[scale][kind], seed, skew))
    )
    (outdir / "tid.json").write_text(payload)
    (outdir / "server.json").write_text(
        '{"query": %s, "data": {"probabilistic": %s}, '
        '"requests": [{"family": "pqe"}]}' % (json.dumps(QUERY), payload)
    )
    if kind == "cold-load":
        warmup = probabilistic_to_dict(tid(SIZES["tiny"][kind], seed + 1, 0.0))
        (outdir / "warmup.json").write_text(json.dumps(warmup))


def main(argv: list[str]) -> int:
    if len(argv) != 4 or argv[0] not in SIZES["full"] or argv[2] not in SIZES:
        print(__doc__, file=sys.stderr)
        return 2
    kind, seed, scale, outdir = argv
    generate(kind, int(seed), scale, Path(outdir))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main(sys.argv[1:]))
