#!/usr/bin/env python3
"""The repository benchmark: the paper's slot loop and the decision server.

Run from the repository root::

    python3 perfbench/run.py --workload olgd_lp --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes the separate traced run that reports the per-layer
metrics (and writes its spans to ``.perfbench/``).  ``--smoke`` runs the
workload at a tiny size, for the smoke test.  Human-readable progress goes
to stderr; the last line of stdout is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 only when every output check passed.  The program under
test is imported from ``src/`` under the working directory; without it the
command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from checks import CheckFailure
from slotloop import RunLength, SlotLoopWorkload, run_slot_workload
from wire import WireWorkload, run_wire_workload

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1

WORKLOADS = {
    "olgd_lp": SlotLoopWorkload("olgd_lp", "OL_GD", 100, 24, check_lp=True),
    "olgan_predict": SlotLoopWorkload(
        "olgan_predict",
        "OL_GAN",
        30,
        16,
        demands_known=False,
        controller_options={"n_hotspots": 8},
        quality_slots=250,
    ),
    "prigd_10k": SlotLoopWorkload("prigd_10k", "Pri_GD", 10_000, 40),
    "serve_wire": WireWorkload(
        "serve_wire", n_requests=30, n_stations=16, quality_slots=250
    ),
}

SMOKE_WORKLOADS = {
    "olgd_lp": SlotLoopWorkload(
        "olgd_lp", "OL_GD", 12, 8, quality_slots=3, check_lp=True
    ),
    "olgan_predict": SlotLoopWorkload(
        "olgan_predict",
        "OL_GAN",
        8,
        8,
        demands_known=False,
        controller_options={"n_hotspots": 8},
        quality_slots=3,
    ),
    "prigd_10k": SlotLoopWorkload("prigd_10k", "Pri_GD", 200, 10, quality_slots=3),
    "serve_wire": WireWorkload("serve_wire", n_requests=8, n_stations=8, quality_slots=3),
}

FULL = RunLength(setup_repeats=3, warmup_slots=2, min_timed_slots=100, replay_slots=3)
SMOKE = RunLength(setup_repeats=2, warmup_slots=1, min_timed_slots=4, replay_slots=2)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed: drives the demand realisation (default: {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="measuring time of one run (default: 20)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1 = traced run reporting the per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the smoke test"
    )
    return parser.parse_args(argv)


def declared_units(root: Path, trace: bool) -> Dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    units = declared_units(root, bool(args.trace))
    table = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    length = SMOKE if args.smoke else FULL
    workload = table[args.workload]
    options = dict(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), log=sys.stderr)
    try:
        if isinstance(workload, WireWorkload):
            result = run_wire_workload(workload, length, root=root, **options)
        else:
            result = run_slot_workload(workload, length, **options)
    except CheckFailure as failure:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    metrics, attempted, failed, tracer = result
    if tracer is not None:
        tracer.write_jsonl(
            root / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metric names differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}"
        )
    for name in units:
        print(f"{name:32s} {metrics[name]!r:>24} {units[name]}", file=sys.stderr)
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
