"""Record the exact-engine d-hat/d* digests the benchmark checks against.

Usage, from the root of a checkout::

    python3 perfbench/record_digests.py [--scale toy|full] [--workload NAME]

Runs every simulation workload once per input variant with
``engine_mode="exact"`` and writes each cell's digest into
``perfbench/digests.json``.  The hybrid workloads must reproduce them bit
for bit.  At full scale each variant takes a few seconds on a 2-core
host.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import VARIANTS, make_workload  # noqa: E402

RECORDED = ("tune_pipeline", "paper_skew", "private_port_scale")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("full", "toy"), action="append")
    parser.add_argument("--workload", choices=RECORDED, action="append")
    args = parser.parse_args(argv)
    path = HERE / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    workdir = ROOT / ".perfbench_work" / "record"
    for scale in args.scale or ("toy", "full"):
        for name in args.workload or RECORDED:
            for seed in range(VARIANTS):
                workdir.mkdir(parents=True, exist_ok=True)
                try:
                    workload = make_workload(name, seed, scale, workdir,
                                             engine_mode="exact")
                    started = time.perf_counter()
                    outcome = workload.run_pass(workload.setup())
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
                if outcome.failed:
                    print("\n".join(outcome.problems), file=sys.stderr)
                    return 1
                table.setdefault(scale, {}).setdefault(name, {})[str(seed)] = \
                    dict(sorted(outcome.digests.items()))
                print(f"{scale} {name} variant {seed}: "
                      f"{len(outcome.digests)} cells in "
                      f"{time.perf_counter() - started:.1f}s", flush=True)
                path.write_text(json.dumps(table, indent=1, sort_keys=True)
                                + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
