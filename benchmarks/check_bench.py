#!/usr/bin/env python
"""Regression gate for every benchmark suite against ``BENCH.json``.

``BENCH.json`` holds one entry per measured quantity (name, layer, metric,
value, unit, better direction, tolerance).  The fresh file says what it
is: a ``pytest-benchmark --benchmark-json`` file has a ``benchmarks`` list
(one ``median_s`` entry per bench; ``bench_obs.py`` benches are layer
``obs``), a ``python -m repro.bench.loadgen`` payload has a ``workloads``
map (``qps`` and ``p99_us`` per workload, layer ``service``).  Only the
layers the fresh file covers are judged, so each suite is gated alone.

Hard failures (exit 1): coverage drift in either direction (``--subset``
tolerates baseline entries that were not run, e.g. the skipped
``REPRO_BENCH_SCALE`` benches) and any loadgen ``errors > 0``.  Soft
``::warning::`` annotations (CI wall clocks are noisy): a value past its
tolerance in its bad direction, and a ``*_linked`` bench slower than its
``*_untraced`` pair by more than the linked entry's tolerance.

``--update`` rewrites the values of the covered entries (keeping tolerance
and direction), adds new entries at the layer's default tolerance and drops
entries that were not run, unless ``--subset`` is given.

Usage::

    python benchmarks/check_bench.py [--subset] [--update] fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH.json"

#: The gated layers, and the tolerance of an entry ``--update`` adds.
DEFAULT_TOLERANCE = {"engine": 0.25, "obs": 0.10, "service": 0.40}
#: Gated loadgen row fields: metric -> (unit, better direction).
SERVICE_METRICS = {"qps": ("1/s", "higher"), "p99_us": ("us", "lower")}


def _entry(name, layer, metric, value, unit, better) -> dict:
    return {"name": name, "layer": layer, "metric": metric, "value": value,
            "unit": unit, "better": better,
            "tolerance": DEFAULT_TOLERANCE[layer]}


def _key(entry: dict) -> tuple[str, str, str]:
    return entry["layer"], entry["name"], entry["metric"]


def _label(key: tuple[str, str, str]) -> str:
    return "{} benchmark '{}' {}".format(*key)


def _layer(fullname: str) -> str:
    """``benchmarks/bench_obs.py::bench_x`` -> ``obs``."""
    layer = Path(fullname.split("::")[0]).stem.removeprefix("bench_")
    if layer not in DEFAULT_TOLERANCE:
        raise SystemExit(f"check_bench: {fullname} is not in a gated suite "
                         f"(bench_{{{','.join(DEFAULT_TOLERANCE)}}}.py)")
    return layer


def fresh_entries(data: dict) -> tuple[list[dict], list[str]]:
    """The entries a fresh run measured, and its hard errors."""
    if isinstance(data.get("benchmarks"), list):
        return [_entry(b["name"], _layer(b["fullname"]), "median_s",
                       round(float(b["stats"]["median"]), 6), "s", "lower")
                for b in data["benchmarks"]], []
    if not isinstance(data.get("workloads"), dict):
        raise SystemExit("check_bench: expected a pytest-benchmark JSON "
                         "('benchmarks' list) or a repro.bench.loadgen "
                         "payload ('workloads' map)")
    entries, errors = [], []
    for name, row in sorted(data["workloads"].items()):
        if row.get("errors", 0) > 0:
            errors.append(f"::error::service workload '{name}' reported "
                          f"{row['errors']} query error(s) — the load mix is "
                          f"all-valid, so any error is a service bug")
        entries += [_entry(name, "service", metric, float(row[metric]), *how)
                    for metric, how in SERVICE_METRICS.items()]
    return entries, errors


def check(fresh: list[dict], baseline: list[dict], subset: bool = False
          ) -> tuple[list[str], list[str], list[str]]:
    """(hard errors, soft warnings, info lines) for a fresh run."""
    layers = {e["layer"] for e in fresh}
    base = {_key(e): e for e in baseline if e["layer"] in layers}
    now = {_key(e): e for e in fresh}
    errors, warnings, info = [], [], []
    if not now:
        errors.append("::error::the fresh file holds no benchmark results")
    for key in sorted(now.keys() - base.keys()):
        errors.append(f"::error::{_label(key)} has no baseline entry — "
                      f"record it with check_bench.py --update")
    if not subset:
        errors += [f"::error::{_label(key)} is in the baseline but was not run "
                   f"(renamed or removed? run check_bench.py --update, or "
                   f"pass --subset for partial runs)"
                   for key in sorted(base.keys() - now.keys())]
    for key in sorted(base.keys() & now.keys()):
        ref, value = base[key], now[key]["value"]
        ratio = value / ref["value"] if ref["value"] > 0 else 1.0
        drift = ratio - 1.0 if ref["better"] == "lower" else 1.0 - ratio
        if drift > ref["tolerance"]:
            warnings.append(
                f"::warning::{_label(key)} regressed {drift * 100:.0f}% "
                f"({ref['value']:g} -> {value:g} {ref['unit']}, "
                f"tolerance {ref['tolerance'] * 100:.0f}%)")
    for (layer, name, metric), linked in sorted(now.items()):
        pair = now.get((layer, name.removesuffix("_linked") + "_untraced",
                        metric))
        if not name.endswith("_linked") or pair is None or pair["value"] <= 0:
            continue
        budget = base.get((layer, name, metric), linked)["tolerance"]
        overhead = linked["value"] / pair["value"] - 1.0
        line = (f"recording overhead of '{name}' is {overhead * 100:+.1f}% "
                f"over '{pair['name']}' (budget {budget * 100:.0f}%)")
        if overhead > budget:
            warnings.append("::warning::" + line)
        else:
            info.append(line)
    return errors, warnings, info


def update(fresh: list[dict], baseline: list[dict], subset: bool = False
           ) -> list[dict]:
    """The baseline rewritten from a fresh run, within its layers."""
    layers = {e["layer"] for e in fresh}
    now = {_key(e): e for e in fresh}
    old = {_key(e): e for e in baseline}
    kept = [e for e in baseline if e["layer"] not in layers
            or (subset and _key(e) not in now)]
    kept += [dict(old[k], value=e["value"]) if k in old else e
             for k, e in now.items()]
    return sorted(kept, key=_key)


def load_baseline(path: Path) -> list[dict]:
    return json.loads(path.read_text())["entries"]


def write_baseline(entries: list[dict], path: Path) -> None:
    rows = ",\n".join("    " + json.dumps(e) for e in entries)
    path.write_text('{\n  "entries": [\n' + rows + "\n  ]\n}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh_json", type=Path,
                        help="pytest-benchmark --benchmark-json output or a "
                             "repro.bench.loadgen payload")
    parser.add_argument("--subset", action="store_true",
                        help="tolerate baseline entries that were not run")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed baseline from this run")
    args = parser.parse_args(argv)

    fresh, errors = fresh_entries(json.loads(args.fresh_json.read_text()))
    baseline = load_baseline(BASELINE_PATH)
    if args.update and not errors:
        write_baseline(update(fresh, baseline, args.subset), BASELINE_PATH)
        print(f"baseline updated: {BASELINE_PATH}")
        return 0
    more, warnings, info = check(fresh, baseline, args.subset)
    errors += more
    for line in info + errors + warnings:
        print(line)
    print(f"benchmarks checked: {len(fresh)} entries, {len(errors)} error(s), "
          f"{len(warnings)} warning(s)")
    # Coverage drift and query errors block; wall-clock noise only annotates.
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
