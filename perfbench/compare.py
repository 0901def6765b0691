"""Advisory comparison of two benchmark result files.

    python3 perfbench/compare.py BASE.json NEW.json

Each file is a per-workload result (``out/<workload>-seed<n>-trace<t>.json``)
or a combined one (``out/all-seed<n>-trace<t>.json``).  For every workload in
both files, and every metric of ``BENCHMARK.json`` that both report, prints
base, new, the ratio new/base (also for the raw-seconds metrics and
``error_rate``), and whether the change is better or worse in
the metric's direction.  Timings on a shared host are noisy, so the output is
a guide; it never fails a change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Reported by every run but not bounded in BENCHMARK.json: raw seconds drift
# with host speed, and error_rate is 0 on a correct build.
UNBOUNDED = [
    {"name": "op_s_p50", "unit": "s", "better": "lower"},
    {"name": "draws_per_s", "unit": "1/s", "better": "higher"},
    {"name": "error_rate", "unit": "ratio", "better": "lower"},
]


def load(path) -> dict[str, dict[str, float]]:
    """Map workload name to its metrics."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    records = data["workloads"].values() if "workloads" in data else [data]
    return {r["workload"]: r["all_metrics"] for r in records}


def compare(base: dict, new: dict, spec: dict) -> list[str]:
    metrics = spec["end_to_end"] + UNBOUNDED + spec["per_layer"]
    lines = [f"{'workload':<16} {'metric':<40} {'base':>12} {'new':>12} {'new/base':>9}"]
    for workload in [w for w in base if w in new]:
        for m in metrics:
            b, n = base[workload].get(m["name"]), new[workload].get(m["name"])
            if b is None or n is None:
                continue
            ratio = n / b if b else float("nan")
            if n == b:
                verdict = "same"
            elif (n < b) == (m["better"] == "lower"):
                verdict = "better"
            else:
                verdict = "worse"
            lines.append(
                f"{workload:<16} {m['name']:<40} {b:>12.5g} {n:>12.5g} {ratio:>9.3f}  {verdict} ({m['unit']})"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print("\n".join(compare(load(args.base), load(args.new), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
