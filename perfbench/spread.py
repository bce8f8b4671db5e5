"""Run the benchmark on several seeds, one run at a time, and summarise the spread.

    python3 perfbench/spread.py --workloads tree-large --seeds 301-305 --seconds 30

For every metric of every workload it prints the median, the quartiles
and the spread: the distance between the first and third quartile, from
``statistics.quantiles(values, n=4)``, as a share of the median. The
summary, with each run's output digest, is written as JSON to ``--out``
(default ``.perfbench_runs/spread.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its detail line and its result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated")
    parser.add_argument("--seeds", required=True, type=seeds, help="e.g. 301-310 or 1,5,9")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_runs" / "spread.json")
    args = parser.parse_args(argv)

    summary = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units, digests = {}, {}
        for seed in args.seeds:
            detail, result = run(workload, seed, args.seconds, 0)
            ok = ok and result["correct"] and result["failed"] == 0
            digests[seed] = detail["digest"]
            for name, m in detail["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(workload, seed, json.dumps(result["metrics"]), flush=True)
        stats = {name: dict(summarise(v), unit=units[name]) for name, v in values.items()}
        summary["workloads"][workload] = {"metrics": stats, "digests": digests}
        for name, s in stats.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{workload:16} {name:18} median {s['median']:.6g} {s['unit']:4} "
                  f"spread {spread} (n={s['n']})", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
