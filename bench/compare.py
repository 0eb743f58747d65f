"""Compare two sets of benchmark reports, metric by metric.

    python3 bench/compare.py A/ B/
    python3 bench/compare.py A/ B/ --runs 10 --alternate \\
        [--repo-a PATH] [--repo-b PATH] [--workloads W ...] [--seed 7]

``A/`` and ``B/`` hold reports written by ``run.py --out`` as
``<workload>-<i>.json``; A is the parent, B the change, and run ``i`` of
each side form a pair. For every workload and end-to-end metric the
comparison prints each side's median and quartiles and one verdict, with
the bound taken from BENCHMARK.json:

- ``unresolved``: A's quartile spread is wider than the bound, and not
  every run of B reads better than every run of A;
- ``worse``: B's median is worse than A's by more than the bound;
- ``better``: B wins at least nine tenths of the pairs and the medians
  differ by more than A's quartile spread;
- ``within bound``: anything else.

It also prints each side's failed share (failed / attempted). With
``--runs N`` it first makes N pairs of untraced runs per workload with each
repository's own ``bench/run.py``; ``--alternate`` swaps which side runs
first on every other pair.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    q1, median_a, q3 = quartiles(a)
    median_b = quartiles(b)[1]
    spread = q3 - q1
    if spread > bound * abs(median_a) and not (
        min(sign * x for x in b) > max(sign * x for x in a)
    ):
        return "unresolved"
    if sign * (median_a - median_b) > bound * abs(median_a):
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if wins >= 0.9 * len(pairs) and sign * (median_b - median_a) > spread:
        return "better"
    return "within bound"


def load(directory: Path) -> dict[str, list[dict]]:
    reports: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json"), key=_run_index):
        if path.name.endswith(".trace.json"):
            continue
        report = json.loads(path.read_text())
        if not report["trace"]:
            reports.setdefault(report["workload"], []).append(report)
    return reports


def _run_index(path: Path) -> tuple[str, int]:
    stem, _, index = path.stem.rpartition("-")
    return (stem, int(index)) if index.isdigit() else (path.stem, -1)


def make_runs(args) -> None:
    sides = [(args.repo_a, args.a), (args.repo_b, args.b)]
    for directory in (args.a, args.b):
        directory.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads:
        for i in range(args.runs):
            order = sides[::-1] if args.alternate and i % 2 else sides
            for repo, directory in order:
                subprocess.run(
                    [sys.executable, str(repo / "bench" / "run.py"),
                     "--workload", workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", "0",
                     "--out", str(directory / f"{workload}-{i}.json")],
                    cwd=repo, stdout=subprocess.DEVNULL, timeout=600, check=False,
                )


def compare(a_dir: Path, b_dir: Path, metrics: list[dict]) -> list[dict]:
    a_reports, b_reports = load(a_dir), load(b_dir)
    rows = []
    for workload in sorted(set(a_reports) & set(b_reports)):
        a, b = a_reports[workload], b_reports[workload]
        for metric in metrics:
            name = metric["name"]
            va = [r["result"]["metrics"][name]["value"] for r in a]
            vb = [r["result"]["metrics"][name]["value"] for r in b]
            rows.append({
                "workload": workload,
                "metric": name,
                "a": quartiles(va),
                "b": quartiles(vb),
                "runs": (len(va), len(vb)),
                "verdict": verdict(va, vb, metric["better"], metric["bound"]),
            })
        for side, reports in (("A", a), ("B", b)):
            attempted = sum(r["result"]["attempted"] for r in reports)
            failed = sum(r["result"]["failed"] for r in reports)
            rows.append({"workload": workload, "side": side,
                         "failed_share": failed / attempted if attempted else 0.0})
    return rows


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--runs", type=int, default=0)
    p.add_argument("--alternate", action="store_true")
    p.add_argument("--repo-a", type=Path, default=ROOT)
    p.add_argument("--repo-b", type=Path, default=ROOT)
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in declared["workloads"]])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=declared["run_seconds"])
    args = p.parse_args(argv)
    if args.runs:
        make_runs(args)
    rows = compare(args.a, args.b, declared["end_to_end"])
    print(f"{'workload':<21}{'metric':<15}{'A median [q1, q3]':>38}"
          f"{'B median [q1, q3]':>38}{'change':>9}  verdict")
    for row in rows:
        if "side" in row:
            print(f"{row['workload']:<21}{'failed share ' + row['side']:<15}"
                  f"{row['failed_share']:>38.4g}")
            continue
        (a1, am, a3), (b1, bm, b3) = row["a"], row["b"]
        change = (bm - am) / abs(am) if am else float("nan")
        print(f"{row['workload']:<21}{row['metric']:<15}"
              f"{f'{am:.5g} [{a1:.5g}, {a3:.5g}]':>38}"
              f"{f'{bm:.5g} [{b1:.5g}, {b3:.5g}]':>38}"
              f"{change:>+9.2%}  {row['verdict']} (n={row['runs'][0]}/{row['runs'][1]})")
    return 1 if any(row.get("verdict") == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
