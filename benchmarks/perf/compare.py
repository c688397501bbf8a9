"""Compare perf-ledger result sets against the benchmark's own bounds.

    python3 benchmarks/perf/compare.py BASE.jsonl CHANGE.jsonl [MORE.jsonl ...]

Each file is a result set: the JSON lines ``run.py --out FILE`` appends,
one per run.  For every (workload, end-to-end metric) the tool takes the
median of each set and judges the later sets against the first:

- ``worse``      the median moved the wrong way by more than the
                 metric's bound in ``BENCHMARK.json``;
- ``better``     it moved the right way by more than the bound;
- ``unresolved`` the run-to-run spread (interquartile distance over the
                 median, of either set) is wider than the bound, so the
                 sets cannot tell — unless every run of the change reads
                 better than every run of the base, which is ``better``;
- ``shifted-worse`` / ``shifted-better``
                 inside the bound, but the median moved by more than the
                 spread: on this workload the sets do tell the two
                 apart, the bound (one number per metric, sized for the
                 noisiest workload) merely tolerates it;
- ``same``       anything else.

Layer metrics (from ``--trace 1`` runs) have no bound; they are listed
with their change and no verdict, as are the raw ``host.raw_*`` values
recorded beside every end-to-end run, which show what the host-drift
normalization removed.  Exits 1 if any pair is ``worse``, and 2 without
comparing anything if the sets were not timed over the same window.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

import ledger


def load_set(path: str) -> tuple[dict[tuple[str, str], list[float]], set]:
    """(workload, metric) -> values, one per run in the file; and the
    timed windows (``--seconds``) its runs used."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    windows = set()
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            run = json.loads(line)
            windows.add(run["seconds"])
            for name, entry in run["metrics"].items():
                values[run["workload"], name].append(entry["value"])
            # the un-normalized view recorded beside an end-to-end run
            for name, value in run.get("host", {}).items():
                if name.startswith("host.raw_") and not run["trace"]:
                    values[run["workload"], name].append(value)
    return values, windows


def verdict(base: list[float], change: list[float], bound: float,
            higher_is_better: bool) -> str:
    """Judge *change* against *base* by the rules in the module docstring."""
    base_med = statistics.median(base)
    delta = (statistics.median(change) - base_med) / base_med
    # move of the median in the bad direction, as a share of the base
    worsening = -delta if higher_is_better else delta
    every_run_better = (min(change) > max(base) if higher_is_better
                        else max(change) < min(base))
    spread = max(ledger.iqr_share(base), ledger.iqr_share(change))
    if spread > bound and not every_run_better:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    if abs(worsening) > spread:
        return "shifted-worse" if worsening > 0 else "shifted-better"
    return "same"


def compare(base: dict, change: dict, title: str, spec: dict) -> int:
    """Print one table for the pair; returns the count of ``worse``."""
    gated = {m["name"]: m for m in spec["end_to_end"]}
    print(f"== {title}")
    print(f"{'workload':15s} {'metric':28s} {'base':>11s} {'change':>11s} "
          f"{'delta':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    worse = 0
    for workload, name in sorted(base.keys() & change.keys()):
        a, b = base[workload, name], change[workload, name]
        a_med, b_med = statistics.median(a), statistics.median(b)
        delta = (b_med - a_med) / a_med if a_med else 0.0
        spread = max(ledger.iqr_share(a), ledger.iqr_share(b)) if a_med \
            and b_med else 0.0
        row = (f"{workload:15s} {name:28s} {a_med:11.5g} {b_med:11.5g} "
               f"{delta:+8.1%} {spread:7.1%}")
        if name in gated:
            result = verdict(a, b, gated[name]["bound"],
                             gated[name]["better"] == "higher")
            worse += result == "worse"
            row += f" {gated[name]['bound']:6.0%}  {result}"
        print(row)
    for workload, name in sorted(base.keys() ^ change.keys()):
        print(f"{workload:15s} {name:28s} present in only one set")
    return worse


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = ledger.load_spec()
    sets = [load_set(path) for path in argv]
    if len(set().union(*(windows for _, windows in sets))) > 1:
        for path, (_, windows) in zip(argv, sets):
            print(f"{path}: timed over {sorted(windows)} s", file=sys.stderr)
        print("result sets timed over different windows do not compare",
              file=sys.stderr)
        return 2
    worse = sum(compare(sets[0][0], values, f"{path} against {argv[0]}", spec)
                for path, (values, _) in zip(argv[1:], sets[1:]))
    if worse:
        print(f"{worse} (workload, metric) pair(s) worse than the bound")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
