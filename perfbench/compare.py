"""Compare two sets of benchmark runs, refusing mismatched hosts.

Save the standard output of any number of ``run.py`` runs per side
(concatenated in one file per side) and run::

    python3 perfbench/compare.py base.txt change.txt

For every workload and metric it prints each side's median over its runs
and the change's median as a share of the base's, and it says whether the
simulated digests agree.  It exits with code 2 without comparing when
the host records differ (Python, NumPy, CPU count, pinned CPU, BLAS
threads or water-fill backend): numbers from different set-ups are not
comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str):
    """(host records, {(workload, trace): [(record, result)]}) of a file."""
    runs = defaultdict(list)
    hosts = []
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for index, line in enumerate(lines[:-1]):
        if not line.startswith("record "):
            continue
        record = json.loads(line[len("record "):])
        result = json.loads(lines[index + 1])
        hosts.append(record["host"])
        runs[(record["workload"], record["trace"])].append((record, result))
    return hosts, runs


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base_hosts, base), (new_hosts, new) = load(argv[0]), load(argv[1])
    hosts = {json.dumps(h, sort_keys=True) for h in base_hosts + new_hosts}
    if len(hosts) != 1:
        print("refusing to compare: host records differ:", file=sys.stderr)
        for host in sorted(hosts):
            print(f"  {host}", file=sys.stderr)
        return 2
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"{workload} (trace {trace}): {len(base[key])} vs "
              f"{len(new[key])} runs")
        # Seeded workloads digest differently per seed: compare per seed.
        digests = defaultdict(set)
        for record, _ in base[key] + new[key]:
            digests[record["seed"]].add(record["digest"])
        state = "identical" if all(len(d) == 1 for d in digests.values()) else "DIFFER"
        print(f"  simulated digests per seed: {state}")
        for name in base[key][0][1]["metrics"]:
            old = statistics.median(
                res["metrics"][name]["value"] for _, res in base[key]
            )
            now = statistics.median(
                res["metrics"][name]["value"] for _, res in new[key]
            )
            unit = base[key][0][1]["metrics"][name]["unit"]
            share = f"{now / old:8.4f}" if old else "       -"
            print(f"  {name:<28} {old:>14.6g} {now:>14.6g} {unit:<7} {share}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
