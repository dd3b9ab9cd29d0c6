"""Compare benchmark results written with ``run.py --out``.

    python3 perfbench/compare.py --before a1.json a2.json --after b1.json b2.json

Prints, per workload and mode, the median of each metric on both sides and
the change. Flags any comparison whose runs differ in kernel backend,
Python version or core count: their numbers do not measure the same thing.
"""

import argparse
import json
import statistics
import sys

ENV_KEYS = ("backend", "python", "nproc")


def _load(paths):
    groups = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        groups.setdefault((doc["workload"], doc["trace"]), []).append(doc)
    return groups


def _envs(docs, key):
    return sorted({str(d["env"][key]) for d in docs})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", nargs="+", required=True)
    parser.add_argument("--after", nargs="+", required=True)
    args = parser.parse_args(argv)
    before, after = _load(args.before), _load(args.after)
    flagged = False
    for group in sorted(set(before) & set(after)):
        docs = before[group] + after[group]
        print("== %s, trace %d: %d before, %d after"
              % (group[0], group[1], len(before[group]), len(after[group])))
        for key in ENV_KEYS:
            values = _envs(docs, key)
            if len(values) > 1:
                flagged = True
                print("WARNING: runs differ in %s: %s" % (key, ", ".join(values)))
        metrics = before[group][0]["result"]["metrics"]
        for name, first in metrics.items():
            b = statistics.median(d["result"]["metrics"][name]["value"]
                                  for d in before[group])
            a = statistics.median(d["result"]["metrics"][name]["value"]
                                  for d in after[group])
            change = "%+.1f%%" % (100.0 * (a - b) / b) if b else "n/a"
            print("  %-44s %12.6g %12.6g  %8s %s"
                  % (name, b, a, change, first["unit"]))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
