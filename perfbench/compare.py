"""Check that two benchmark results are comparable, then diff their metrics.

    python3 perfbench/compare.py OLD.json NEW.json

Results come from .perfbench/results/.  Two are comparable when they ran
the same workload, trace mode and run length in the same environment (cpu
count, Python, numpy, BLAS and its thread count).  For the same seed, the
canonical report of every input must also have the same sha256: a fixed
input and seed promise a byte-identical report.

Exit status 0 when comparable with no digest difference, 1 otherwise.
"""

import json
import sys


def problems(old, new):
    found = []
    for key in ("workload", "trace", "seconds"):
        if old[key] != new[key]:
            found.append(f"{key}: {old[key]} vs {new[key]}")
    for key in sorted(set(old["environment"]) | set(new["environment"])):
        a, b = old["environment"].get(key), new["environment"].get(key)
        if a != b:
            found.append(f"environment {key}: {a} vs {b}")
    if old["seed"] == new["seed"]:
        for a, b in zip(old["cases"], new["cases"]):
            if a["sha256"] != b["sha256"]:
                found.append(f"input {a['id']}: report digest {a['sha256']} "
                             f"vs {b['sha256']}")
    return found


def main(argv):
    if len(argv) != 3:
        raise SystemExit("usage: compare.py OLD.json NEW.json")
    with open(argv[1], encoding="utf-8") as fh:
        old = json.load(fh)
    with open(argv[2], encoding="utf-8") as fh:
        new = json.load(fh)
    found = problems(old, new)
    for line in found:
        print(f"differs: {line}")
    key = "layers" if old["trace"] else "metrics"
    for name in sorted(set(old[key]) & set(new[key])):
        a, b = old[key][name], new[key][name]
        change = f"{b / a - 1:+8.1%}" if a else "        "
        print(f"{name:40s} {a:14.6g} {b:14.6g} {change}")
    print(f"failed {old['failed']}/{old['attempted']} -> "
          f"{new['failed']}/{new['attempted']}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
