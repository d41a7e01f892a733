"""Benchmark of the wedderburn pipeline: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ../src relative to this
file.  Workloads (see workloads.py): planted-p97, small-char, wide-prime.

One run:
  1. set-up: workloads.py writes the workload's input documents and their
     expected outcomes, in a fresh process; this is repeated SETUP_REPEATS
     times (once with --trace 1) and setup_s is the median;
  2. measurement: measure.py, one process, one client in a closed loop,
     decomposes and re-verifies every input per pass for about S seconds.

Every time is normalised by the speed probe (probe.py): seconds at a fixed
machine speed, so that identical runs agree although the shared host's
speed changes under them.  Wall times are kept in the result file.

Every child runs with BLAS pinned to one thread, so both sides of a
comparison see the same load.  The run prints a summary, writes the full
result to .perfbench/results/BENCH_<workload>_seed<N>_trace<T>.json and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones (setup_s, decompose_s,
reverify_s, peak_rss_mb); with --trace 1 the per-layer ones from the
traced passes, plus trace.overhead_frac.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "decompose_s": "s", "reverify_s": "s",
                    "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("flops"):
        return "flop"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("_frac", "_share", "_yield")):
        return "1"
    return "count"


def child_env():
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        # numpy asks for transparent huge pages on large arrays; the kernel's
        # compaction stalls then made whole stages 2-3x slower at random
        NUMPY_MADVISE_HUGEPAGE="0",
    )
    return env


def set_up(workload, seed, workdir, repeats):
    """Write the inputs `repeats` times; return the wall times and the
    normalised ones (see probe.py)."""
    walls, times = [], []
    manifests = set()
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-s", str(HERE / "workloads.py"), workload,
             str(seed), str(workdir)],
            env=child_env(), check=True, timeout=SETUP_TIMEOUT_S,
        )
        walls.append(perf_counter() - t0)
        probe = json.loads((workdir / "probe.json").read_text(encoding="utf-8"))
        times.append(walls[-1] * probe["scale"])
        manifests.add((workdir / "manifest.json").read_text(encoding="utf-8"))
    if len(manifests) != 1:
        raise RuntimeError("set-up wrote different inputs for one seed")
    return walls, times


def summary(workload, seed, trace, result):
    passes = result["passes"]
    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}  "
             f"inputs {len(result['cases'])}  passes {passes['plain']} untraced"
             f" + {passes['traced']} traced"]
    if trace:
        for name, value in sorted(result["layers"].items()):
            lines.append(f"  {name:40s} {value:>16.6g} {layer_unit(name)}")
    else:
        m = result["metrics"]
        lines.append(f"  setup_s      {m['setup_s']:10.4f} s   (median of "
                     f"{SETUP_REPEATS} set-ups; wall "
                     f"{statistics.median(result['setup_wall_s']):.4f} s)")
        lines.append(f"  decompose_s  {m['decompose_s']:10.4f} s   (batch, "
                     f"per-input median over passes; wall "
                     f"{m['decompose_wall_s']:.4f} s)")
        lines.append(f"  reverify_s   {m['reverify_s']:10.4f} s   (wall "
                     f"{m['reverify_wall_s']:.4f} s)")
        lines.append(f"  peak_rss_mb  {m['peak_rss_mb']:10.1f} MB")
        probe = result["probe"]
        lines.append(f"  speed probe  median {probe['median_s'] * 1e3:.3f} ms over "
                     f"{probe['samples']} samples (reference "
                     f"{probe['reference_s'] * 1e3:.3f} ms)")
    per_op = result["per_op"]
    lines.append(f"  failed_frac  {result['metrics']['failed_frac']:10.4f}     "
                 f"({result['failed']} of {result['attempted']} operations)")
    lines.append(f"  per timed input (n={per_op['n']}): decompose median "
                 f"{per_op['decompose_median_s']:.3f} s, slowest "
                 f"{per_op['decompose_max_s']:.3f} s; reverify median "
                 f"{per_op['reverify_median_s']:.3f} s, slowest "
                 f"{per_op['reverify_max_s']:.3f} s")
    for case in result["cases"]:
        if case["status"] != "ok":
            untimed = "" if case["expected"]["timed"] else ", untimed"
            lines.append(f"  input {case['id']} (dim {case['dim']}, "
                         f"p={case['expected']['p']}{untimed}) "
                         f"{case['status']}: {case['error']}")
    if result["nondeterministic"]:
        lines.append(f"  report digests differ between passes for inputs "
                     f"{result['nondeterministic']}")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    state = ROOT / ".perfbench"
    (state / "work").mkdir(parents=True, exist_ok=True)
    (state / "results").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=state / "work"))
    tag = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    out = state / "results" / f"{tag}.json"
    try:
        setup_walls, setup_times = set_up(args.workload, args.seed, workdir,
                                          1 if args.trace else SETUP_REPEATS)
        subprocess.run(
            [sys.executable, "-s", str(HERE / "measure.py"), str(workdir),
             str(args.seconds), str(args.trace), str(out)],
            env=child_env(), check=True, timeout=args.seconds + 150,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = json.loads(out.read_text(encoding="utf-8"))
    result["metrics"]["setup_s"] = statistics.median(setup_times)
    result.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, setup_times_s=setup_times,
                  setup_wall_s=setup_walls)
    out.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")

    print(summary(args.workload, args.seed, args.trace, result))
    print(f"  result: {out.relative_to(ROOT)}")
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": result["metrics"][k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
