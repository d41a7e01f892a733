"""The measured process: decompose and re-verify one workload's inputs.

    python3 perfbench/measure.py INPUTDIR SECONDS TRACE OUT

Reads the documents and manifest that workloads.py wrote to INPUTDIR, then
runs passes over all inputs, one algebra at a time, until SECONDS are used.
Each operation goes through the public pipeline exactly as the CLI does:

  decompose: algebra.from_doc, blocks.full_isomorphism,
             blocks.verify_isomorphism(check_multiplicative=True),
             blocks.result_to_doc, cli.canonical_json;
  reverify:  algebra.from_doc, blocks.verify_report_doc on the re-parsed
             report.

Every answer is checked against the manifest.  Every phase's time is
normalised by the speed probe (probe.py).  With TRACE=1, untraced and traced
passes alternate (see tracer.py).  The result goes to OUT as JSON.
"""

import gc
import hashlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from probe import EXPONENTS, SpeedProbe, normalise

ROOT = Path(__file__).resolve().parent.parent

# Longest an operation phase may run; a failed operation is charged this
# much in decompose_s and reverify_s, so turning a fast crash into a
# success can only lower the totals.
OP_LIMIT_S = 10.0

PROBE = SpeedProbe()


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _decompose(w, case):
    """Timed decompose phase; returns (phase, outcome dict)."""
    from wedderburn.errors import NotSemisimple

    expected = case["expected"]
    clock = PROBE.clock()
    A = w.algebra.from_doc(case["doc"])
    try:
        res = w.blocks.full_isomorphism(A, seed=0)
    except NotSemisimple as exc:
        phase = PROBE.since(clock)
        got = len(exc.radical_basis)
        if expected["kind"] == "reject" and got == expected["radical_dim"]:
            return phase, {"status": "ok"}
        return phase, {"status": "wrong",
                       "error": f"rejected with radical dimension {got}"}
    report = w.blocks.verify_isomorphism(A, res, check_multiplicative=True)
    text = w.cli.canonical_json(w.blocks.result_to_doc(res, report))
    phase = PROBE.since(clock)
    blocks = sorted([b.n, b.D.degree] for b in res.blocks)
    if expected["kind"] == "reject":
        return phase, {"status": "wrong", "error": "accepted a non-semisimple input"}
    if not report.passed:
        return phase, {"status": "wrong",
                       "error": "verification failed: " + "; ".join(report.failures)}
    if blocks != expected["blocks"]:
        return phase, {"status": "wrong", "error": f"recovered blocks {blocks}"}
    return phase, {"status": "ok", "report": text,
                   "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _reverify(w, case, report_text):
    report_doc = json.loads(report_text)
    clock = PROBE.clock()
    A = w.algebra.from_doc(case["doc"])
    msgs = w.blocks.verify_report_doc(A, report_doc)
    phase = PROBE.since(clock)
    if msgs:
        return phase, {"status": "wrong", "error": "re-verification: " + msgs[0]}
    return phase, {"status": "ok"}


def run_op(w, case):
    """One operation: its status and the (start, end, wall) of each phase
    that finished."""
    out = {"status": "ok", "decompose": None, "reverify": None,
           "sha256": None, "error": None}
    try:
        gc.collect()
        out["decompose"], dec = PROBE.limited(OP_LIMIT_S, _decompose, w, case)
        out.update(status=dec["status"], error=dec.get("error"),
                   sha256=dec.get("sha256"))
        if dec["status"] == "ok" and "report" in dec:
            gc.collect()
            out["reverify"], rev = PROBE.limited(OP_LIMIT_S, _reverify, w, case,
                                                 dec["report"])
            out.update(status=rev["status"], error=rev.get("error"))
    except Exception as exc:  # any crash is a counted failure, not a stop
        out.update(status="error", error=f"{type(exc).__name__}: {exc}")
    return out


def _settle(op):
    """Add each phase's wall and normalised seconds and its probe reading to
    a finished op; a failed operation is charged OP_LIMIT_S in both phases."""
    for name in ("decompose", "reverify"):
        phase = op[name]
        wall, norm, reading = 0.0, 0.0, None
        if phase:
            wall, reading = phase[2], PROBE.reading(phase[0], phase[1])
            norm = normalise(wall, reading, EXPONENTS[name])
        op[f"{name}_actual_s"] = norm
        op[f"{name}_reading"] = reading
        if op["status"] != "ok":
            wall = norm = OP_LIMIT_S
        op[f"{name}_wall_s"] = wall
        op[f"{name}_s"] = norm


def measure(inputdir, seconds, trace):
    import wedderburn
    import wedderburn.algebra
    import wedderburn.blocks
    import wedderburn.cli

    src = (ROOT / "src").resolve()
    if src not in Path(wedderburn.__file__).resolve().parents:
        raise SystemExit(f"wedderburn imported from {wedderburn.__file__}, not {src}")

    manifest = json.loads((inputdir / "manifest.json").read_text(encoding="utf-8"))
    cases = manifest["cases"]
    for case in cases:
        case["doc"] = json.loads((inputdir / case["file"]).read_text(encoding="utf-8"))

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()

    runs = {"plain": [], "traced": []}  # per pass: list of op results
    layer_samples = []
    pass_seconds = []
    PROBE.start()
    try:
        start = perf_counter()
        while True:
            traced = tracer is not None and len(pass_seconds) % 2 == 1
            t0 = perf_counter()
            if traced:
                tracer.reset()
                tracer.install()
            try:
                ops = []
                for case in cases:
                    if traced:  # one id per operation: pass, then input
                        tracer.begin_op(len(pass_seconds) * len(cases) + case["id"])
                    ops.append(run_op(wedderburn, case))
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                layer_samples.append(tracer.layer_metrics())
            runs["traced" if traced else "plain"].append(ops)
            pass_seconds.append(perf_counter() - t0)
            done = runs["plain"] and (tracer is None or runs["traced"])
            elapsed = perf_counter() - start
            if done and elapsed + statistics.median(pass_seconds) > seconds:
                break
        PROBE.wait_for_sample()
    finally:
        PROBE.stop()

    plain = runs["plain"]
    for ops in plain + runs["traced"]:
        for op in ops:
            _settle(op)

    def median(i, key):
        return statistics.median(ops[i][key] for ops in plain)

    per_case = []
    nondeterministic = []
    for i, case in enumerate(cases):
        samples = [ops[i] for ops in plain + runs["traced"]]
        digests = sorted({s["sha256"] for s in samples if s["sha256"]})
        if len(digests) > 1:
            nondeterministic.append(case["id"])
        statuses = [s["status"] for s in samples]
        per_case.append({
            "id": case["id"],
            "dim": case["dim"],
            "expected": case["expected"],
            "status": max(statuses, key=["ok", "error", "wrong"].index),
            "error": next((s["error"] for s in samples if s["error"]), None),
            **{key: median(i, key) for key in (
                "decompose_s", "reverify_s", "decompose_wall_s", "reverify_wall_s")},
            "sha256": digests,
            # per untraced pass and phase: wall seconds and probe reading,
            # the data fit_speed.py fits the speed exponents to
            "speed_samples": {name: [[op[f"{name}_wall_s"], op[f"{name}_reading"]]
                                     for op in (ops[i] for ops in plain)
                                     if op["status"] == "ok" and op[name]]
                              for name in ("decompose", "reverify")},
        })

    all_ops = [op for ops in plain + runs["traced"] for op in ops]
    attempted = len(all_ops)
    failed = sum(op["status"] != "ok" for op in all_ops)
    wrong = sum(op["status"] == "wrong" for op in all_ops)
    timed = [c for c in per_case if c["expected"]["timed"]]
    dec = [c["decompose_s"] for c in timed]
    rev = [c["reverify_s"] for c in timed]
    result = {
        "environment": environment(),
        "passes": {"plain": len(plain), "traced": len(runs["traced"])},
        "pass_seconds": pass_seconds,
        "probe": PROBE.summary(),
        "op_limit_s": OP_LIMIT_S,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "nondeterministic": nondeterministic,
        "correct": wrong == 0 and not nondeterministic,
        "cases": per_case,
        "metrics": {
            "decompose_s": sum(dec),
            "reverify_s": sum(rev),
            "decompose_wall_s": sum(c["decompose_wall_s"] for c in timed),
            "reverify_wall_s": sum(c["reverify_wall_s"] for c in timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "failed_frac": failed / attempted,
        },
        "per_op": {
            "n": len(timed),
            "decompose_median_s": statistics.median(dec),
            "decompose_max_s": max(dec),
            "reverify_median_s": statistics.median(rev),
            "reverify_max_s": max(rev),
        },
    }
    if tracer is not None:
        def total(ops):
            return sum(op["decompose_actual_s"] + op["reverify_actual_s"]
                       for op in ops)

        layers = {k: statistics.median(s[k] for s in layer_samples)
                  for k in layer_samples[0]}
        layers["trace.overhead_frac"] = (
            statistics.median(total(ops) for ops in runs["traced"])
            / statistics.median(total(ops) for ops in plain) - 1
        )
        result["layers"] = layers
    return result, tracer


def main(argv):
    if len(argv) != 5:
        raise SystemExit("usage: measure.py INPUTDIR SECONDS TRACE OUT")
    inputdir, seconds, trace, out = Path(argv[1]), float(argv[2]), argv[3] == "1", Path(argv[4])
    result, tracer = measure(inputdir, seconds, trace)
    if tracer is not None:
        spans_path = out.with_name(out.stem + "_spans.json")
        tracer.write_spans(spans_path)
        result["spans_file"] = spans_path.name
    out.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv)
