"""Benchmark workloads: generated algebra documents with known answers.

Run as a script, this is the set-up step of one benchmark run:

    python3 perfbench/workloads.py WORKLOAD SEED OUTDIR

It builds the workload's algebras from SEED with the public generators
(build_planted, direct_sum, group_algebra, scramble), writes one JSON
document per algebra into OUTDIR, and writes OUTDIR/manifest.json with the
outcome each input must have.  The expected outcome comes from the
construction alone, never from the decomposer: the planted (n_i, d_i)
multiset, or a rejection with the planted radical dimension.  It also writes
OUTDIR/probe.json with the factor that normalises the set-up's wall time
(probe.py).
"""

import hashlib
import json
import os
import random
import statistics
import sys

NAMES = ("planted-p97", "small-char", "wide-prime")

# The block structures are fixed and the seed only picks the scramble (and,
# on wide-prime, the prime inside a narrow window), so the work per run does
# not depend on the seed much and the batch totals stay comparable.

# Over F_97: the dim-50 sum sets the memory peak (the n^4 arrays of the
# associativity check); equal M_4 and M_3 classes exercise grouping; M_6
# gives the largest n_i^4 matrix-unit grid; degrees 2, 3 and 4 exercise
# extension-field blocks.  How many Las Vegas attempts a split takes
# depends on the scramble, so five inputs average that out of the total.
_PLANTED_P97 = [
    [(4, 1), (4, 1), (3, 2)],
    [(6, 1), (1, 4)],
    [(5, 1), (2, 3), (1, 2)],
    [(3, 1), (3, 1), (2, 2), (1, 3)],
    [(5, 1), (1, 4), (1, 1)],
]

# p | n (M_3(F_3), M_3(F_9) over F_3, M_5(F_5)) kills the trace form, so
# every pair of the stage-zero kernel costs one char_poly.  The two
# group-algebra summands are non-semisimple by Maschke's theorem.  Their
# radical dimensions: F_3[S3] has only the trivial and sign characters as
# simple modules, so 6 - 2 = 4; F_3[C3] has only the trivial one, so
# 3 - 1 = 2.  The inputs are small so that a run holds many passes: the
# per-input medians then ride out the machine's bursts of speed change.
_SMALL_CHAR = [
    ("planted", 5, [(5, 1), (2, 1), (1, 2)]),
    ("planted", 3, [(3, 1), (3, 1), (2, 2)]),
    ("planted", 3, [(3, 2), (2, 1), (1, 1)]),
    ("reject", 3, (3, "S3", 4)),
    ("reject", 3, (4, "C3", 2)),
]

# One prime per window [2^k, 2^k + 2^k/64), k = 27..30: every product has
# K(p-1)^2 >= 2^53, and inside one window the int64 chunk size of matmul_mod
# barely moves, so the seed changes the prime but not the path.  Extension
# degrees stay <= 2 because generators.find_irreducible walks coefficients
# in lex order and needs ~p steps for degree 3 when p = 2 mod 3.
_WIDE_SEEDED = [
    (27, [(4, 1), (2, 1), (1, 2)]),
    (28, [(3, 1), (3, 1), (2, 2)]),
    (29, [(5, 1), (1, 2), (1, 1)]),
    (30, [(4, 1), (4, 1), (1, 2)]),
]
# p = 2^31 - 1 on fixed inputs.  Today both stop with an AssertionError
# (the int64 overflow in poly.mul near 2^31), the same way in every run.
# They count in attempted and failed but are left out of the time totals:
# charged the time limit they would swamp the timed work, and timed for
# real, fixing them would read as a slowdown.
_P31 = 2**31 - 1
_WIDE_FIXED = [
    (0, [(3, 1), (2, 2), (1, 3)]),
    (1, [(4, 1), (2, 2), (1, 3), (1, 1)]),
]


def _prime_in_window(rng, k, is_prime):
    lo = 2**k
    while True:
        c = rng.randrange(lo, lo + lo // 64) | 1
        if is_prime(c):
            return c


def _planted_case(w, spec, p, scramble_seed, timed=True):
    planted = w.build_planted(spec, p)
    A, _ = w.scramble(planted.algebra, scramble_seed)
    return A, {"kind": "planted", "p": p, "blocks": sorted(spec), "timed": timed}


def _reject_case(w, p, k, group, radical_dim, scramble_seed):
    parts = [w.matrix_algebra(p, k).algebra,
             w.group_algebra(w.cayley_fixture(group), p)]
    A, _ = w.scramble(w.direct_sum(parts), scramble_seed)
    return A, {"kind": "reject", "p": p, "radical_dim": radical_dim,
               "construction": f"M_{k}(F_{p}) + F_{p}[{group}]", "timed": True}


def build(name, seed):
    """Yield (Algebra, expected) for every input of a workload."""
    import wedderburn as w

    rng = random.Random(f"{name}:{seed}")
    if name == "planted-p97":
        for spec in _PLANTED_P97:
            spec = list(spec)
            rng.shuffle(spec)
            yield _planted_case(w, spec, 97, rng.getrandbits(32))
    elif name == "small-char":
        for kind, p, arg in _SMALL_CHAR:
            if kind == "planted":
                spec = list(arg)
                rng.shuffle(spec)
                yield _planted_case(w, spec, p, rng.getrandbits(32))
            else:
                yield _reject_case(w, p, *arg, rng.getrandbits(32))
    elif name == "wide-prime":
        for k, spec in _WIDE_SEEDED:
            p = _prime_in_window(rng, k, w.is_prime)
            yield _planted_case(w, spec, p, rng.getrandbits(32))
        for scramble_seed, spec in _WIDE_FIXED:
            yield _planted_case(w, spec, _P31, scramble_seed, timed=False)
    else:
        raise ValueError(f"unknown workload {name!r}; choices: {NAMES}")


def write_inputs(name, seed, outdir):
    """Write the documents and the manifest."""
    os.makedirs(outdir, exist_ok=True)
    cases = []
    for i, (A, expected) in enumerate(build(name, seed)):
        text = json.dumps(A.to_doc(), sort_keys=True, separators=(",", ":"))
        fname = f"input{i:02d}.json"
        with open(os.path.join(outdir, fname), "w", encoding="utf-8") as fh:
            fh.write(text)
        cases.append({
            "id": i,
            "file": fname,
            "dim": int(A.dim),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "expected": {k: (list(map(list, v)) if k == "blocks" else v)
                         for k, v in expected.items()},
        })
    manifest = {"workload": name, "seed": seed, "cases": cases}
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def main(argv):
    """Write the inputs while the speed probe runs, and store in
    OUTDIR/probe.json the factor that normalises the set-up's wall time."""
    from probe import EXPONENTS, SpeedProbe, normalise

    if len(argv) != 4:
        sys.exit("usage: workloads.py WORKLOAD SEED OUTDIR")
    probe = SpeedProbe()
    probe.start()
    try:
        write_inputs(argv[1], int(argv[2]), argv[3])
        probe.wait_for_sample()
    finally:
        probe.stop()
    reading = statistics.fmean(probe.seconds)
    with open(os.path.join(argv[3], "probe.json"), "w", encoding="utf-8") as fh:
        json.dump({"scale": normalise(1.0, reading, EXPONENTS["setup"])}, fh)

if __name__ == "__main__":
    main(sys.argv)
