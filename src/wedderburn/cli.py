"""Command-line surface: decompose, verify, gen.

Exit codes: 0 success; 1 failed verification; 2 not semisimple (radical
printed); 3 unsupported characteristic; 4 invalid input (including argument
errors); 5 split iteration cap exhausted (retry with another seed).
All randomized behavior is a pure function of (input, seed); structured
output is canonical JSON, byte-identical across runs.
"""

import argparse
import json
import os
import sys

from . import algebra, blocks, generators
from .errors import (
    InvalidCayley,
    InvalidDocument,
    ModulusMismatch,
    NoIdentity,
    NotAssociative,
    NotPrime,
    NotSemisimple,
    ReduciblePolynomial,
    SplitIterationCapExceeded,
    UnsupportedCharacteristic,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_NOT_SEMISIMPLE = 2
EXIT_UNSUPPORTED = 3
EXIT_INVALID_INPUT = 4
EXIT_SPLIT_CAP = 5


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit 2 on bad arguments; remap to exit 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


def canonical_json(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise InvalidDocument(f"{path}: not valid JSON ({exc})") from None


def _write_output(doc, path):
    text = canonical_json(doc)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _parse_ext_poly(text):
    try:
        coeffs = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise InvalidDocument(
            f"--ext-poly expects comma-separated integers, got {text!r}"
        ) from None
    if not coeffs:
        raise InvalidDocument("--ext-poly must not be empty")
    return coeffs


def _block_summary_lines(result):
    return [
        f"block {blk.index}: M_{blk.n}(D), dim D = {blk.D.degree}"
        for blk in result.blocks
    ]


def cmd_decompose(args):
    A = algebra.from_doc(_load_json(args.input))
    result = blocks.full_isomorphism(A, seed=args.seed, cap=args.max_split_iters)
    level = args.verify_level or ("full" if A.dim <= 64 else "fast")
    report = blocks.verify_isomorphism(
        A, result, check_multiplicative=(level == "full")
    )
    doc = blocks.result_to_doc(result, report)
    if not report.passed:
        for msg in report.failures:
            print(f"verification failed: {msg}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    if args.format == "structured":
        _write_output(doc, args.output)
        if args.output is not None:
            for line in _block_summary_lines(result):
                print(line)
    else:
        if args.output is not None:
            _write_output(doc, args.output)
        for line in _block_summary_lines(result):
            print(line)
        checked = "unit, multiplicative, bijective, orthogonality" \
            if level == "full" else "unit, bijective, orthogonality"
        print(f"verification passed ({checked})")
    return EXIT_OK


def cmd_verify(args):
    A = algebra.from_doc(_load_json(args.algebra))
    report_doc = _load_json(args.report)
    msgs = blocks.verify_report_doc(A, report_doc)
    if msgs:
        print(f"verification failed: {msgs[0]}")
        for msg in msgs[1:]:
            print(f"also: {msg}")
        return EXIT_VERIFY_FAILED
    print("report verifies: all checks pass")
    return EXIT_OK


def _finish_gen(args, A):
    if args.scramble:
        if args.output is None:
            raise InvalidDocument("--scramble requires -o for the sidecar")
        scrambled, S = generators.scramble(A, args.seed)
        _write_output(scrambled.to_doc(), args.output)
        sidecar = {
            "p": int(A.p),
            "dim": int(A.dim),
            "seed": int(args.seed),
            "scramble_matrix": S.tolist(),
        }
        _write_output(sidecar, args.output + ".scramble.json")
        return EXIT_OK
    _write_output(A.to_doc(), args.output)
    return EXIT_OK


def cmd_gen_group(args):
    # --cayley takes a JSON table document; bare built-in names (C2, C3,
    # C4, S3, D4, Q8) are accepted as a convenience when no such file exists
    if not os.path.exists(args.cayley) and args.cayley in generators.FIXTURE_NAMES:
        table = generators.cayley_fixture(args.cayley)
    else:
        table = _load_json(args.cayley)
    return _finish_gen(args, generators.group_algebra(table, args.p))


def cmd_gen_matrix(args):
    ext = _parse_ext_poly(args.ext_poly) if args.ext_poly else None
    planted = generators.matrix_algebra(args.p, args.n, ext)
    return _finish_gen(args, planted.algebra)


def cmd_gen_sum(args):
    parts = [algebra.from_doc(_load_json(path)) for path in args.inputs]
    return _finish_gen(args, generators.direct_sum(parts))


def build_parser():
    parser = _Parser(
        prog="wedderburn",
        description="Exact block decomposition of semisimple algebras "
                    "over odd prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="decompose an algebra document")
    dec.add_argument("input", help="path to the algebra JSON document")
    dec.add_argument("--seed", type=int, default=0,
                     help="seed for all randomized choices (default 0)")
    dec.add_argument("--max-split-iters", type=int, default=256,
                     help="attempt cap for the randomized splitter")
    dec.add_argument("--verify-level", choices=("fast", "full"), default=None,
                     help="fast skips the all-pairs product check "
                          "(default: full for dim <= 64)")
    dec.add_argument("--format", choices=("text", "structured"),
                     default="text")
    dec.add_argument("-o", "--output", default=None,
                     help="write the report document here")
    dec.set_defaults(func=cmd_decompose)

    ver = sub.add_parser("verify", help="re-prove a serialized report")
    ver.add_argument("algebra", help="path to the algebra JSON document")
    ver.add_argument("report", help="path to the report JSON document")
    ver.set_defaults(func=cmd_verify)

    gen = sub.add_parser("gen", help="generate fixture algebra documents")
    gensub = gen.add_subparsers(dest="generator", required=True)

    gg = gensub.add_parser("group", help="group algebra from a Cayley table")
    gg.add_argument("--cayley", required=True,
                    help="path to the Cayley JSON document")
    gg.add_argument("-p", type=int, required=True, help="prime modulus")

    gm = gensub.add_parser("matrix", help="matrix algebra over F_p or an extension")
    gm.add_argument("-n", type=int, required=True, help="matrix size")
    gm.add_argument("-p", type=int, required=True, help="prime modulus")
    gm.add_argument("--ext-poly", default=None,
                    help="extension polynomial coefficients, lowest first, "
                         "comma-separated (e.g. 1,1,1 for 1+T+T^2)")

    gs = gensub.add_parser("sum", help="direct sum of algebra documents")
    gs.add_argument("inputs", nargs="+", help="paths of the summand documents")

    for sub_parser, func in ((gg, cmd_gen_group), (gm, cmd_gen_matrix),
                             (gs, cmd_gen_sum)):
        sub_parser.add_argument("--scramble", action="store_true",
                                help="apply a random invertible basis change; "
                                     "writes the matrix to a sidecar")
        sub_parser.add_argument("--seed", type=int, default=0)
        sub_parser.add_argument("-o", "--output", default=None)
        sub_parser.set_defaults(func=func)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotSemisimple as exc:
        print(f"not semisimple: radical has dimension {len(exc.radical_basis)}")
        for el in exc.radical_basis:
            print(f"  radical basis element: {el.coords.tolist()}")
        return EXIT_NOT_SEMISIMPLE
    except UnsupportedCharacteristic as exc:
        print(f"unsupported characteristic: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except SplitIterationCapExceeded as exc:
        print(f"{exc}; retry with a different --seed", file=sys.stderr)
        return EXIT_SPLIT_CAP
    except (InvalidDocument, InvalidCayley, NotPrime, NotAssociative,
            NoIdentity, ReduciblePolynomial, ModulusMismatch,
            OSError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
