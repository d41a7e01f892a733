"""Command-line surface: exit codes, round trips, determinism, sidecars."""

import base64
import contextlib
import functools
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wedderburn import (
    Algebra,
    algebra,
    blocks,
    cayley_fixture,
    cli,
    group_algebra,
    idempotents,
    make_presentation,
    matrix_algebra,
    poly,
    scramble,
)
from wedderburn.errors import NotAssociative

CLI = [sys.executable, "-m", "wedderburn.cli"]


def run(*args, **kw):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=120, **kw
    )


@pytest.fixture
def c3_doc(tmp_path):
    path = tmp_path / "c3.json"
    assert run("gen", "group", "--cayley", "C3", "-p", "5", "-o", str(path)).returncode == 0
    return path


def test_gen_writes_canonical_json(tmp_path, c3_doc):
    doc = json.loads(c3_doc.read_text())
    assert doc["p"] == 5 and doc["dim"] == 3
    # canonical form: sorted keys, tight separators, trailing newline
    text = c3_doc.read_text()
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_gen_group_from_file(tmp_path):
    table = {
        "order": 2,
        "identity": 0,
        "table": [[0, 1], [1, 0]],
    }
    tab = tmp_path / "c2.cayley"
    tab.write_text(json.dumps(table))
    out = tmp_path / "a.json"
    r = run("gen", "group", "--cayley", str(tab), "-p", "7", "-o", str(out))
    assert r.returncode == 0
    assert json.loads(out.read_text())["dim"] == 2


def test_decompose_text_output(c3_doc):
    r = run("decompose", str(c3_doc))
    assert r.returncode == 0
    assert "block 0: M_1(D), dim D = 1" in r.stdout
    assert "block 1: M_1(D), dim D = 2" in r.stdout
    assert "verification passed" in r.stdout


def test_decompose_structured_and_verify_round_trip(tmp_path, c3_doc):
    rep = tmp_path / "rep.json"
    r = run("decompose", str(c3_doc), "--format", "structured", "-o", str(rep))
    assert r.returncode == 0
    doc = json.loads(rep.read_text())
    assert [b["n"] for b in doc["blocks"]] == [1, 1]
    v = run("verify", str(c3_doc), str(rep))
    assert v.returncode == 0
    assert "all checks pass" in v.stdout


def test_verify_rejects_tampered_report(tmp_path, c3_doc):
    rep = tmp_path / "rep.json"
    run("decompose", str(c3_doc), "--format", "structured", "-o", str(rep))
    doc = json.loads(rep.read_text())
    doc["iso_matrix"][0][0] = (doc["iso_matrix"][0][0] + 1) % 5
    rep.write_text(json.dumps(doc))
    v = run("verify", str(c3_doc), str(rep))
    assert v.returncode == 1
    assert v.stdout.strip() or v.stderr.strip()


def test_not_semisimple_exit_2(tmp_path):
    doc = tmp_path / "c3p3.json"
    run("gen", "group", "--cayley", "C3", "-p", "3", "-o", str(doc))
    r = run("decompose", str(doc))
    assert r.returncode == 2
    # the rejection is a mathematical result: the radical lands on stdout
    assert "not semisimple" in r.stdout
    assert "radical basis element: [1, 0, 2]" in r.stdout


def test_characteristic_two_exit_3(tmp_path):
    r = run("gen", "group", "--cayley", "C2", "-p", "2", "-o", str(tmp_path / "x.json"))
    assert r.returncode == 3


def test_huge_modulus_exit_3(tmp_path):
    # p = 2^61 - 1 once hung in the primality test instead of exiting 3
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps({"p": 2**61 - 1, "structure_constants": [[[1]]]}))
    r = subprocess.run(CLI + ["decompose", str(doc)], capture_output=True,
                       text=True, timeout=20)
    assert r.returncode == 3
    assert "Traceback" not in r.stderr


def test_invalid_input_exit_4(tmp_path):
    assert run("decompose", str(tmp_path / "missing.json")).returncode == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("decompose", str(bad)).returncode == 4
    assert run("frobnicate").returncode == 4  # argparse error remapped
    assert run("gen", "matrix", "-n", "2", "-p", "6", "-o",
               str(tmp_path / "y.json")).returncode == 4  # composite modulus
    # scramble without an output path is refused (the sidecar needs a home)
    assert run("gen", "matrix", "-n", "2", "-p", "5", "--scramble").returncode == 4


def test_boolean_among_integers_exit_4(tmp_path, c3_doc):
    rep = tmp_path / "rep.json"
    assert run("decompose", str(c3_doc), "--format", "structured",
               "-o", str(rep)).returncode == 0
    docs = {"algebra": json.loads(c3_doc.read_text()),
            "report": json.loads(rep.read_text())}
    layout = docs["report"]["layout"]
    row, col = next((r, c) for r in range(len(layout)) for c in range(4)
                    if layout[r][c] == 1)
    # each edited cell holds 1, so only its JSON type is wrong
    for target, path in (("algebra", ("structure_constants", 0, 0, 0)),
                         ("algebra", ("identity", 0)),
                         ("report", ("layout", row, col))):
        edited = json.loads(json.dumps(docs[target]))
        node = edited
        for key in path[:-1]:
            node = node[key]
        assert node[path[-1]] == 1
        node[path[-1]] = True
        out = tmp_path / f"{target}.json"
        out.write_text(json.dumps(edited))
        alg = out if target == "algebra" else c3_doc
        rpt = out if target == "report" else rep
        v = run("verify", str(alg), str(rpt))
        assert v.returncode == 4, path
        assert "booleans" in v.stderr and "Traceback" not in v.stderr
        if target == "algebra":
            assert run("decompose", str(out)).returncode == 4


@pytest.mark.parametrize("labels", [5, "ab", [1, 2], {"a": 1}])
def test_malformed_labels_exit_4(tmp_path, labels):
    path = tmp_path / "c2.json"
    assert run("gen", "group", "--cayley", "C2", "-p", "5",
               "-o", str(path)).returncode == 0
    doc = json.loads(path.read_text())
    doc["labels"] = labels
    path.write_text(json.dumps(doc))
    r = run("decompose", str(path))
    assert r.returncode == 4 and "Traceback" not in r.stderr


# an impossible split: Bezout coefficients s = t = 0 make the coprime-factor
# idempotent (s*g)(x) zero
_BROKEN_SPLIT = (
    "import sys\n"
    "from wedderburn import cli, poly\n"
    "poly.bezout = lambda g, h, p: ([1], [0], [0])\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)

# a draw budget of one per block, read by the descent at each call
_SPLIT_CAP_1 = (
    "import sys\n"
    "from wedderburn import cli, idempotents\n"
    "idempotents.SPLIT_CAP = 1\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)

# blocks.matrix_units raising the error class named as the first argument
_FATAL_UNITS = (
    "import sys\n"
    "from wedderburn import blocks, cli, errors\n"
    "error = getattr(errors, sys.argv.pop(1))\n"
    "def matrix_units(*args):\n"
    "    raise error('forced failure')\n"
    "blocks.matrix_units = matrix_units\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)

_FATAL_ERRORS = (
    "EntryOutsideCorner", "NonBijective", "WitnessSolveFailed",
    "InternalSamplingFailure",
)


@pytest.mark.parametrize(
    "command, message",
    [(["-c", _BROKEN_SPLIT], "split produced zero"),
     (["-O", "-c", _BROKEN_SPLIT], "split produced zero")]
    + [(["-c", _FATAL_UNITS, name], "forced failure") for name in _FATAL_ERRORS],
    ids=["plain", "optimize", *_FATAL_ERRORS],
)
def test_internal_invariant_violation_exit_6(c3_doc, command, message):
    # a typed check, not an assert: python -O must not strip it; and a failed
    # invariant must not share exit 1 with "verification failed"
    r = subprocess.run(
        [sys.executable, *command, "decompose", str(c3_doc)],
        capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 6
    assert f"internal error: {message}" in r.stderr
    assert "Traceback" not in r.stderr


# generators.matrix_algebra failing as numpy does on a 348 GiB request
_OUT_OF_MEMORY = (
    "import sys\n"
    "from wedderburn import cli, generators\n"
    "def matrix_algebra(*args):\n"
    "    raise MemoryError('Unable to allocate 348. GiB for an array')\n"
    "generators.matrix_algebra = matrix_algebra\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def test_out_of_memory_exits_3_with_one_line():
    # not exit 1, which means "verification failed", and no traceback
    r = subprocess.run(
        [sys.executable, "-c", _OUT_OF_MEMORY, "gen", "matrix", "-n", "60",
         "-p", "7"],
        capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 3
    assert r.stderr == ("unsupported size: out of memory (Unable to allocate "
                        "348. GiB for an array)\n")


def test_split_cap_exit_5(tmp_path):
    m = tmp_path / "m.json"
    f25 = tmp_path / "f25.json"
    s = tmp_path / "s.json"
    assert run("gen", "matrix", "-n", "2", "-p", "7", "-o", str(m)).returncode == 0
    assert run("gen", "matrix", "-n", "1", "-p", "7", "--ext-poly", "1,0,1",
               "-o", str(f25)).returncode == 0
    assert run("gen", "sum", str(m), str(f25), "--scramble", "--seed", "5",
               "-o", str(s)).returncode == 0
    r = subprocess.run([sys.executable, "-c", _SPLIT_CAP_1, "decompose", str(s),
                        "--seed", "0"], capture_output=True, text=True, timeout=120)
    assert r.returncode == 5
    assert "retry with a different --seed" in r.stderr
    # with the module's budget the same input decomposes fine
    assert run("decompose", str(s)).returncode == 0


def test_search_failures_exit_5_and_6_after_the_chain(tmp_path):
    # p = 3 is at most dim 9, so the search runs before the chain; once the chain certifies a zero radical, its
    # failures exit as they do on any semisimple input
    m = tmp_path / "m33.json"
    assert run("gen", "matrix", "-n", "3", "-p", "3", "-o", str(m)).returncode == 0
    r = subprocess.run([sys.executable, "-c", _SPLIT_CAP_1, "decompose", str(m),
                        "--seed", "2"], capture_output=True, text=True, timeout=120)
    assert r.returncode == 5 and "after 1 random draws" in r.stderr
    assert run("decompose", str(m), "--seed", "2").returncode == 0
    r = subprocess.run([sys.executable, "-c", _BROKEN_SPLIT, "decompose", str(m)],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 6
    assert "internal error: split produced zero" in r.stderr


def test_split_cap_is_no_option(tmp_path):
    # the draw budget is idempotents.SPLIT_CAP; only the seed moves the search
    m = tmp_path / "m.json"
    assert run("gen", "matrix", "-n", "2", "-p", "7", "-o", str(m)).returncode == 0
    r = run("decompose", str(m), "--max-split-iters", "5")
    assert r.returncode == 4
    assert "usage:" in r.stderr
    assert "unrecognized arguments: --max-split-iters 5" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_non_positive_split_cap_is_invalid_input(tmp_path, cap):
    # there is no cap option to take a bad value: the flag itself is an argument error, not exit 5
    m = tmp_path / "m.json"
    assert run("gen", "matrix", "-n", "2", "-p", "7", "-o", str(m)).returncode == 0
    r = run("decompose", str(m), "--max-split-iters", cap)
    assert r.returncode == 4
    assert "usage:" in r.stderr
    assert f"unrecognized arguments: --max-split-iters {cap}" in r.stderr
    assert "Traceback" not in r.stderr


def test_empty_ext_poly_is_invalid_input(tmp_path):
    # an empty --ext-poly names no polynomial, not the prime field
    out = tmp_path / "m.json"
    r = run("gen", "matrix", "-n", "2", "-p", "7", "--ext-poly", "", "-o", str(out))
    assert r.returncode == 4
    assert "invalid input: --ext-poly expects comma-separated integers" in r.stderr
    assert "Traceback" not in r.stderr and not out.exists()


def test_byte_identical_reports(tmp_path, c3_doc):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run("decompose", str(c3_doc), "--format", "structured", "-o", str(r1))
    run("decompose", str(c3_doc), "--format", "structured", "-o", str(r2))
    assert r1.read_bytes() == r2.read_bytes()


def test_scramble_sidecar(tmp_path):
    out = tmp_path / "scr.json"
    r = run("gen", "matrix", "-n", "2", "-p", "5", "--scramble", "--seed", "9",
            "-o", str(out))
    assert r.returncode == 0
    side = json.loads((tmp_path / "scr.json.scramble.json").read_text())
    assert side["seed"] == 9
    assert len(side["scramble_matrix"]) == 4


def test_verify_level_flag(c3_doc, tmp_path):
    rep = tmp_path / "rep.json"
    run("decompose", str(c3_doc), "--format", "structured", "-o", str(rep))
    doc = json.loads(rep.read_text())
    assert doc["verification"]["multiplicative"] is True
    # one verify level: the all-pairs check always runs, so the flag is gone
    r = run("decompose", str(c3_doc), "--verify-level", "fast", "--format",
            "structured", "-o", str(rep))
    assert r.returncode == 4
    assert "Traceback" not in r.stderr


def test_stdout_output_without_dash_o(c3_doc):
    r = run("decompose", str(c3_doc), "--format", "structured")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["dim"] == 3


def test_verify_malformed_report_exit_4(tmp_path, c3_doc):
    rep = tmp_path / "rep.json"
    run("decompose", str(c3_doc), "--format", "structured", "-o", str(rep))
    doc = json.loads(rep.read_text())
    doc["blocks"][0]["connecting_a"] = 5
    rep.write_text(json.dumps(doc))
    v = run("verify", str(c3_doc), str(rep))
    assert v.returncode == 4
    assert "invalid input" in v.stderr and "Traceback" not in v.stderr


def test_verify_non_closed_division_basis_under_optimize(tmp_path):
    # the closure check must survive python -O, which strips asserts
    alg, rep = tmp_path / "f125.json", tmp_path / "rep.json"
    assert run("gen", "matrix", "-n", "1", "-p", "5", "--ext-poly", "1,1,0,1",
               "-o", str(alg)).returncode == 0
    assert run("decompose", str(alg), "--format", "structured",
               "-o", str(rep)).returncode == 0
    doc = json.loads(rep.read_text())
    block = doc["blocks"][0]
    assert block["division_basis"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # span(1, t) in F_125 = F_5[t]/(t^3 + t + 1) misses t^2
    block["division_degree"] = 2
    block["division_basis"] = [[1, 0, 0], [0, 1, 0]]
    rep.write_text(json.dumps(doc))
    v = subprocess.run(
        [sys.executable, "-O", "-m", "wedderburn.cli", "verify", str(alg), str(rep)],
        capture_output=True, text=True, timeout=120,
    )
    assert v.returncode == 1
    assert "block 0: division basis is not closed under product" in v.stdout


@functools.lru_cache(maxsize=None)
def _s3_documents():
    """(algebra, report) JSON texts of a valid decomposition of F_5[S3]."""
    A = group_algebra(cayley_fixture("S3"), 5)
    res = blocks.full_isomorphism(A, seed=0)
    report = blocks.result_to_doc(res, blocks.verify_isomorphism(A, res))
    return json.dumps(A.to_doc()), json.dumps(report)


@st.composite
def mutated_reports(draw):
    """The S3/F_5 report with one field, at any depth, deleted or replaced
    by a wrong type, a wrong shape, a boolean or 2^70."""
    doc = json.loads(_s3_documents()[1])
    parent, key, node = None, None, doc
    while (isinstance(node, (dict, list)) and node
           and (parent is None or draw(st.booleans()))):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = parent[key]
    kind = draw(st.sampled_from(["delete", "type", "shape", "bool", "huge"]))
    if kind == "delete":
        del parent[key]
    elif kind == "type":
        parent[key] = draw(st.sampled_from(["x", 1.5, None, {}]))
    elif kind == "shape":
        parent[key] = draw(st.sampled_from([[], [node], node[:-1]]
                                           if isinstance(node, list)
                                           else [[], [node]]))
    else:
        parent[key] = draw(st.booleans()) if kind == "bool" else 2**70
    return doc


@given(mutated_reports())
@settings(max_examples=200, deadline=None)
def test_verify_survives_mutated_reports(doc):
    algebra_text, _ = _s3_documents()
    with tempfile.TemporaryDirectory() as tmp:
        alg, rep = Path(tmp, "s3.json"), Path(tmp, "rep.json")
        alg.write_text(algebra_text)
        rep.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(["verify", str(alg), str(rep)])
    assert 0 <= code <= 6


# -- a non-associative algebra document -----------------------------------------


@functools.lru_cache(maxsize=None)
def _corrupted_m2_texts():
    """M_2(F_7) with E12 E21 = 2 E11 and its identity (unital, not
    associative), the message make_presentation gives it, and a valid report
    of the true M_2(F_7), as JSON texts."""
    A = matrix_algebra(7, 2).algebra
    doc = A.to_doc()
    doc["structure_constants"][1][2][0] = (doc["structure_constants"][1][2][0] + 1) % 7
    with pytest.raises(NotAssociative) as info:
        make_presentation(7, doc["structure_constants"], identity=doc["identity"])
    res = blocks.full_isomorphism(A, seed=0)
    report = blocks.result_to_doc(res, blocks.verify_isomorphism(A, res))
    return json.dumps(doc), f"invalid input: {info.value}\n", json.dumps(report)


def _non_associative_argv(tmp_path, command):
    bad_text, _, report_text = _corrupted_m2_texts()
    bad, rep, part = tmp_path / "bad.json", tmp_path / "rep.json", tmp_path / "m2.json"
    bad.write_text(bad_text)
    report = json.loads(report_text)
    if command == "verify malformed":
        report["blocks"][0]["connecting_a"] = 5
    rep.write_text(json.dumps(report))
    part.write_text(cli.canonical_json(matrix_algebra(7, 2).algebra.to_doc()))
    return {
        "decompose": ["decompose", str(bad)],
        "verify valid": ["verify", str(bad), str(rep)],
        "verify malformed": ["verify", str(bad), str(rep)],
        "verify missing": ["verify", str(bad), str(tmp_path / "missing.json")],
        "gen sum": ["gen", "sum", str(part), str(bad), "-o", str(tmp_path / "s.json")],
    }[command]


NON_ASSOCIATIVE_COMMANDS = ["decompose", "verify valid", "verify malformed",
                            "verify missing", "gen sum"]


@pytest.mark.parametrize("command", NON_ASSOCIATIVE_COMMANDS)
def test_non_associative_document_exits_4_with_its_first_triple(tmp_path, capsys,
                                                                command):
    # whatever the report (valid, malformed or missing) and whatever the
    # command, the first failing basis triple is the verdict, as
    # make_presentation names it
    argv = _non_associative_argv(tmp_path, command)
    _, message, _ = _corrupted_m2_texts()
    assert message.startswith("invalid input: associativity fails at basis triple (")
    assert cli.main(argv) == 4
    out = capsys.readouterr()
    assert out.err == message and out.out == ""


def _spy_certificate(monkeypatch):
    """The dimension of each algebra whose associativity certificate runs."""
    dims = []
    certify = Algebra._certify_associativity

    def spy(self):
        dims.append(self.dim)
        return certify(self)

    monkeypatch.setattr(Algebra, "_certify_associativity", spy)
    return dims


@pytest.mark.parametrize("n, p", [(3, 97), (6, 31)], ids=["p > dim", "p <= dim"])
def test_passing_decompose_runs_no_nucleus_test(tmp_path, monkeypatch, n, p):
    # the check of the isomorphism proves the document associative, so its
    # certificate never runs; the entry fields (F_p, dimension 1) run their
    # own inside each check
    A, _ = scramble(matrix_algebra(p, n).algebra, seed=1)
    alg, rep = tmp_path / "a.json", tmp_path / "r.json"
    alg.write_text(cli.canonical_json(A.to_doc()))
    dims = _spy_certificate(monkeypatch)
    assert cli.main(["decompose", str(alg), "-o", str(rep)]) == 0
    assert cli.main(["verify", str(alg), str(rep)]) == 0
    assert dims and set(dims) == {1}


@pytest.mark.parametrize("n, p", [(3, 97), (6, 31)], ids=["p > dim", "p <= dim"])
def test_one_check_per_decompose_and_per_verify(tmp_path, monkeypatch, n, p):
    # at p <= dim the search's own check proves the input semisimple, and
    # verify_isomorphism reuses its verdict on the unchanged result; at
    # p > dim verify_isomorphism runs the one check.  verify reads a fresh
    # certificate from the report and proves it again
    A, _ = scramble(matrix_algebra(p, n).algebra, seed=1)
    alg, rep = tmp_path / "a.json", tmp_path / "r.json"
    alg.write_text(cli.canonical_json(A.to_doc()))
    calls, check = [], blocks.check
    monkeypatch.setattr(blocks, "check",
                        lambda *args: calls.append(args) or check(*args))
    assert cli.main(["decompose", str(alg), "-o", str(rep)]) == 0
    assert len(calls) == 1
    assert cli.main(["verify", str(alg), str(rep)]) == 0
    assert len(calls) == 2


def _shifted(A, i, j, k):
    """A's document with the constant c[i][j][k] moved by one."""
    doc = A.to_doc()
    c = doc["structure_constants"]
    c[i][j][k] = (c[i][j][k] + 1) % A.p
    return doc


def _local_ring():
    """F_5[x]/(x^2): rad = (x), and p = 5 > dim = 2."""
    return {"p": 5, "structure_constants": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
            "identity": [1, 0]}


_M2_7 = scramble(matrix_algebra(7, 2).algebra, seed=1)[0]
_M3_3 = scramble(matrix_algebra(3, 3).algebra, seed=1)[0]


def _no_draws(monkeypatch):
    monkeypatch.setattr(idempotents, "SPLIT_CAP", 0)


def _zero_splits(monkeypatch):
    monkeypatch.setattr(poly, "bezout", lambda g, h, p: ([1], [0], [0]))


FAILING_DECOMPOSE = {
    "exit 2, p > dim": (_local_ring, None, 2),
    "exit 2, p <= dim": (lambda: group_algebra(cayley_fixture("S3"), 3).to_doc(),
                         None, 2),
    "exit 5, p > dim": (_M2_7.to_doc, _no_draws, 5),
    "exit 5, p <= dim": (_M3_3.to_doc, _no_draws, 5),
    "exit 6, p > dim": (_M2_7.to_doc, _zero_splits, 6),
    "exit 6, p <= dim": (_M3_3.to_doc, _zero_splits, 6),
    "exit 4, p > dim": (lambda: _shifted(matrix_algebra(7, 2).algebra, 1, 2, 0),
                        None, 4),
    "exit 4, p <= dim": (lambda: _shifted(matrix_algebra(3, 3).algebra, 1, 3, 0),
                         None, 4),
}


@pytest.mark.parametrize("case", list(FAILING_DECOMPOSE))
def test_failing_decompose_runs_the_certificate_first(tmp_path, capsys, monkeypatch,
                                                      case):
    # every verdict but success comes after associativity is settled, so a
    # non-associative document exits 4 with the triple make_presentation
    # names, whatever the search would have made of it
    build, patch, want = FAILING_DECOMPOSE[case]
    doc = build()
    alg = tmp_path / "a.json"
    alg.write_text(cli.canonical_json(doc))
    if patch is not None:
        patch(monkeypatch)
    dims = _spy_certificate(monkeypatch)
    assert cli.main(["decompose", str(alg)]) == want
    assert len(doc["structure_constants"]) in dims
    if want == 4:
        with pytest.raises(NotAssociative) as info:
            make_presentation(doc["p"], doc["structure_constants"],
                              identity=doc["identity"])
        assert capsys.readouterr().err == f"invalid input: {info.value}\n"


# -- the packed cube ------------------------------------------------------------


def _main(*argv):
    """cli.main in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("p, dtype", [(3, "<u1"), (97, "<u1"), (65521, "<u2"),
                                      (65537, "<u4"), (2**31 - 1, "<u4")])
def test_packed_round_trip_for_every_gen_kind(tmp_path, p, dtype):
    # each gen kind writes both forms of one algebra; gen sum reads packed
    # parts, and --scramble packs the scrambled cube
    kinds = {
        "group": ["group", "--cayley", "S3"],
        "matrix": ["matrix", "-n", 2],
        "sum": ["sum", tmp_path / "group_packed.json",
                tmp_path / "matrix_packed.json"],
        "scrambled": ["matrix", "-n", 2, "--scramble", "--seed", 1],
    }
    for kind, args in kinds.items():
        docs = []
        for form in ("lists", "packed"):
            path = tmp_path / f"{kind}_{form}.json"
            flags = ["--packed"] if form == "packed" else []
            p_flag = [] if kind == "sum" else ["-p", p]
            assert _main("gen", *args, *p_flag, *flags, "-o", path)[0] == 0
            docs.append(json.loads(path.read_text()))
        lists, packed = docs
        assert packed["structure_constants"]["dtype"] == dtype, kind
        assert algebra.from_doc(packed).to_doc() == lists, kind
        assert algebra.from_doc(lists).to_doc(packed=True) == packed, kind


def test_both_forms_give_byte_identical_reports(tmp_path):
    reports = []
    for flags in ([], ["--packed"]):
        alg, rep = tmp_path / f"m{len(flags)}.json", tmp_path / f"r{len(flags)}.json"
        assert _main("gen", "matrix", "-n", 3, "-p", 97, "--scramble",
                     "--seed", 1, *flags, "-o", alg)[0] == 0
        assert _main("decompose", alg, "--format", "structured", "-o", rep)[0] == 0
        reports.append(rep.read_bytes())
    assert reports[0] == reports[1]
    code, out, _ = _main("verify", tmp_path / "m1.json", tmp_path / "r0.json")
    assert code == 0 and out == "report verifies: all checks pass\n"


@pytest.mark.parametrize("fault, named", [
    ({"extra": 1}, "unknown key 'extra'"),
    ({"dtype": "<u4"}, "field 'dtype'"),
    ({"data": "AAAA"}, "field 'data' holds 3 bytes"),
    ({"data": "A@AA"}, "field 'data' is not a base64 string"),
    ({"data": base64.b64encode(bytes([0, 0, 0, 0, 0, 0, 0, 7])).decode()},
     "field 'data' holds 7 at (1, 1, 1), not below p = 7"),
], ids=["unknown key", "wide dtype", "byte count", "bad base64", "entry at p"])
def test_packed_faults_exit_4_naming_the_field(tmp_path, fault, named):
    alg = tmp_path / "m.json"
    assert _main("gen", "matrix", "-n", 1, "-p", 7, "--ext-poly", "1,0,1",
                 "--packed", "-o", alg)[0] == 0
    doc = json.loads(alg.read_text())
    doc["structure_constants"].update(fault)
    alg.write_text(json.dumps(doc))
    for command in ("decompose", "verify"):
        code, _, err = _main(command, alg, *([alg] * (command == "verify")))
        assert code == 4
        assert err.startswith("invalid input: structure constants: ")
        assert named in err
