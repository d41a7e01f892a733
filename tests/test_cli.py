"""Command-line surface: exit codes, round trips, determinism, sidecars."""

import json
import subprocess
import sys

import pytest

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


def test_split_cap_exit_5(tmp_path):
    m = tmp_path / "m.json"
    f25 = tmp_path / "f25.json"
    s = tmp_path / "s.json"
    assert run("gen", "matrix", "-n", "2", "-p", "7", "-o", str(m)).returncode == 0
    assert run("gen", "matrix", "-n", "1", "-p", "7", "--ext-poly", "1,0,1",
               "-o", str(f25)).returncode == 0
    assert run("gen", "sum", str(m), str(f25), "--scramble", "--seed", "5",
               "-o", str(s)).returncode == 0
    r = run("decompose", str(s), "--seed", "0", "--max-split-iters", "1")
    assert r.returncode == 5
    # with the default cap the same input decomposes fine
    assert run("decompose", str(s)).returncode == 0


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
    run("decompose", str(c3_doc), "--verify-level", "fast", "--format",
        "structured", "-o", str(rep))
    doc = json.loads(rep.read_text())
    assert doc["verification"]["multiplicative"] is None


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
