"""Command-line behaviour: exit codes, determinism, golden tables."""

import json
import subprocess
import sys
from pathlib import Path

from contourcalc.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "contourcalc.cli", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        **kw,
    )


def test_derive_builtin_deterministic(capsys):
    assert main(["derive", "--input", "convolution"]) == 0
    first = capsys.readouterr().out
    assert main(["derive", "--input", "convolution"]) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[0].startswith("# D[a,b]")
    assert first.splitlines()[3] == "D^{R} = ∫{c} A^{R} B^{R}"
    assert len(first.splitlines()) == 8


def test_derive_from_file(tmp_path, capsys):
    src = tmp_path / "eq.ctr"
    src.write_text("P[a,b] = int{} : A[a,b]*B[b,a]\n", encoding="utf-8")
    assert main(["derive", "--input", str(src), "--target", ">"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["# P[a,b] = int{} : A[a,b] * B[b,a]", "P^{>} = A^{>} B^{<}"]


def test_derive_parse_error_exit_1(tmp_path, capsys):
    src = tmp_path / "bad.ctr"
    src.write_text("P[a,b] = int{a} : A[a,b]\n", encoding="utf-8")
    assert main(["derive", "--input", str(src)]) == 1
    assert "Overlapping" in capsys.readouterr().err


def test_derive_corpus_file(capsys):
    assert main(["derive", "--input", str(ROOT / "corpus.ctr"), "--target", "M"]) == 0
    out = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert len(out) == 5  # one M rule per stanza
    assert out[0] == "D^{M} = ⋆{c} A^{M} B^{M}"


def test_verify_pass_exit_0(capsys):
    assert main([
        "verify", "--input", "convolution", "--target", ">",
        "--grid", "12", "--seeds", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_json_records(capsys):
    assert main([
        "verify", "--input", "product", "--target", "R",
        "--grid", "8", "--seeds", "1", "--json",
    ]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert {r["mode"] for r in records} == {"symbolic", "numeric"}
    assert all(r["passed"] for r in records)
    assert records[0]["equation"] == "D" and records[0]["target"] == "R"


def test_verify_impossible_tolerance_exit_2(capsys):
    assert main([
        "verify", "--input", "convolution", "--target", ">",
        "--grid", "8", "--seeds", "1", "--tol", "1e-30",
    ]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_three_horizontal_externals_exit_2(tmp_path, capsys):
    src = tmp_path / "x.ctr"
    src.write_text("X[a,b,c] = int{u,v} : A[a,u]*B[u,b]*C[u,v]*D[v,c]\n", encoding="utf-8")
    # the symbolic oracle cannot place three horizontal externals: a FAIL
    # record, not a traceback, and the numeric checks still run
    assert main([
        "verify", "--input", str(src), "--target", "R(1,23)",
        "--grid", "6", "--seeds", "1",
    ]) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].startswith("FAIL X^{R(1,23)} mode=symbolic seed=- max_error=inf")
    assert "horizontal externals" in out[0]
    assert out[1].startswith("PASS X^{R(1,23)} mode=numeric seed=0")


def test_tables_golden_text(capsys):
    assert main(["tables"]) == 0
    got = capsys.readouterr().out
    assert got == (ROOT / "golden" / "tables.txt").read_text(encoding="utf-8")


def test_tables_golden_keldysh(capsys):
    assert main(["tables", "--contour", "keldysh"]) == 0
    got = capsys.readouterr().out
    assert got == (ROOT / "golden" / "tables_keldysh.txt").read_text(encoding="utf-8")
    assert "⋆" not in got  # vertical-branch terms suppressed


def test_tables_golden_latex(capsys):
    assert main(["tables", "--format", "latex"]) == 0
    got = capsys.readouterr().out
    assert got == (ROOT / "golden" / "tables.tex").read_text(encoding="utf-8")
    assert r"\rceil" in got


def test_tables_only_filter(capsys):
    assert main(["tables", "--only", "convolution"]) == 0
    out = capsys.readouterr().out
    assert "convolution" in out and "vertex" not in out


def test_entry_point_subprocess():
    proc = run_cli(["derive", "--input", "product", "--target", "<"])
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1] == "D^{<} = A^{<} B^{>}"


def test_verify_parallel_jobs_deterministic():
    a = run_cli(["verify", "--input", "product", "--grid", "8", "--seeds", "1"])
    b = run_cli(["verify", "--input", "product", "--grid", "8", "--seeds", "1", "--jobs", "2"])
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
