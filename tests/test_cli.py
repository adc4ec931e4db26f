"""Command-line behaviour: exit codes, determinism, golden tables."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from contourcalc.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(args, hash_seed=None, **kw):
    # the child finds this checkout's package whether or not PYTHONPATH names it
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, "-m", "contourcalc.cli", *args],
        text=True,
        cwd=ROOT,
        env=env,
        **{"capture_output": True, **kw},
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


@pytest.mark.parametrize("command", ["derive", "verify"])
def test_unreadable_input_exit_1(tmp_path, capsys, command):
    binary = tmp_path / "latin1.ctr"
    binary.write_bytes(b"P[a,b] = int{} : A[a,b] # \xe9\n")
    cases = (
        (tmp_path / "missing.ctr", "No such file or directory"),
        (tmp_path, "Is a directory"),
        (binary, "can't decode byte 0xe9"),
    )
    for path, reason in cases:
        assert main([command, "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: ")
        assert reason in captured.err


@pytest.mark.parametrize("command", ["derive", "verify"])
def test_input_without_equation_exit_1(tmp_path, capsys, command):
    src = tmp_path / "comments.ctr"
    src.write_text("# only a comment\n\n# and another\n", encoding="utf-8")
    assert main([command, "--input", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no equation in {src}\n"


def test_derive_input_with_byte_order_mark(tmp_path, capsys):
    text = "D[a,b] = int{c} : A[a,c]*B[c,b]\n"
    plain, marked = tmp_path / "plain.ctr", tmp_path / "marked.ctr"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert main(["derive", "--input", str(plain)]) == 0
    want = capsys.readouterr()
    assert main(["derive", "--input", str(marked)]) == 0
    got = capsys.readouterr()
    assert got.out == want.out and got.err == want.err == ""
    assert got.out.splitlines()[0] == "# D[a,b] = int{c} : A[a,c] * B[c,b]"
    assert len(got.out.splitlines()) == 8


@pytest.mark.parametrize("args", [["derive", "--input", "vertex"], ["tables"]])
def test_closed_output_ends_quietly(args):
    # the reader closes the pipe before the first line is written
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_cli(args, capture_output=False, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_derive_corpus_file(capsys):
    corpus = ROOT / "perfbench" / "inputs" / "corpus.ctr"
    assert main(["derive", "--input", str(corpus), "--target", "M"]) == 0
    out = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert len(out) == 6  # one M rule per stanza
    assert out[0] == "D^{M} = ⋆{c} A^{M} B^{M}"


@pytest.mark.parametrize("spelling", ["1 2", "12", "ab", ">"])
def test_derive_names_a_target_by_its_catalog_spelling(capsys, spelling):
    assert main(["derive", "--input", "convolution", "--target", spelling]) == 0
    rule = capsys.readouterr().out.splitlines()[1]
    assert rule == "D^{>} = ∫{c} A^{>} B^{A} + ∫{c} A^{R} B^{>} + ⋆{c} A^{⌉} B^{⌈}"


def test_derive_keeps_a_spelling_the_catalog_lacks(tmp_path, capsys):
    # five externals have no catalog; R(1,32) is not the catalog's order
    five = tmp_path / "e.ctr"
    five.write_text("E[a,b,c,d,e] = int{} : F[a,b,c,d,e]\n", encoding="utf-8")
    assert main(["derive", "--input", str(five), "--target", "12345"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("E^{12345} = ")
    three = tmp_path / "x.ctr"
    three.write_text("X[a,b,c] = int{u,v} : A[a,u]*B[u,b]*C[u,v]*D[v,c]\n", encoding="utf-8")
    assert main([
        "derive", "--input", str(three), "--target", "R(1,32)", "--target", "R(a,bc)",
    ]) == 0
    rules = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(" = ")[0] for r in rules] == ["X^{R(1,32)}", "X^{R(1,23)}"]


def test_verify_json_names_a_target_by_its_catalog_spelling(capsys):
    outputs = []
    for spelling in ("1 2", "12", "ab", ">"):
        assert main([
            "verify", "--input", "convolution", "--target", spelling,
            "--grid", "6", "--seeds", "1", "--json",
        ]) == 0
        outputs.append(capsys.readouterr().out)
    records = [json.loads(line) for line in outputs[0].splitlines()]
    assert [r["target"] for r in records] == [">", ">"]
    # one target, one name: the same records, sampled times included
    assert outputs == [outputs[0]] * 4


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


def test_verify_three_horizontal_externals_exit_0(tmp_path, capsys):
    src = tmp_path / "x.ctr"
    src.write_text("X[a,b,c] = int{u,v} : A[a,u]*B[u,b]*C[u,v]*D[v,c]\n", encoding="utf-8")
    assert main([
        "verify", "--input", str(src), "--target", "R(1,23)",
        "--grid", "6", "--seeds", "1",
    ]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].startswith("PASS X^{R(1,23)} mode=symbolic seed=- max_error=0.000e+00")
    assert out[1].startswith("PASS X^{R(1,23)} mode=numeric seed=0")


def test_verify_bad_target_exit_1(capsys):
    # a target that does not fit the equation is a usage error, as in derive
    assert main(["verify", "--input", "convolution", "--target", "123"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: positions [3] out of range")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_nested_target_exit_1(tmp_path, capsys, jobs):
    # a composition target with a nested retarded set does not fit
    src = tmp_path / "x.ctr"
    src.write_text("X[a,b,c] = int{u,v} : A[a,u]*B[u,b]*C[u,v]*D[v,c]\n", encoding="utf-8")
    assert main([
        "verify", "--input", str(src), "--target", "R(1,R(2,3))", "--jobs", jobs,
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: composition targets must use flat retarded sets\n"


def test_derive_five_externals_default_targets_exit_1(tmp_path, capsys):
    # the default target list stops at four externals: a usage error
    src = tmp_path / "e.ctr"
    src.write_text("E[a,b,c,d,e] = int{} : F[a,b,c,d,e]\n", encoding="utf-8")
    assert main(["derive", "--input", str(src)]) == 1
    assert capsys.readouterr().err == "error: target enumeration is capped at 4 externals\n"


def test_verify_bad_grid_or_tolerance_exit_1(capsys):
    for option, value, message in (
        ("--grid", "2", "grid size must be at least 4"),
        ("--tol", "0", "tolerance must be positive"),
        # nan would fail a correct rule, inf pass any
        ("--tol", "nan", "tolerance must be finite"),
        ("--tol", "inf", "tolerance must be finite"),
    ):
        assert main(["verify", "--input", "convolution", option, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_verify_negative_seeds_or_jobs_exit_1(capsys):
    # a negative count would run no numeric check, or silently run serially
    for option, value, message in (
        ("--seeds", "-1", "seed count must not be negative"),
        ("--jobs", "-2", "job count must be at least 1"),
    ):
        assert main(["verify", "--input", "convolution", option, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    # no seeds is legal: the symbolic check alone
    assert main(["verify", "--input", "convolution", "--target", ">", "--seeds", "0"]) == 0
    assert capsys.readouterr().out.count("PASS") == 1


def test_verify_oracle_error_is_fail_record_exit_2(monkeypatch, capsys):
    # an oracle error on a seed (here no tie-free external times) fails
    # every numeric record with the cause, and the run ends with exit 2
    from contourcalc import oracle

    def no_times(*args, **kwargs):
        raise oracle.GridTieError("no tie-free external times")

    monkeypatch.setattr(oracle, "_sample_times", no_times)
    assert main([
        "verify", "--input", "convolution", "--target", ">", "--grid", "6", "--seeds", "2",
    ]) == 2
    numeric = [l for l in capsys.readouterr().out.splitlines() if "mode=numeric" in l]
    assert len(numeric) == 2
    for line in numeric:
        assert line.startswith("FAIL D^{>} mode=numeric")
        assert "max_error=inf" in line and "no tie-free external times" in line


def test_verify_json_is_strict_for_a_failing_rule(monkeypatch, capsys):
    # a failure with no error found (the symbolic record of a wrong rule, a
    # seed whose numeric check raised) writes max_error as null: Infinity
    # is not JSON
    from contourcalc import cli, oracle
    from contourcalc.ir import RealTimeExpression

    derive_rule = cli.derive_rule

    def not_json(constant):
        raise ValueError(f"{constant} is not JSON")

    def one_term_dropped(eq, target):
        return RealTimeExpression(derive_rule(eq, target).terms[1:])

    def no_times(*args, **kwargs):
        raise oracle.GridTieError("no tie-free external times")

    args = ["verify", "--input", "convolution", "--target", ">", "--grid", "6", "--seeds", "1"]
    monkeypatch.setattr(cli, "derive_rule", one_term_dropped)
    assert main(args + ["--json"]) == 2
    out = capsys.readouterr().out.splitlines()
    records = [json.loads(line, parse_constant=not_json) for line in out]
    assert [r["passed"] for r in records] == [False, False]
    assert records[0]["max_error"] is None and records[1]["max_error"] > 1e-8
    monkeypatch.setattr(oracle, "_sample_times", no_times)
    assert main(args + ["--json"]) == 2
    out = capsys.readouterr().out.splitlines()
    records = [json.loads(line, parse_constant=not_json) for line in out]
    assert [r["max_error"] for r in records] == [None, None]
    # the text output keeps inf
    assert main(args) == 2
    assert capsys.readouterr().out.count("max_error=inf") == 2


def test_verify_defaults_to_one_blas_thread(monkeypatch, capsys):
    # a value the user set wins over the default; set first, so that the
    # variable is restored however it was before the test
    args = ["verify", "--input", "convolution", "--target", ">", "--seeds", "0"]
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert main(args) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert main(args) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("command", ["derive", "verify"])
def test_name_with_two_arities_is_usage_error(command, tmp_path, capsys):
    # one sub-function name at two arities is an ill-formed equation, not a
    # failed rule: the parser refuses it, with the span of the second use
    src = tmp_path / "s.ctr"
    src.write_text("X[a,b] = int{u} : F[a,u]*F[u,b,a]\n", encoding="utf-8")
    assert main([command, "--input", str(src), "--target", ">"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ArityMismatch" in captured.err and "'F[u,b,a]'" in captured.err


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


def test_tables_only_rejects_structure_without_table(capsys):
    # chain3 is a corpus structure but in no table: a usage error, not an
    # empty listing
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--only", "chain3"])
    assert exc.value.code == 2
    assert "invalid choice: 'chain3'" in capsys.readouterr().err


def test_entry_point_subprocess():
    proc = run_cli(["derive", "--input", "product", "--target", "<"])
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1] == "D^{<} = A^{<} B^{>}"


def test_verify_parallel_jobs_deterministic():
    a = run_cli(["verify", "--input", "product", "--grid", "8", "--seeds", "1"])
    b = run_cli(["verify", "--input", "product", "--grid", "8", "--seeds", "1", "--jobs", "2"])
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize(
    "args, golden",
    [(["tables"], "tables.txt"), (["tables", "--contour", "keldysh"], "tables_keldysh.txt")],
)
def test_tables_independent_of_hash_seed(args, golden):
    # IR values hash by identity, so sets of them iterate in an order that
    # differs between processes; no output may follow it
    want = (ROOT / "golden" / golden).read_text(encoding="utf-8")
    for seed in ("0", "2"):
        proc = run_cli(args, hash_seed=seed)
        assert proc.returncode == 0
        assert proc.stdout == want, seed


def test_verify_parallel_jobs_independent_of_hash_seed():
    args = ["verify", "--input", "product", "--grid", "8", "--seeds", "1", "--jobs", "2", "--json"]
    runs = [run_cli(args, hash_seed=seed) for seed in ("0", "2")]
    assert all(proc.returncode == 0 for proc in runs)
    assert runs[0].stdout == runs[1].stdout and runs[0].stdout


_WITHOUT_NUMPY = """
import sys
from pathlib import Path
import contourcalc
from contourcalc import catalog, cli, compiler, oracle, parser
corpus = parser.parse_file(Path("perfbench/inputs/corpus.ctr").read_text(encoding="utf-8"))
eq = catalog.CORPUS["convolution"]()
for name in catalog.all_targets(eq):
    compiler.emit(compiler.derive_rule(eq, parser.parse_superindex(name, eq)))
cli.render_tables(cli.RunConfig("tables"))
symbolic = oracle.verify(eq, parser.parse_superindex(">", eq), seeds=())
loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
print(len(corpus), [r.passed for r in symbolic], loaded)
records = oracle.verify(eq, parser.parse_superindex(">", eq), seeds=range(1), grid_size=8)
print([r.passed for r in records], "numpy.linalg" in sys.modules)
"""


def test_compiler_never_loads_numpy():
    # parsing, deriving, emitting, the tables and a verdict with no seeds
    # run without NumPy; the numeric check loads it on its first call, in
    # the same interpreter
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY],
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        check=True,
    )
    assert proc.stdout.splitlines() == ["6 [True] []", "[True, True] True"]
