import ast
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from supercong import cli, hypergeometric
from supercong.cli import MAX_PMAX, _print_summary, main, render_csv, render_json, suite_exit_code
from supercong.harness import CASES, REPORT_KEYS, run_suite, verify_congruence_case
from supercong.modular_form import EXPANSION_CEILING, BudgetError


def _thm2_without_a_p(monkeypatch):
    # THM2 as a row whose every instance is an error record
    def no_a_p(p, _param):
        raise BudgetError(f"no a_{p} in this test")

    monkeypatch.setitem(CASES, "THM2", CASES["THM2"]._replace(compute=no_a_p))


def test_verify_single_case_small_range(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--cases", "eq0", "--pmin", "5", "--pmax", "7", "--out", str(out)])
    assert code == 0
    entries = json.loads(out.read_text())
    assert [e["case"] for e in entries] == ["EQ0", "EQ0"]
    assert [e["p"] for e in entries] == [5, 7]
    assert all(e["pass"] for e in entries)
    assert "EQ0" in capsys.readouterr().out


def test_verify_empty_applicable_set_warns(tmp_path, capsys):
    out = tmp_path / "empty.json"
    code = main(["verify", "--cases", "all", "--pmax", "4", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "warning: no applicable cases for primes in [5, 4]\n"
    assert json.loads(out.read_text()) == []


def test_verify_writes_exact_values_past_the_int_string_digit_limit(tmp_path, capsys):
    # THMKEY(3)'s lhs at p = 1949 has more than 4300 digits, CPython's default
    # limit on int-to-str conversion; rendering it raised ValueError and the
    # run exited 1 with no report
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        out = tmp_path / "thmkey.json"
        args = ["verify", "--cases", "thmkey", "--pmin", "1949", "--pmax", "1951", "--format", "json"]
        assert main([*args, "--out", str(out)]) == 0
        entries = {(e["p"], e["param"]): e for e in json.loads(out.read_text())}
        assert sorted(entries) == [(p, s) for p in (1949, 1951) for s in (1, 2, 3)]
        assert max(len(e["lhs"]) for e in entries.values()) > 2 * 4300
        for s in (1, 3):
            want = verify_congruence_case("THMKEY", 1949, s).lhs
            assert Fraction(entries[(1949, s)]["lhs"]) == want, s
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_verify_inverted_explicit_range_is_usage_error(capsys):
    assert main(["verify", "--pmin", "7", "--pmax", "5"]) == 2


def test_verify_unknown_case_is_usage_error():
    assert main(["verify", "--cases", "definitely_not_a_case"]) == 2


def test_verify_empty_case_selection_is_usage_error(tmp_path, capsys):
    for spelling in ("", ",", " , "):
        out = tmp_path / "never.json"
        assert main(["verify", "--cases", spelling, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --cases selects no case\n"
        assert not out.exists()


def test_verify_bad_flag_is_usage_error():
    assert main(["verify", "--pmin", "not_an_int"]) == 2
    assert main(["no_such_command"]) == 2
    assert main(["verify", "--r", "0"]) == 2
    assert main(["verify", "--pmax", "1000000000"]) == 2


def test_verify_r_beyond_caps_warns_on_stderr_only(tmp_path, capsys):
    def run(r):
        out = tmp_path / f"r{r}.json"
        args = ["verify", "--cases", "cai,eq0", "--pmin", "5", "--pmax", "7", "--r", str(r)]
        assert main(args + ["--out", str(out)]) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err, out.read_text()

    out2, err2, report2 = run(2)
    out3, err3, report3 = run(3)
    assert err2 == ""
    assert err3.splitlines() == [
        "warning: --r 3 exceeds the largest supported exponent; only r = 1, 2 run"
    ]
    assert (out3, report3) == (out2, report2)


def test_verify_hands_the_suite_only_the_supported_exponents(monkeypatch, capsys):
    # --r N runs r = 1, 2 only; the suite gets those two, not a range up to N
    seen = []

    def record_rs(primes, rs, cases):
        seen.append(rs)
        return []

    monkeypatch.setattr(cli, "run_suite", record_rs)
    assert main(["verify", "--cases", "eq0", "--pmin", "5", "--pmax", "7", "--r", str(10**9)]) == 0
    assert "only r = 1, 2 run" in capsys.readouterr().err
    main(["verify", "--cases", "eq0", "--pmin", "5", "--pmax", "7", "--r", "1"])
    assert [len(rs) for rs in seen] == [2, 1]  # a length, so that a range of 10**9 is never listed
    assert [list(rs) for rs in seen] == [[1, 2], [1]]


def test_verify_names_the_exponent_caps_that_cut_the_run_on_stderr(tmp_path, capsys):
    def run(r, pmax):
        out = tmp_path / f"r{r}-{pmax}.json"
        args = ["verify", "--cases", "eq0,cai,conj1", "--pmin", "17", "--pmax", str(pmax), "--r", str(r)]
        assert main(args + ["--out", str(out)]) == 0
        captured = capsys.readouterr()
        return captured.err, out.read_text()

    err, report = run(2, 37)
    assert err.splitlines() == ["warning: exponent caps skip the primes above them: CONJ1 r=2 p<=19, CAI r=2 p<=31"]
    assert report == render_json(run_suite([17, 19, 23, 29, 31, 37], rs=(1, 2), cases=["EQ0", "CAI", "CONJ1"]))
    assert run(2, 19)[0] == ""  # no prime above a cap
    assert run(1, 37)[0] == ""


def test_verify_report_json_roundtrips_byte_identically(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--cases", "thm3,thm4", "--pmin", "5", "--pmax", "13", "--out", str(out)]) == 0
    text = out.read_text()
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


def test_verify_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = main([
        "verify", "--cases", "eq0", "--pmin", "5", "--pmax", "5",
        "--out", str(out), "--format", "csv",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "case,p,param,required,achieved,lhs,rhs,pass,conjectural"
    assert lines[1] == "EQ0,5,0,v>=3,3,435/512,5,true,false"


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    # a failed (non-conjectural) THM2 record must flip the exit code
    _thm2_without_a_p(monkeypatch)
    code = main(["verify", "--cases", "thm2", "--pmin", "5", "--pmax", "5"])
    assert code == 1


def test_default_budget_covers_every_eta_read_up_to_the_largest_pmax():
    for case in CASES.values():
        if case.eta_index is None:
            continue
        for param, cap in (case.r_caps or dict.fromkeys(case.suite)).items():
            p = MAX_PMAX if cap is None else min(cap, MAX_PMAX)
            assert case.eta_index(p, param) <= EXPANSION_CEILING, (case.tag, param)


def test_verify_reads_a_p_beyond_ten_thousand_by_default(capsys):
    assert main(["verify", "--cases", "thm2", "--pmin", "9990", "--pmax", "10010"]) == 0
    assert capsys.readouterr().out == f"{'THM2':<18} 2/2 pass\n"


def test_summary_counts_pass_fail_and_error_per_case(tmp_path, monkeypatch, capsys):
    _thm2_without_a_p(monkeypatch)
    out = tmp_path / "report.json"
    code = main(["verify", "--cases", "eq0,thm2", "--pmin", "5", "--pmax", "97", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines == [f"{'EQ0':<18} 23/23 pass", f"{'THM2':<18} 0/23 pass, 23 error"]
    errors = captured.err.splitlines()
    assert len(errors) == 23
    assert errors[0] == "error: THM2 p=5 param=0: BudgetError: no a_5 in this test"
    assert all(": BudgetError: no a_" in line for line in errors)
    entries = json.loads(out.read_text())
    assert [e["achieved"] for e in entries if e["case"] == "THM2"] == ["error:BudgetError"] * 23

    records = run_suite([5, 7, 11], cases=["thm4_strong"])
    records[1] = records[1]._replace(passed=False)
    _print_summary(records)
    assert capsys.readouterr().out == f"{'THM4_STRONG':<18} 2/3 pass, 1 fail (conjectural)\n"


def test_verify_write_error_is_io_exit_code(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "report.json"
    code = main(["verify", "--cases", "eq0", "--pmin", "5", "--pmax", "5", "--out", str(target)])
    assert code == 3


def test_a_bug_has_its_own_exit_code_and_a_traceback(tmp_path, monkeypatch, capsys):
    # an exception that is no usage, I/O or domain error is a bug, not a
    # failed congruence (1): it exits 4, shows where it came from, and
    # leaves no report
    def broken(p, _param):
        raise RuntimeError(f"a bug at p = {p}")

    monkeypatch.setitem(CASES, "EQ0", CASES["EQ0"]._replace(compute=broken))
    out = tmp_path / "report.json"
    code = main(["verify", "--cases", "eq0", "--pmin", "5", "--pmax", "7", "--out", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: a bug at p = 5\n")
    assert "in broken" in err
    assert not out.exists()


def test_a_zero_division_in_the_identity_suite_is_a_bug(monkeypatch, capsys):
    # the suite's rejection sampling takes only a PoleError as a rejected draw
    def broken(tag, params):
        raise ZeroDivisionError(f"a bug in {tag}")

    monkeypatch.setattr(hypergeometric, "identity_sides", broken)
    hypergeometric.sample_identity_params.cache_clear()
    try:
        assert main(["verify", "--cases", "gessel_p544", "--pmin", "5", "--pmax", "5"]) == 4
    finally:
        hypergeometric.sample_identity_params.cache_clear()
    assert capsys.readouterr().err.endswith("ZeroDivisionError: a bug in GESSEL_P544\n")


def test_verify_warns_when_a_format_has_no_report_to_shape(capsys):
    args = ["verify", "--cases", "eq0", "--pmin", "5", "--pmax", "7"]
    assert main(args) == 0
    plain = capsys.readouterr()
    assert main([*args, "--format", "csv"]) == 0
    shaped = capsys.readouterr()
    assert plain.err == ""
    assert shaped.err == "warning: --format csv has no effect without --out\n"
    assert shaped.out == plain.out == f"{'EQ0':<18} 2/2 pass\n"


def test_coeffs_output(capsys):
    assert main(["coeffs", "--n", "9"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "3 -4" in out and "5 -2" in out and "7 24" in out
    assert out[0] == "1 1"
    assert len(out) == 9


def test_coeffs_single(capsys):
    assert main(["coeffs", "--n", "1"]) == 0
    assert capsys.readouterr().out == "1 1\n"


def test_coeffs_primes_only(capsys):
    assert main(["coeffs", "--n", "9", "--primes-only"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["2 0", "3 -4", "5 -2", "7 24"]


def test_coeffs_with_no_index_selected_writes_nothing(tmp_path, capsys):
    # --n 1 --primes-only selects no index: this printed one empty line
    assert main(["coeffs", "--n", "1", "--primes-only"]) == 0
    assert capsys.readouterr().out == ""
    out = tmp_path / "coeffs.txt"
    assert main(["coeffs", "--n", "1", "--primes-only", "--out", str(out)]) == 0
    assert out.read_bytes() == b""


def test_coeffs_rejects_nonpositive_bound():
    assert main(["coeffs", "--n", "0"]) == 2


def test_coeffs_obeys_the_eta_ceiling(capsys):
    assert main(["coeffs", "--n", str(EXPANSION_CEILING + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --n {EXPANSION_CEILING + 1} exceeds the eta expansion ceiling {EXPANSION_CEILING}\n"
    )


def test_coeffs_out_file(tmp_path):
    out = tmp_path / "coeffs.txt"
    assert main(["coeffs", "--n", "5", "--out", str(out)]) == 0
    assert out.read_text() == "1 1\n2 0\n3 -4\n4 0\n5 -2\n"


def test_exit_code_is_function_of_records():
    records = run_suite([5], cases=["EQ0", "CONJ1"])
    assert suite_exit_code(records) == 0
    eq0, conj1 = records
    assert not eq0.conjectural and conj1.conjectural
    assert suite_exit_code([eq0._replace(passed=False), conj1]) == 1
    assert suite_exit_code([eq0, conj1._replace(passed=False)]) == 0  # conjectural failures do not gate


def test_renderers_agree_on_rows():
    # conjectural and proved cases, congruence and exact ones: both booleans
    records = run_suite([5, 7, 11], cases=["EQ0", "THM4_STRONG", "LEMMA10"])
    entries = json.loads(render_json(records))
    header, *rows = csv.reader(io.StringIO(render_csv(records)))
    assert len(rows) == len(entries) == 9
    assert {entry["conjectural"] for entry in entries} == {True, False}
    for row, entry in zip(rows, entries):
        assert header == list(entry)
        assert dict(zip(header, row)) == {
            key: json.dumps(value) if isinstance(value, bool) else str(value) for key, value in entry.items()
        }
    assert render_csv([]) == ",".join(REPORT_KEYS) + "\n"


def test_module_invocation_subprocess(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "supercong", "verify", "--cases", "eq0,kilbourn",
         "--pmin", "5", "--pmax", "7", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(out.read_text())) == 4


def test_traced_run_writes_the_untraced_report(tmp_path):
    # perfbench's tracer wraps every public function of the layer modules,
    # power_series among them, reads .coeffs off each series sum, and sums
    # the self time of the identity functions, which must stay public; its
    # hooks count on the eight functions below, which must keep their names
    root = Path(__file__).resolve().parents[1]
    tags = ["EQ0", "THM2", "LEMMA10", "EQ10_A2", "SIX_F_FIVE_COEFFS", "LEM_THM1_B2K", "THM3_QUOTIENT_X2"]
    tags += ["WHIPPLE_4F3", "GOSPER_STRANGE"]
    cases = ",".join(tags).lower()
    args = ["verify", "--cases", cases, "--pmin", "5", "--pmax", "13"]
    untraced, traced, trace = tmp_path / "untraced.json", tmp_path / "traced.json", tmp_path / "trace.json"
    assert main([*args, "--out", str(untraced)]) == 0
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), str(trace), "--", *args, "--out", str(traced)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert traced.read_bytes() == untraced.read_bytes()
    doc = json.loads(trace.read_text())
    names = doc["names"]
    assert {"power_series.coefficient", "hypergeometric.eval_hyp_sum_series"} <= set(names)
    identity = {"identity_sides", "sample_identity_params"}
    assert {f"hypergeometric.{name}" for name in identity} <= set(names)
    hooked = {
        "exact_core.padic_valuation",
        "hypergeometric.eval_hyp_sum",
        "hypergeometric.eval_hyp_sum_series",
        "modular_form.eta_product_expansion",
        "harness.verify_congruence_case",
        "harness.verify_exact_case",
        "harness.verify_series_case",
        "harness.run_suite",
    }
    assert hooked <= set(names)
    assert {f"harness.case_s.{tag}" for tag in tags} <= set(doc["counters"])


def test_cli_imports_only_the_standard_library():
    # the runtime declares dependencies = []; a fresh interpreter shows what the CLI pulls in
    probe = (
        "import sys; before = set(sys.modules); import supercong.cli; "
        "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "supercong" in loaded
    assert [name for name in loaded if name != "supercong" and name not in sys.stdlib_module_names] == []
    # the records are tuples: no dataclasses, and none of the inspect, ast and dis it loads
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)


def test_no_module_reads_the_environment():
    # a setting read from the environment is an option the CLI does not show
    src = Path(__file__).resolve().parents[1] / "src" / "supercong"
    names = {"environ", "environb", "getenv", "getenvb"}
    reads = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            attribute = (
                isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "os"
            )
            imported = (
                isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(alias.name in names for alias in node.names)
            )
            if attribute or imported:
                reads.append(f"{path.relative_to(src)}:{node.lineno}")
    assert reads == []


def _module_level_names(stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class or a constant."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [target.id for target in stmt.targets if isinstance(target, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def test_every_module_level_definition_is_read_by_the_package():
    # code that only the tests use is deleted: every function, class and
    # constant of a module must be read by the package's own code, in its
    # module (not only by its own body) or through a relative import
    src = Path(__file__).resolve().parents[1] / "src" / "supercong"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    defined = {
        (module, name) for module, tree in trees.items() for stmt in tree.body for name in _module_level_names(stmt)
    }
    read = set()
    for module, tree in trees.items():
        imported, modules = {}, {}  # local name -> (module, name), local name -> module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[local] = alias.name
                    else:
                        imported[local] = (node.module, alias.name)
        for stmt in tree.body:
            own = set(_module_level_names(stmt))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if (module, node.id) in defined:
                        if node.id not in own:
                            read.add((module, node.id))
                    elif node.id in imported:
                        read.add(imported[node.id])
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if node.value.id in modules:
                        read.add((modules[node.value.id], node.attr))
    unread = sorted(f"{module}.{name}" for module, name in defined - read if not name.startswith("__"))
    assert unread == []
