"""Tests of the benchmark's own logic; run with ``python3 -m pytest perfbench``."""

import hashlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run
import spans
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------------
# self time
# --------------------------------------------------------------------------

NESTED = [
    ("cli.main", 0.0, 10.0, -1),
    ("harness.run_suite", 1.0, 9.0, 0),
    ("exact_core.is_prime", 2.0, 3.0, 1),  # first sibling
    ("exact_core.padic_valuation", 4.0, 6.0, 1),  # second sibling
    ("exact_core.check_prime", 5.0, 5.5, 3),  # grandchild of run_suite
]


def test_self_time_of_nested_and_sibling_spans():
    assert spans.self_times(NESTED) == [2.0, 5.0, 1.0, 1.5, 0.5]


def test_layer_self_times_partition_the_root_span():
    by_layer = spans.self_by_layer(NESTED)
    assert by_layer == {"cli": 2.0, "harness": 5.0, "exact_core": 3.0}
    assert sum(by_layer.values()) == spans.root_time(NESTED) == 10.0


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------


def test_contract_check_rejects_one_changed_byte(monkeypatch):
    report = b'[\n  {\n    "case": "EQ0",\n    "p": 5\n  }\n]\n'
    monkeypatch.setattr(workloads, "CONTRACT_SHA256", hashlib.sha256(report).hexdigest())
    monkeypatch.setattr(workloads, "CONTRACT_BYTES", len(report))
    assert workloads.check_contract(report) == []
    changed = bytearray(report)
    changed[20] ^= 1
    assert workloads.check_contract(bytes(changed))
    assert workloads.check_contract(report + b"\n")


def _naive_eta_coeffs(n):
    """a_1..a_n of q prod (1-q^(2m))^4 (1-q^(4m))^4, one factor at a time."""
    poly = [0] * n  # poly[i] is the coefficient of q^(i+1)
    poly[0] = 1
    for step in (2, 4):
        for m in range(step, n, step):
            for _ in range(4):
                for i in range(n - 1, m - 1, -1):
                    poly[i] -= poly[i - m]
    return poly


def _coeff_lines(a):
    return "".join(f"{i} {x}\n" for i, x in enumerate(a, start=1)).encode()


@pytest.fixture(scope="module")
def eta_300():
    return _naive_eta_coeffs(300)


def test_coeffs_check_accepts_the_expansion(eta_300):
    assert workloads.check_coeffs(_coeff_lines(eta_300), 300) == []


@pytest.mark.parametrize("index", [1, 2, 7, 9, 15, 45, 289, 293])
def test_coeffs_check_rejects_one_corrupted_coefficient(eta_300, index):
    a = list(eta_300)
    # a small change, except for the prime 293 > 300/3, which only the
    # Deligne bound reaches
    a[index - 1] += 10**6 if index == 293 else 1
    assert workloads.check_coeffs(_coeff_lines(a), 300)


def test_coeffs_check_rejects_a_missing_line(eta_300):
    assert workloads.check_coeffs(_coeff_lines(eta_300[:-1]), 300)


def _sweep_records(pmin, pmax):
    records = []
    for tag, count in workloads.sweep_expected_counts(pmin, pmax).items():
        conjectural = tag in ("CONJ1", "THM4_STRONG", "COMCONJ2")
        records += [{"case": tag, "p": 5, "achieved": "3", "pass": True, "conjectural": conjectural}] * count
    return records


def test_sweep_expected_counts_default_window():
    assert sum(workloads.sweep_expected_counts(5, 499).values()) == 2731


def test_sweep_check_rejects_a_missing_record():
    expected = workloads.sweep_expected_counts(5, 31)
    records = _sweep_records(5, 31)
    assert workloads.check_sweep(json.dumps(records).encode(), expected) == []
    assert workloads.check_sweep(json.dumps(records[:-1]).encode(), expected)


def test_sweep_check_rejects_errors_and_wrong_verdicts_only():
    expected = workloads.sweep_expected_counts(5, 31)
    records = _sweep_records(5, 31)
    conjectural = next(i for i, r in enumerate(records) if r["conjectural"])
    plain = next(i for i, r in enumerate(records) if not r["conjectural"])
    failed_conjecture = [dict(r, **{"pass": False}) if i == conjectural else r for i, r in enumerate(records)]
    assert workloads.check_sweep(json.dumps(failed_conjecture).encode(), expected) == []
    wrong = [dict(r, **{"pass": False}) if i == plain else r for i, r in enumerate(records)]
    assert workloads.check_sweep(json.dumps(wrong).encode(), expected)
    error = [dict(r, achieved="error:BudgetError") if i == conjectural else r for i, r in enumerate(records)]
    assert workloads.check_sweep(json.dumps(error).encode(), expected)


def test_seed_picks_inputs_reproducibly():
    assert workloads.plan("scalar_sweep", 0).args == workloads.plan("scalar_sweep", 0).args
    assert workloads.plan("coeffs", 0).args[-1] == "10000"
    windows = {workloads.plan("scalar_sweep", s).args[4] for s in range(20)}
    assert len(windows) > 1 and all(5 <= int(p) <= 60 for p in windows)
    assert workloads.plan("contract", 7) == workloads.plan("contract", 0)


# --------------------------------------------------------------------------
# error accounting
# --------------------------------------------------------------------------


def _fake_program(tmp_path, code):
    """A stand-in for supercong: writes `code`'s output to the --out path."""
    script = tmp_path / "fake.py"
    script.write_text("import sys\nout = sys.argv[sys.argv.index('--out') + 1]\n" + code)
    return [sys.executable, str(script)]


@pytest.mark.parametrize(
    "code",
    [
        "open(out, 'w').write('1 1\\n')\nsys.exit(3)",  # right output, wrong exit code
        "open(out, 'w').write('1 2\\n')",  # wrong output
        "open(out, 'w').write('garbage')",  # malformed output
        "raise SystemExit(0)",  # no output
    ],
)
def test_a_failed_run_reports_problems(tmp_path, code):
    plan = workloads.Plan(("coeffs", "--n", "1"), 1, lambda data: workloads.check_coeffs(data, 1))
    result = run.run_workload(plan, _fake_program(tmp_path, code), None, tmp_path, "fake")
    assert result.problems


def test_a_good_run_reports_none(tmp_path):
    plan = workloads.Plan(("coeffs", "--n", "1"), 1, lambda data: workloads.check_coeffs(data, 1))
    result = run.run_workload(plan, _fake_program(tmp_path, "open(out, 'w').write('1 1\\n')"), None, tmp_path, "ok")
    assert result.problems == [] and result.child.wall_s > 0 and result.child.rss_mb > 0


# --------------------------------------------------------------------------
# the traced run and the metric list
# --------------------------------------------------------------------------


def test_traced_output_matches_untraced_and_every_alias_is_measured(tmp_path):
    env = run.child_env()
    args = ["verify", "--cases", "eq0,thm2,eq10_a2,whipple_4f3", "--pmin", "5", "--pmax", "13"]
    plain, traced, trace = tmp_path / "plain.json", tmp_path / "traced.json", tmp_path / "trace.json"
    subprocess.run([sys.executable, "-m", "supercong", *args, "--out", str(plain)], env=env, cwd=ROOT, check=True)
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace), "--", *args, "--out", str(traced)],
        env=env, cwd=ROOT, check=True,
    )
    assert plain.read_bytes() == traced.read_bytes()
    doc = json.loads(trace.read_text())
    span_list = tracer.load_spans(doc)
    metrics = tracer.layer_metrics(span_list, doc["counters"], len(traced.read_bytes()))
    # harness and hypergeometric import these by name; they are only seen if
    # those aliases were rebound
    assert metrics["exact_core.padic_valuation.calls"] > 0
    assert metrics["hypergeometric.eval_hyp_sum.calls"] > 0
    assert metrics["power_series.pochhammer.factors"] > 0
    assert metrics["modular_form.eta.expansions"] > 0
    assert metrics["harness.records"] == 4 * 3 + 50
    assert metrics["harness.case_s.EQ10_A2"] > 0
    assert [name for name, _start, _end, parent in span_list if parent < 0] == ["cli.main"]
    layer_total = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layer_total == pytest.approx(spans.root_time(span_list), rel=1e-9)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert Counter(m["name"] for m in spec["end_to_end"] + spec["per_layer"]).most_common(1)[0][1] == 1
