"""Benchmark of the supercong verifier, run from the root of a checkout::

    python3 perfbench/run.py --workload contract --seed 0 --seconds 30 --trace 0

Each workload (see ``workloads.py``) runs as fresh ``python -m supercong``
processes, one after another, with ``src`` of this checkout on PYTHONPATH.
Every run's output is checked; a run that crashes, times out, exits with a
code other than 0 or fails a check counts all of its operations as failed.

``--trace 0`` reports the end-to-end metrics: the medians over the runs made
in ``--seconds`` (at least three) of wall time, CPU time and peak RSS of one
process, and the median of several fresh imports of ``supercong.cli``.
``--trace 1`` alternates untraced runs with runs under ``tracer.py`` and
reports the per-layer metrics of the traced runs, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for people, with the error share and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics, with their units.
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: Fewest workload runs a measurement makes, whatever --seconds says.
MIN_RUNS = 3
#: Fresh imports timed for setup_s before each workload run, so that they
#: meet the same state of a shared host as the runs they sit between.
IMPORTS_PER_RUN = 3
#: A child still running after this long is killed and its run fails.
CHILD_TIMEOUT_S = 100.0


@dataclass
class Child:
    """Resource use of one finished child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    timed_out: bool


@dataclass
class Run:
    """One workload process: its resource use, output and the problems found."""

    child: Child
    output: bytes | None
    problems: list[str] = field(default_factory=list)


def spawn(cmd, env, log_path: Path) -> Child:
    """Run cmd to its end with stdout and stderr in log_path; time it and
    read its resource use from wait4."""
    timed_out = threading.Event()
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log, stderr=log)

        def kill():
            # the main thread reaps the child, so its pid cannot be reused here
            timed_out.set()
            os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            timer.cancel()
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        wall = time.perf_counter() - start
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        exit_code=proc.returncode,
        timed_out=timed_out.is_set(),
    )


def child_env() -> dict[str, str]:
    """The inherited environment, minus settings that change what supercong
    computes or how Python starts, with this checkout's ``src`` on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "SUPERCONG_BUDGET"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def probe(env) -> str | None:
    """Import supercong once, which also fills the bytecode cache; return why
    it is unusable, or None."""
    expected = ROOT / "src" / "supercong" / "cli.py"
    if not expected.is_file():
        return f"{expected.relative_to(ROOT)} is missing; run from a checkout of the repository"
    done = subprocess.run(
        [sys.executable, "-c", "import supercong.cli; print(supercong.cli.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        return f"cannot import supercong.cli:\n{done.stderr}"
    if Path(done.stdout.strip()).resolve() != expected.resolve():
        return f"supercong.cli resolves to {done.stdout.strip()}, not to this checkout"
    return None


def run_workload(plan: workloads.Plan, prefix, env, tmp: Path, name: str) -> Run:
    out = tmp / f"{name}.out"
    log = tmp / f"{name}.log"
    child = spawn([*prefix, *plan.args, "--out", str(out)], env, log)
    run = Run(child, out.read_bytes() if out.exists() else None)
    if child.timed_out:
        run.problems.append(f"killed after {CHILD_TIMEOUT_S} s")
    elif child.exit_code != 0:
        run.problems.append(f"exit code {child.exit_code}")
    if run.output is None:
        run.problems.append("no output file")
    else:
        try:
            run.problems += plan.check(run.output)
        except Exception as exc:  # malformed output: report it as a failed check
            run.problems.append(f"output check raised {exc!r}")
    if run.problems:
        tail = log.read_bytes()[-2000:].decode("utf-8", "replace")
        print(f"{name}: " + "; ".join(run.problems) + f"\n--- end of its output ---\n{tail}", file=sys.stderr)
    out.unlink(missing_ok=True)
    return run


def repeat(seconds: float, minimum: int, step) -> list:
    """Call step(i), which returns ``(runs, extra)``, until one more call would
    end after ``seconds``, at least ``minimum`` times; stop at the first call
    with a failed run."""
    results = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        result = step(len(results))
        results.append(result)
        last = time.perf_counter() - t
        if any(run.problems for run in result[0]):
            return results
        if len(results) >= minimum and time.perf_counter() - start + last > seconds:
            return results


def src_digest() -> str:
    """sha256 over the paths and bytes of the files under src, which names the
    code measured where there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(p for p in (ROOT / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def time_import(env, tmp) -> float:
    child = spawn([sys.executable, "-c", "import supercong.cli"], env, tmp / "import.log")
    if child.exit_code != 0:
        raise RuntimeError(f"import of supercong.cli exited with {child.exit_code}")
    return child.wall_s


def measure_end_to_end(plan, env, tmp, seconds) -> tuple[list[Run], dict]:
    setup = []
    prefix = [sys.executable, "-m", "supercong"]

    def step(i):
        setup.extend(time_import(env, tmp) for _ in range(IMPORTS_PER_RUN))
        return [run_workload(plan, prefix, env, tmp, f"run{i}")], None

    runs = [run for (run,), _ in repeat(seconds, MIN_RUNS, step)]
    children = [r.child for r in runs]
    metrics = {
        "wall_s": statistics.median(c.wall_s for c in children),
        "cpu_s": statistics.median(c.cpu_s for c in children),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(c.rss_mb for c in children),
    }
    print(f"# {len(runs)} runs, wall_s " + " ".join(f"{c.wall_s:.3f}" for c in children)
          + f"; {len(setup)} imports, setup_s " + " ".join(f"{s:.3f}" for s in setup))
    return runs, metrics


def traced_pair(plan, env, tmp, i) -> tuple[list[Run], dict | None]:
    plain = run_workload(plan, [sys.executable, "-m", "supercong"], env, tmp, f"plain{i}")
    trace_path = tmp / f"trace{i}.json"
    traced = run_workload(plan, [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--"], env, tmp, f"traced{i}")
    if plain.output is not None and traced.output is not None and plain.output != traced.output:
        traced.problems.append("traced output differs from the untraced output")
        print(f"traced{i}: output differs from the untraced run", file=sys.stderr)
    metrics = None
    if not traced.problems:
        doc = json.loads(trace_path.read_text())
        span_list = tracer.load_spans(doc)
        metrics = tracer.layer_metrics(span_list, doc["counters"], len(traced.output))
        in_process = spans.root_time(span_list)
        layer_total = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
        print(f"# traced run {i}: in-process {in_process:.4f} s, sum of layer self_s {layer_total:.4f} s, "
              f"wall {traced.child.wall_s:.4f} s traced vs {plain.child.wall_s:.4f} s untraced")
    trace_path.unlink(missing_ok=True)
    return [plain, traced], metrics


def measure_layers(plan, env, tmp, seconds) -> tuple[list[Run], dict]:
    pairs = repeat(seconds, 1, lambda i: traced_pair(plan, env, tmp, i))
    per_run = [m for _runs, m in pairs if m is not None]
    metrics = {name: 0 for name, _unit in tracer.PER_LAYER}
    if per_run:
        metrics.update({name: statistics.median(m[name] for m in per_run) for name in per_run[0]})
    plain_wall = statistics.median(runs[0].child.wall_s for runs, _m in pairs)
    traced_wall = statistics.median(runs[1].child.wall_s for runs, _m in pairs)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return [run for runs, _m in pairs for run in runs], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = child_env()
    problem = probe(env)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    plan = workloads.plan(args.workload, args.seed)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.trace:
            runs, values = measure_layers(plan, env, tmp, args.seconds)
            units = dict(tracer.PER_LAYER)
        else:
            runs, values = measure_end_to_end(plan, env, tmp, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = plan.operations * len(runs)
    failed = plan.operations * sum(1 for r in runs if r.problems)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}; nproc {len(os.sched_getaffinity(0))}, "
          f"CPython {sys.version.split()[0]}, commit {commit()}, src sha256 {src_digest()}")
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(f"error_share {failed / attempted} ratio ({failed} of {attempted} operations failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
