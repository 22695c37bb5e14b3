"""Benchmark of the ``ltoep`` command-line tool.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-io --seed 1 --seconds 30 --trace 0

One client, closed loop: a fixed sequence of ``ltoep`` commands runs one
after another, each starting when the previous one has exited. The seed
generates every input before timing starts; the program under test is the
checkout's ``src/ltoeplitz``, run with one BLAS thread.

``--trace 0`` repeats, for ``--seconds``, a fresh import and a pass with one
fresh process per command, and reports

    setup_s      median wall time of a fresh ``python -c "import ltoeplitz.cli"``
    pass_s       median wall time of a pass, from spawning each command's
                 process to its exit, summed over the pass's commands
    cpu_s        median user + system CPU seconds of a pass
    peak_rss_mb  the largest per-command median ``ru_maxrss``

The speed of a shared host drifts by up to half within seconds and stays
changed for seconds to minutes, so a whole run can sit in a slow stretch.
A fixed reference process (``REF_CODE``: start Python, import numpy, do a
little work of the kinds the program does) is therefore timed just before
every import and every command, and the three times are given in seconds on
a host where that process takes ``REF_S``: an import is scaled by the
reference just before it, a pass by the mean of its commands' references.
The raw seconds are kept in the run record. All processes run on one CPU.

``--trace 1`` alternates warm passes (the same argv sequence through
``ltoeplitz.cli.main`` in a process that has already imported it) untraced
and traced, and reports ``warm_pass_s`` from the untraced ones, summed as
above, with the per-layer metrics of ``tracing.py``: self seconds per module
and per public function, call counts and computed work counts, the import
breakdown from ``python -X importtime``, and the tracing overhead
(traced minus untraced warm pass).

Every output is checked against an oracle in ``workloads.py``; a command with
a wrong exit code or a wrong output counts as failed. The last line of
stdout is the JSON result; the line before it is the run record, also kept
under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib.metadata import version
from pathlib import Path

import numpy as np

import workloads

BLAS_THREADS = 1
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 60
IMPORT_CODE = "import ltoeplitz.cli"
REF_CODE = ("import json, numpy as np; "
            "json.dumps([{'n': i, 're': i * 0.5} for i in range(8000)]); "
            "np.linalg.svd(np.ones((120, 120)))")
# Median seconds of the reference process on the 2-vCPU host the benchmark
# was written on; it only sets the scale of the reported seconds.
REF_S = 0.24

# Per-layer metrics from the traced passes: self seconds summed over spans.
SELF_METRICS = {
    "output.dumps_json.self_s": ["output.dumps_json"],
    "output.matrix_csv_text.self_s": ["output.matrix_csv_text"],
    "output.vector_csv_text.self_s": ["output.vector_csv_text"],
    "output.csv_text.self_s": ["output.csv_text"],
    "output.read_s": ["output.read_vector_csv", "output.read_matrix_csv"],
    "output.write_text.self_s": ["output.write_text"],
    "spectral.singular_values.self_s": ["spectral.singular_values"],
    "spectral.analyze.self_s": ["spectral.analyze"],
    "symbol.evaluate_on_grid.self_s": ["symbol.evaluate_on_grid"],
    "symbol.read_symbol_file.self_s": ["symbol.read_symbol_file"],
    "factorization.build_toeplitz.self_s": ["factorization.build_toeplitz"],
    "factorization.build_weighted_comp.self_s": ["factorization.build_weighted_comp"],
    "factorization.verify.self_s": [
        "factorization.verify_unitary_factorization",
        "factorization.verify_wco_sum",
        "factorization.verify_toeplitz_comp_factorization",
    ],
    "factorization.kernel_grid.self_s": [
        "factorization.build_kernel_grid",
        "factorization.build_kernel_grid_sampled_tau",
        "factorization.build_wco_kernel_grid",
    ],
    "operator.truncate.self_s": ["operator.truncate"],
    "operator.apply_fast.self_s": ["operator.apply_fast"],
    "operator.solve_recurrence.self_s": ["operator.solve_recurrence"],
}
LAYERS = ("cli", "output", "spectral", "symbol", "factorization", "operator")
COUNT_METRICS = {
    "output.bytes_written": "B",
    "spectral.singular_values.calls": "count",
    "spectral.svd_n3": "count",
    "symbol.evaluate_on_grid.calls": "count",
    "symbol.eval_terms": "count",
    "factorization.kernel_points": "count",
    "operator.truncate.calls": "count",
    "operator.dense_bytes": "B",
}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("LT_MEM_BUDGET_MB", None)
    return env


def summary(values) -> dict:
    quart = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": quart[0], "q3": quart[2],
            "samples": len(values)}


def digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


class Checker:
    """Counts commands and failures; checks each distinct output once.

    A pass's output is hashed as soon as the command ends. The first file
    with a new (command, exit code, sha256) is kept aside and checked against
    its oracle after timing, so identical outputs of later passes share the
    verdict and no check runs inside the timed window.
    """

    def __init__(self, store: Path):
        self.store = store
        self.occurrences: list[tuple] = []
        self.kept: dict[tuple, tuple] = {}

    def record(self, cmd: workloads.Command, outdir: Path, code: int) -> None:
        path = outdir / cmd.out
        key = (cmd.name, code, digest(path))
        self.occurrences.append(key)
        if key not in self.kept:
            kept = self.store / f"{len(self.kept)}-{cmd.out}"
            if path.exists():
                path.replace(kept)
            self.kept[key] = (cmd, kept)

    def finish(self) -> tuple[int, int, list[str], dict]:
        verdicts = {}
        for key, (cmd, kept) in self.kept.items():
            try:
                cmd.check(kept, key[1])
                verdicts[key] = None
            except (workloads.CheckFailed, OSError, KeyError, IndexError, TypeError,
                    ValueError) as exc:
                verdicts[key] = f"{cmd.name}: {type(exc).__name__}: {exc}"
        failed = [verdicts[k] for k in self.occurrences if verdicts[k]]
        hashes = defaultdict(list)
        for name, _, sha in self.kept:
            hashes[name].append(sha)
        return len(self.occurrences), len(failed), sorted(set(failed)), dict(hashes)


def cold_pass(commands, outdir: Path, env: dict, checker: Checker, log) -> dict:
    """One fresh process per command: wall and CPU seconds and peak RSS of
    each, and the reference process timed just before each."""
    for cmd in commands:
        (outdir / cmd.out).unlink(missing_ok=True)
    out = {"exits": [], "seconds": [], "cpu_s": [], "rss_mb": [], "ref_s": []}
    for cmd in commands:
        out["ref_s"].append(python_seconds(REF_CODE, env))
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ltoeplitz", *cmd.argv(outdir)],
                                stdout=subprocess.DEVNULL, stderr=log, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        out["seconds"].append(time.perf_counter() - start)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        out["exits"].append(proc.returncode)
        out["cpu_s"].append(usage.ru_utime + usage.ru_stime)
        out["rss_mb"].append(usage.ru_maxrss / 1024.0)
    for cmd, code in zip(commands, out["exits"]):
        checker.record(cmd, outdir, code)
    return out


class Worker:
    """A ``worker.py`` process that runs warm passes on request."""

    def __init__(self, env: dict, trace: bool, log):
        argv = [sys.executable, str(HERE / "worker.py")] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=log, env=env, text=True)

    def run(self, commands, outdir: Path, checker: Checker) -> dict:
        for cmd in commands:
            (outdir / cmd.out).unlink(missing_ok=True)
        self.proc.stdin.write(json.dumps([cmd.argv(outdir) for cmd in commands]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        reply = json.loads(line)
        for cmd, code in zip(commands, reply["exits"]):
            checker.record(cmd, outdir, code)
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def python_seconds(code: str, env: dict) -> float:
    """Wall seconds of a fresh ``python -c code``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - start


def import_breakdown(env: dict) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and ltoeplitz's own code (with the
    stdlib modules it pulls in), from ``python -X importtime``."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ltoeplitz.cli"],
                         env=env, check=True, capture_output=True, text=True).stderr
    entries = []
    for line in err.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)", line)
        if m:
            entries.append((len(m.group(2)) // 2, m.group(3), int(m.group(1)) * 1e-6))
    totals = defaultdict(float)
    stack: list[str] = []
    for level, name, cumulative in reversed(entries):  # parents now precede children
        del stack[level:]
        top = name.split(".")[0]
        # numpy submodules that scipy imports count as scipy's cost
        outermost = top not in stack and not ({"numpy", "scipy"} & set(stack))
        if top in ("numpy", "scipy", "ltoeplitz") and outermost:
            totals[top] += cumulative
        stack.append(top)
    return {
        "setup.numpy_s": totals["numpy"],
        "setup.scipy_s": totals["scipy"],
        "setup.ltoeplitz_s": totals["ltoeplitz"] - totals["numpy"] - totals["scipy"],
    }


def measure(seconds: float, *steps) -> None:
    """Run the steps for ``seconds``, each time the one with the least time so far.

    Each kind of sample gets an equal share of the window, however long one
    step takes. Every step runs at least once; after that, the loop stops
    when the chosen step would, at its last duration, end after the window.
    """
    deadline = time.perf_counter() + seconds
    spent = [0.0] * len(steps)
    last = [0.0] * len(steps)
    while True:
        i = spent.index(min(spent))
        if spent[i] and time.perf_counter() + last[i] > deadline:
            return
        start = time.perf_counter()
        steps[i]()
        last[i] = time.perf_counter() - start
        spent[i] += last[i]


def per_command(passes, key) -> list[float]:
    """Each command's median over the passes."""
    return [statistics.median(col) for col in zip(*(p[key] for p in passes))]


def timed_run(commands, work: Path, env: dict, seconds: float, checker: Checker, log):
    python_seconds(IMPORT_CODE, env)  # untimed: byte-compiles the package on a new checkout
    setup, setup_ref = [], []

    def import_once():
        setup_ref.append(python_seconds(REF_CODE, env))
        setup.append(python_seconds(IMPORT_CODE, env))

    for _ in range(SETUP_REPEATS):
        import_once()
    cold = []
    measure(seconds, lambda: (import_once(),
                              cold.append(cold_pass(commands, work / "cold", env, checker, log))))

    def at_ref_speed(key):
        return statistics.median(sum(p[key]) / statistics.fmean(p["ref_s"]) for p in cold) * REF_S

    # The median pass: a burst of load from elsewhere on the machine then
    # moves one sample, not the figure.
    values = {
        "setup_s": (statistics.median(t / r for t, r in zip(setup, setup_ref)) * REF_S, "s"),
        "pass_s": (at_ref_speed("seconds"), "s"),
        "cpu_s": (at_ref_speed("cpu_s"), "s"),
        "peak_rss_mb": (max(per_command(cold, "rss_mb")), "MB"),
    }
    metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}
    stats = {
        "samples": {"setup_s": len(setup), "passes": len(cold)},
        "setup_s": summary(setup),
        "setup_reference_s": summary(setup_ref),
        "pass_total_s": summary([sum(p["seconds"]) for p in cold]),
        "pass_cpu_s": summary([sum(p["cpu_s"]) for p in cold]),
        "pass_reference_s": summary([sum(p["ref_s"]) for p in cold]),
        "per_command": {
            cmd.name: {key: summary([p[key][i] for p in cold])
                       for key in ("seconds", "cpu_s", "rss_mb", "ref_s")}
            for i, cmd in enumerate(commands)
        },
    }
    return metrics, stats


def traced_run(commands, work: Path, env: dict, seconds: float, checker: Checker, log):
    setup = [import_breakdown(env) for _ in range(SETUP_REPEATS)]
    plain_dir, traced_dir = work / "warm", work / "traced"
    plain, traced = [], []
    workers = [Worker(env, False, log), Worker(env, True, log)]
    try:
        for w in workers:
            w.run([], plain_dir, checker)
        measure(
            seconds,
            lambda: plain.append(workers[0].run(commands, plain_dir, checker)),
            lambda: traced.append(workers[1].run(commands, traced_dir, checker)),
        )
    finally:
        for w in workers:
            w.close()
    per_pass = defaultdict(list)
    for p in traced:
        for metric, spans in SELF_METRICS.items():
            per_pass[metric].append(sum(p["self_s"].get(s, 0.0) for s in spans))
        for layer in LAYERS:
            per_pass[f"{layer}.self_s"].append(
                sum(v for s, v in p["self_s"].items() if s.startswith(layer + ".")))
        per_pass["trace.unaccounted_s"].append(sum(p["seconds"]) - sum(p["self_s"].values()))
    for key in setup[0]:
        per_pass[key] = [s[key] for s in setup]
    metrics = {k: {"value": statistics.median(v), "unit": "s"} for k, v in per_pass.items()}
    traced_s, plain_s = sum(per_command(traced, "seconds")), sum(per_command(plain, "seconds"))
    metrics["warm_pass_s"] = {"value": plain_s, "unit": "s"}
    metrics["trace.pass_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
    counts = [p["counts"] for p in traced]
    for name, unit in COUNT_METRICS.items():
        metrics[name] = {"value": counts[-1].get(name, 0), "unit": unit}
    stats = {k: summary(v) for k, v in per_pass.items()}
    stats.update(passes=len(traced), counts_repeat_exactly=all(c == counts[0] for c in counts))
    return metrics, stats


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_record(args, root: Path, nproc: int) -> dict:
    if BLAS_THREADS > len(os.sched_getaffinity(0)):
        raise RuntimeError(f"BLAS thread count {BLAS_THREADS} exceeds the CPUs used")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc, "cpus_used": sorted(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}", "commit": git_commit(root),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ltoeplitz" / "cli.py").is_file():
        print(f"error: no src/ltoeplitz under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    base = root / ".perfbench_work"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("inputs", "cold", "warm", "traced", "kept"):
        (work / sub).mkdir(parents=True)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # children inherit it
    record = run_record(args, root, len(cpus))
    env = child_env(root)
    try:
        with open(base / f"stderr-{work.name}.log", "w") as log:
            commands = workloads.make_workload(args.workload, args.seed, work / "inputs")
            checker = Checker(work / "kept")
            run = traced_run if args.trace else timed_run
            metrics, stats = run(commands, work, env, args.seconds, checker, log)
        attempted, failed, errors, hashes = checker.finish()
        record.update(stats=stats, errors=errors, sha256=hashes)
        (base / f"record-{work.name}.json").write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
