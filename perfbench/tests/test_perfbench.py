"""Tests of the benchmark's oracles, output accounting and span arithmetic.

Run from the root of the repository: ``python -m pytest -q perfbench/tests``.
"""

import contextlib
import io
import json

import pytest

import run
import tracing
import workloads
from ltoeplitz import cli


def _dirs(tmp_path, *names):
    for name in names:
        (tmp_path / name).mkdir()


def _run_pass(commands, outdir, checker):
    for cmd in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(cmd.argv(outdir))
        checker.record(cmd, outdir, code)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_oracle_agrees_with_the_program_at_small_n(tmp_path, name):
    _dirs(tmp_path, "in", "out", "kept")
    commands = workloads.make_workload(name, 7, tmp_path / "in", scale="small")
    checker = run.Checker(tmp_path / "kept")
    _run_pass(commands, tmp_path / "out", checker)
    attempted, failed, errors, hashes = checker.finish()
    assert (attempted, failed, errors) == (len(commands), 0, [])
    assert sorted(hashes) == sorted(cmd.name for cmd in commands)


def _corrupt_value(path):
    data = json.loads(path.read_text())
    data["values"][3]["re"] += 1e-6
    path.write_text(json.dumps(data))


def test_corrupted_missing_or_wrong_exit_outputs_count_as_failed(tmp_path):
    _dirs(tmp_path, "in", "out", "kept")
    commands = workloads.make_workload("dense-io", 3, tmp_path / "in", scale="small")
    apply_cmd = next(cmd for cmd in commands if cmd.name == "apply_json")
    checker = run.Checker(tmp_path / "kept")
    _run_pass(commands, tmp_path / "out", checker)
    _run_pass(commands, tmp_path / "out", checker)
    _corrupt_value(tmp_path / "out" / apply_cmd.out)
    checker.record(apply_cmd, tmp_path / "out", 0)
    _run_pass([apply_cmd], tmp_path / "out", checker)
    checker.record(apply_cmd, tmp_path / "out", 1)
    csv_cmd = next(cmd for cmd in commands if cmd.name == "build_csv")
    (tmp_path / "out" / csv_cmd.out).unlink()
    checker.record(csv_cmd, tmp_path / "out", 0)

    attempted, failed, errors, _ = checker.finish()
    assert (attempted, failed) == (2 * len(commands) + 4, 3)
    assert any("apply: error" in e for e in errors)
    assert any("exit 1, expected 0" in e for e in errors)
    assert any(e.startswith("build_csv: FileNotFoundError") for e in errors)


def test_sawtooth_demo_exit_1_is_expected_and_growth_is_pinned(tmp_path):
    _dirs(tmp_path, "in", "out", "kept")
    commands = workloads.make_workload("spectral", 1, tmp_path / "in")
    saw = next(cmd for cmd in commands if cmd.name == "sawtooth")
    checker = run.Checker(tmp_path / "kept")
    _run_pass([saw], tmp_path / "out", checker)
    assert checker.finish()[:2] == (1, 0)
    assert checker.occurrences[0][1] == 1


def test_self_time_is_span_minus_children():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("output.leaf", lambda: sum(range(20000)))
    root = tracer.wrap("cli.root", lambda: [leaf() for _ in range(3)])
    root()
    (_, parent, start, end), *children = tracer.spans
    assert parent is None and [c[1] for c in children] == [0, 0, 0]
    leaf_total = sum(c[3] - c[2] for c in children)
    taken = tracer.take()
    assert taken["counts"] == {"output.leaf.calls": 3, "cli.root.calls": 1}
    assert taken["self_s"]["output.leaf"] == pytest.approx(leaf_total)
    assert taken["self_s"]["cli.root"] == pytest.approx(end - start - leaf_total)


def test_import_breakdown_reports_each_part():
    env = run.child_env(run.HERE.parent)
    parts = run.import_breakdown(env)
    assert set(parts) == {"setup.numpy_s", "setup.scipy_s", "setup.ltoeplitz_s"}
    assert all(v > 0 for v in parts.values())


@pytest.mark.parametrize("trace", [0, 1])
def test_a_run_reports_exactly_the_declared_metrics(tmp_path, trace):
    bench = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    _dirs(tmp_path, "in", "cold", "warm", "traced", "kept")
    commands = workloads.make_workload("quadrature", 5, tmp_path / "in", scale="small")
    checker = run.Checker(tmp_path / "kept")
    measure = run.traced_run if trace else run.timed_run
    with open(tmp_path / "log", "w") as log:
        metrics, _ = measure(commands, tmp_path, run.child_env(run.HERE.parent), 0.01, checker, log)
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert checker.finish()[1] == 0


def test_times_are_given_at_the_reference_speed(tmp_path, monkeypatch):
    python_seconds = run.python_seconds
    monkeypatch.setattr(run, "python_seconds", lambda code, env: (
        2 * run.REF_S if code == run.REF_CODE else python_seconds(code, env)))
    _dirs(tmp_path, "in", "cold", "kept")
    commands = workloads.make_workload("dense-io", 5, tmp_path / "in", scale="small")
    with open(tmp_path / "log", "w") as log:
        metrics, stats = run.timed_run(commands, tmp_path, run.child_env(run.HERE.parent), 0.01,
                                       run.Checker(tmp_path / "kept"), log)
    for name, raw in (("setup_s", "setup_s"), ("pass_s", "pass_total_s"), ("cpu_s", "pass_cpu_s")):
        assert metrics[name]["value"] == pytest.approx(stats[raw]["median"] / 2)
