"""The benchmark's own tests: generator determinism, check sensitivity, smoke runs.

    python3 -m pytest perfbench/selftest.py -q

Kept out of the repository's test suite on purpose: the smoke runs train
the default 2M-bucket stance models and take a few minutes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402

SMOKE_SCALE = 0.05


@pytest.fixture(scope="module")
def workdir():
    path = run.WORK / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic(workload, workdir):
    a, b, c = (workdir / f"gen-{workload}-{tag}" for tag in "abc")
    truth = gen.generate(workload, 7, a, scale=SMOKE_SCALE)
    gen.generate(workload, 7, b, scale=SMOKE_SCALE)
    gen.generate(workload, 8, c, scale=SMOKE_SCALE)
    assert _files(a) == _files(b)
    assert _files(a)["corpus.jsonl"] != _files(c)["corpus.jsonl"]
    assert truth.corpus.planted_malformed > 0


def test_emoji_are_single_code_points_that_never_overlap():
    pool = gen.emoji_pool()
    assert len(pool) >= 750
    assert all(len(symbol) == 1 for symbol in pool)
    assert len(set(pool)) == len(pool)


# one way to break each stage's output; every check must notice it


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")


def _bump_csv_field(column: int, delta: float, row: int = 1):
    def edit(lines):
        cells = lines[row].split(",")
        cells[column] = repr(float(cells[column]) + delta)
        lines[row] = ",".join(cells)
        return lines
    return edit


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


CORRUPTIONS = {
    "filter": lambda out: _rewrite(out / "matched.jsonl", lambda lines: lines[:-1]),
    "sentiment": lambda out: _rewrite(out / "scored.csv", _bump_csv_field(2, 1e-9, row=3)),
    "timeseries_freq_day": lambda out: _rewrite(
        out / "volume_daily.csv",
        lambda lines: lines[:1] + [lines[1].split(",")[0] + f",{int(lines[1].split(',')[1]) + 1}"]
        + lines[2:]),
    "timeseries_sent_hour": lambda out: _rewrite(out / "sentiment_hourly.csv",
                                                 _bump_csv_field(1, 1e-9)),
    "timeseries_sent_day_ma7": lambda out: _rewrite(out / "sentiment_daily_ma7.csv",
                                                    _bump_csv_field(1, 1e-9, row=5)),
    "correlate": lambda out: _edit_json(out / "correlation.json",
                                        lambda d: d.update(r=d["r"] + 1e-6)),
    "train": lambda out: (out / "stance_model.bin").write_bytes(b""),
    "predict": lambda out: _rewrite(out / "labeled.jsonl", lambda lines: lines[1:]),
    "stance_series": lambda out: _rewrite(out / "stance_weekly.csv", _bump_csv_field(1, 0.01)),
    "expand_query": lambda out: _edit_json(
        out / "expansion.json",
        lambda d: d["rounds"][0].__setitem__(
            slice(None), [c for c in d["rounds"][0] if c["token"] != gen.COLLOCATE])),
    "annotate_sample": lambda out: _rewrite(out / "to_label.tsv",
                                            lambda lines: lines[:1] + lines[:-1]),
    "grid_search": lambda out: _edit_json(out / "grid.json",
                                          lambda d: d["test"].update(accuracy=0.1)),
}


@pytest.fixture(scope="module", params=sorted(gen.WORKLOADS))
def one_pass(request, workdir):
    work = workdir / f"pass-{request.param}"
    work.mkdir()
    runner = run.Runner(work / "stderr.log")
    try:
        bench = run.Bench(request.param, 3, SMOKE_SCALE, work, runner)
        assert bench.cli_pass(), bench.problems
    finally:
        runner.close()
    return bench


def test_checks_reject_corrupted_outputs(one_pass):
    stages = [name for name, _, _ in one_pass.stages]
    assert set(stages) <= set(CORRUPTIONS)
    for name in stages:
        broken = one_pass.work / f"broken-{name}"
        shutil.copytree(one_pass.out, broken)
        CORRUPTIONS[name](broken)
        problems = run.STAGE_CHECKS[name](one_pass.inputs, one_pass.ref, broken)
        assert problems, f"check for {name} accepted a corrupted output"


def test_failures_are_counted_and_read_nan(workdir):
    work = workdir / "failing"
    work.mkdir()
    runner = run.Runner(work / "stderr.log")
    try:
        bench = run.Bench("trend", 3, SMOKE_SCALE, work, runner)
        (bench.inp / "corpus.jsonl").unlink()
        (bench.inp / "lexicon.tsv").unlink()
        assert not bench.cli_pass()
        bench.setup_probe()
    finally:
        runner.close()
    metrics = bench.end_to_end()
    assert (bench.attempted, bench.failed) == (2, 2)
    assert math.isnan(metrics["wall_s"]) and math.isnan(metrics["setup_s"])
    assert metrics["ok_frac"] == 0.0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
            f"sys.exit(run.main(sys.argv[1:], scale={SMOKE_SCALE}))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_to_run_without_the_program(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trend", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
