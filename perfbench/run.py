"""Benchmark of the opinionpulse CLI chains; see README.md in this directory.

    python3 perfbench/run.py --workload trend --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed, runs its chain of
``opinionpulse`` commands as separate processes, one at a time, for about
``--seconds`` seconds (at least three passes), checks every output
against the benchmark's own reference computations, and prints one JSON
object as the last line of standard output. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` adds an in-process run of the same chain,
untraced and traced, and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import chains  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES_PER_PASS = 1
STARTUP_SAMPLES = 6
MIN_TRACE_PAIRS = 3
STAGE_CPU_LIMIT_S = 120
CLI_CODE = "from opinionpulse.cli import entrypoint; entrypoint()"
SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import opinionpulse.cli
t1 = time.perf_counter()
{loads}
t2 = time.perf_counter()
print(json.dumps({{"import_s": t1 - t0, "setup_s": t2 - t0}}))
"""

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "output_mb": "MiB",
                    "ok_frac": "frac"}

STAGE_CHECKS = {
    "filter": checks.check_filter,
    "sentiment": checks.check_sentiment,
    "timeseries_freq_day": checks.check_frequency,
    "timeseries_sent_hour": checks.check_hourly,
    "timeseries_sent_day_ma7": checks.check_daily_ma7,
    "correlate": checks.check_correlate,
    "train": checks.check_train,
    "predict": checks.check_predict,
    "stance_series": checks.check_stance_series,
    "expand_query": checks.check_expand_query,
    "annotate_sample": checks.check_annotate_sample,
    "grid_search": checks.check_grid_search,
}
# too large to hash every pass; predict's output depends on every byte of it
SIZE_ONLY = {"stance_model.bin"}


# Runs in its own small interpreter and starts every measured process. A
# child's ru_maxrss also counts the pages of the process it was forked from,
# so forking from the benchmark (which holds the inputs and references)
# would inflate every stage's peak RSS.
SPAWNER = """\
import json, os, resource, subprocess, sys, time
def limit():
    resource.setrlimit(resource.RLIMIT_CPU, ({cpu}, {cpu}))
for request in sys.stdin:
    argv, log, capture = json.loads(request)
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stderr=err,
                                stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                                preexec_fn=limit)
        text = proc.stdout.read().decode() if capture else ""
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    if capture:
        proc.stdout.close()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_maxrss / 1024, code, text]), flush=True)
"""


class Runner:
    """Runs program processes one at a time and reports wall time and their own peak RSS."""

    def __init__(self, log: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.log = log
        self.spawner = subprocess.Popen(
            [sys.executable, "-c", SPAWNER.format(cpu=STAGE_CPU_LIMIT_S)], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, code: str, args: list[str], capture: bool = False):
        """(wall seconds, peak RSS MiB, exit code, stdout text) of one process."""
        request = [[sys.executable, "-c", code, *args], str(self.log), capture]
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the process spawner exited")
        return tuple(json.loads(reply))

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()


def _digest(path: Path) -> str:
    if path.name in SIZE_ONLY:
        return str(path.stat().st_size)
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def _median(values):
    """Median, or NaN when nothing was measured (a failed run must not read as a best value)."""
    return statistics.median(values) if values else math.nan


class Bench:
    """One run: the generated inputs, their references, and what the passes measured."""

    def __init__(self, workload: str, seed: int, scale: float, work: Path, runner: Runner):
        self.workload, self.seed = workload, seed
        self.work = work
        self.inp, self.out = work / "in", work / "cli"
        self.out.mkdir(parents=True)
        t0 = perf_counter()
        self.inputs = gen.generate(workload, seed, self.inp, scale)
        self.ref = checks.TrendReference(self.inputs) if workload == "trend" else None
        self.gen_s = perf_counter() - t0
        self.runner = runner
        self.stages = chains.cli_stages(workload, self.inp, self.out, checks.annotate_n(self.inputs)
                                        if workload == "curate" else 0)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests: dict = {}
        self.passes: list[dict] = []
        self.setup: list[dict] = []
        self.startup: list[float] = []
        self.pairs: list[tuple] = []  # (untraced, traced) in-process wall seconds

    # -- CLI chain ---------------------------------------------------------

    def cli_pass(self) -> bool:
        """One pass of the chain; returns False once anything failed."""
        results = {}
        for name, argv, _ in self.stages:
            self.attempted += 1
            wall, rss, code, _ = self.runner.run(CLI_CODE, argv)
            results[name] = (wall, rss)
            if code != 0:
                self.failed += 1
                self.problems.append(f"{name} exited {code}; see {self.runner.log.name}")
                return False
        for name, _, outputs in self.stages:
            problems = self._verify(name, outputs)
            if problems:
                self.failed += 1
                self.problems.extend(f"{name}: {p}" for p in problems)
        output_bytes = sum(p.stat().st_size for p in self.out.iterdir())
        self.passes.append({
            "wall_s": sum(wall for wall, _ in results.values()),
            "peak_rss_mb": max(rss for _, rss in results.values()),
            "output_mb": output_bytes / 2**20,
            "stages": results,
        })
        return not self.problems

    def _verify(self, name: str, outputs: list[str]) -> list[str]:
        missing = [f for f in outputs if not (self.out / f).is_file()]
        if missing:
            return [f"missing output {', '.join(missing)}"]
        digests = {f: _digest(self.out / f) for f in outputs}
        if name in self.digests:  # outputs are deterministic: later passes match the first
            return [] if digests == self.digests[name] else ["output differs from the first pass"]
        self.digests[name] = digests
        return STAGE_CHECKS[name](self.inputs, self.ref, self.out)

    def setup_probe(self) -> None:
        code = SETUP_CODE.format(loads=chains.SETUP_LOADS[self.workload])
        arg = chains.setup_arg(self.workload, self.inp, self.out)
        self.attempted += 1
        _, _, status, text = self.runner.run(code, [arg], capture=True)
        if status != 0:
            self.failed += 1
            self.problems.append(f"setup probe exited {status}")
            return
        self.setup.append(json.loads(text.strip().splitlines()[-1]))

    def startup_probes(self, samples: int) -> None:
        """Wall time of a fresh ``opinionpulse --help``: the start-up every stage pays."""
        for _ in range(samples):
            self.attempted += 1
            wall, _, status, _ = self.runner.run(CLI_CODE, ["--help"])
            if status != 0:
                self.failed += 1
                self.problems.append(f"start-up probe exited {status}")
                return
            self.startup.append(wall)

    def run_cli(self, budget: float, min_passes: int) -> None:
        self.runner.run("import opinionpulse.cli", [])  # compile bytecode before timing
        start = perf_counter()
        while len(self.passes) < min_passes or perf_counter() - start < budget:
            if not self.cli_pass():
                break
            for _ in range(SETUP_SAMPLES_PER_PASS):
                self.setup_probe()

    def end_to_end(self) -> dict:
        ok = (self.attempted - self.failed) / self.attempted if self.attempted else 0.0
        return {
            "wall_s": _median([p["wall_s"] for p in self.passes]),
            "setup_s": _median([s["setup_s"] for s in self.setup]),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in self.passes]),
            "output_mb": _median([p["output_mb"] for p in self.passes]),
            "ok_frac": ok,
        }

    # -- in-process chain --------------------------------------------------

    def run_in_process(self, budget: float) -> dict:
        """Per-layer metrics from pairs of untraced and traced in-process chain passes."""
        # the CLI's stderr already shows the rejected-line warnings
        logging.getLogger("opinionpulse").addHandler(logging.NullHandler())
        op = chains.load_program()
        out = self.work / "ip"
        out.mkdir()
        tracer = Tracer()
        layer_runs = []
        start = perf_counter()
        # an untimed first pass pays this process's one-time costs (first
        # imports and allocations), which would otherwise fall on one side
        _, facts = self._in_process_pass(op, None, out)
        while facts is not None and (len(self.pairs) < MIN_TRACE_PAIRS
                                     or perf_counter() - start < budget):
            # the pair's order alternates, so a host that speeds up or slows
            # down during a run biases neither side
            order = (False, True) if len(self.pairs) % 2 == 0 else (True, False)
            wall = {}
            for traced in order:
                wall[traced], facts = self._in_process_pass(op, tracer if traced else None, out)
                if facts is None:
                    break
                if traced:
                    layer_runs.append(layer_metrics(tracer.in_trace(tracer.trace), facts))
            if facts is None:
                break
            self.pairs.append((wall[False], wall[True]))
        tracer.dump(WORK / f"trace-{self.workload}-{self.seed}.json")
        metrics = {name: _median([run.get(name, 0.0) for run in layer_runs])
                   for name in LAYER_UNITS if "." in name and not name.startswith(("cli.", "bench."))}
        metrics["bench.trace_overhead_frac"] = _median([t / p - 1 for p, t in self.pairs])
        return metrics

    def _in_process_pass(self, op, tracer, out: Path):
        """(wall seconds, facts) of one in-process chain pass; traced when ``tracer`` is given."""
        chain = chains.IN_PROCESS[self.workload]
        if tracer is None:
            t0 = perf_counter()
            facts = self._guarded(chain, op, NullTracer(), out)
            return perf_counter() - t0, facts
        tracer.trace += 1
        chains.instrument(tracer, op)
        try:
            t0 = perf_counter()
            facts = self._guarded(chain, op, tracer, out)
            wall = perf_counter() - t0
            if facts is not None and self.workload == "trend":
                chains.score_toy(op, tracer, out)
        finally:
            tracer.unpatch()
        return wall, facts

    def _guarded(self, chain, op, tracer, out: Path):
        self.attempted += 1
        try:
            facts = chain(op, tracer, self.inputs, self.inp, out)
        except Exception as exc:  # a crash in one pass is a failed attempt, reported below
            self.failed += 1
            self.problems.append(f"in-process {self.workload} chain raised {exc!r}")
            return None
        problems = check_facts(self.workload, self.inputs, self.ref, facts)
        if problems:
            self.failed += 1
            self.problems.extend(f"in-process: {p}" for p in problems)
        return facts

    def cli_layer(self) -> dict:
        metrics = {}
        mine = {name for name, _, _ in self.stages}
        for stage in chains.ALL_STAGES:
            if stage in mine:
                metrics[f"cli.{stage}_s"] = _median([p["stages"][stage][0] for p in self.passes])
                metrics[f"cli.{stage}_peak_rss_mb"] = _median([p["stages"][stage][1]
                                                               for p in self.passes])
            else:  # a stage of another workload
                metrics[f"cli.{stage}_s"] = metrics[f"cli.{stage}_peak_rss_mb"] = 0.0
        metrics["cli.import_s"] = _median([s["import_s"] for s in self.setup])
        metrics["cli.self_s"] = len(self.stages) * _median(self.startup)
        return metrics


def check_facts(workload: str, inputs, ref, facts: dict) -> list[str]:
    """The in-process chain must agree with the same references as the CLI."""
    planted = inputs.corpus.planted_malformed
    problems = []
    if facts.get("rejected") != planted:
        problems.append(f"rejected {facts.get('rejected')} lines, planted {planted}")
    if workload == "trend":
        if facts["matched"] != len(ref.matched) or facts["frequency_total"] != len(ref.matched):
            problems.append(f"matched {facts['matched']}, reference {len(ref.matched)}")
        if abs(facts["r"] - ref.r) > checks.R_TOL:
            problems.append(f"r={facts['r']}, numpy.corrcoef {ref.r}")
    elif workload == "stance":
        if facts["predicted"] != len(inputs.corpus.valid) or facts["series_total"] != facts["predicted"]:
            problems.append(f"predicted {facts['predicted']} of {len(inputs.corpus.valid)} messages")
    elif workload == "curate":
        if facts["selected"] != checks.annotate_n(inputs):
            problems.append(f"selected {facts['selected']} texts")
        if gen.COLLOCATE not in facts["candidates"]:
            problems.append("planted collocate missing from expand-query candidates")
        if facts["test_accuracy"] < checks.ACCURACY_FLOOR:
            problems.append(f"grid-search test accuracy {facts['test_accuracy']:.3f}")
    return problems


# -- per-layer metrics from one traced pass ---------------------------------

LAYER_UNITS = {
    "corpus.ingest_msgs_per_s": "msgs/s",
    "corpus.record_dumps_msgs_per_s": "msgs/s",
    "corpus.dedup_msgs_per_s": "msgs/s",
    "corpus.sample_s": "s",
    "corpus.rejected": "count",
    "corpus.self_s": "s",
    "tokenization.tokenize_msgs_per_s": "msgs/s",
    "tokenization.count_tokens_s": "s",
    "tokenization.self_s": "s",
    "filterkit.keyword_match_msgs_per_s": "msgs/s",
    "filterkit.regex_match_msgs_per_s": "msgs/s",
    "filterkit.expand_query_s": "s",
    "filterkit.matched_frac": "frac",
    "filterkit.self_s": "s",
    "polarity.load_lexicon_s": "s",
    "polarity.score_msgs_per_s": "msgs/s",
    "polarity.nonzero_frac": "frac",
    "polarity.score_toy_msgs_per_s": "msgs/s",
    "polarity.self_s": "s",
    "stance.train_s": "s",
    "stance.model_rows": "count",
    "stance.model_mb": "MiB",
    "stance.save_model_s": "s",
    "stance.load_model_s": "s",
    "stance.predict_msgs_per_s": "msgs/s",
    "stance.grid_config_s": "s",
    "stance.evaluate_msgs_per_s": "msgs/s",
    "stance.self_s": "s",
    "timeseries.frequency_msgs_per_s": "msgs/s",
    "timeseries.sentiment_msgs_per_s": "msgs/s",
    "timeseries.stance_msgs_per_s": "msgs/s",
    "timeseries.write_csv_s": "s",
    "timeseries.read_series_s": "s",
    "timeseries.correlate_s": "s",
    "timeseries.self_s": "s",
    **{f"cli.{stage}_s": "s" for stage in chains.ALL_STAGES},
    **{f"cli.{stage}_peak_rss_mb": "MiB" for stage in chains.ALL_STAGES},
    "cli.import_s": "s",
    "cli.self_s": "s",
    "bench.trace_overhead_frac": "frac",
}
LAYERS = ("corpus", "tokenization", "filterkit", "polarity", "stance", "timeseries")


def layer_metrics(spans, facts: dict) -> dict:
    """Per-layer metrics of one traced pass; a layer the workload skips reads 0."""
    toy = {s.id for s in spans if s.name == "stage.toy"}
    total: dict = {}
    for span in spans:
        if span.parent in toy:
            key = f"toy:{span.name}"
        else:
            key = span.name
        agg = total.setdefault(key, [0.0, 0.0, 0, 0])  # busy, self, count, calls
        agg[0] += span.busy
        agg[1] += span.self_time
        agg[2] += span.count
        agg[3] += span.calls

    def busy(name):
        return total.get(name, [0.0])[0]

    def rate(name, per="count"):
        agg = total.get(name)
        if not agg or agg[1] <= 0:
            return 0.0
        return (agg[2] if per == "count" else agg[3]) / agg[1]

    def rate_of_calls(name):
        agg = total.get(name)
        return agg[2] / agg[3] if agg and agg[3] else 0.0

    matches = [total[n] for n in ("filterkit.keyword_match", "filterkit.regex_match") if n in total]
    grid_configs = facts.get("configs", 0)
    metrics = {
        "corpus.ingest_msgs_per_s": rate("corpus.ingest"),
        "corpus.record_dumps_msgs_per_s": rate("corpus.record_dumps"),
        "corpus.dedup_msgs_per_s": rate("corpus.dedup"),
        "corpus.sample_s": busy("corpus.sample"),
        "corpus.rejected": facts.get("rejected", 0),
        "tokenization.tokenize_msgs_per_s": rate("tokenization.tokenize", per="calls"),
        "tokenization.count_tokens_s": busy("tokenization.count_tokens"),
        "filterkit.keyword_match_msgs_per_s": rate("filterkit.keyword_match", per="calls"),
        "filterkit.regex_match_msgs_per_s": rate("filterkit.regex_match", per="calls"),
        "filterkit.expand_query_s": busy("filterkit.expand_query"),
        "filterkit.matched_frac": (sum(m[2] for m in matches) / sum(m[3] for m in matches)
                                   if matches else 0.0),
        "polarity.load_lexicon_s": busy("polarity.load_lexicon"),
        "polarity.score_msgs_per_s": rate("polarity.score", per="calls"),
        "polarity.nonzero_frac": facts.get("nonzero_frac", 0.0),
        "polarity.score_toy_msgs_per_s": rate("toy:polarity.score", per="calls"),
        "stance.train_s": busy("stance.train"),
        "stance.model_rows": rate_of_calls("stance.train"),
        "stance.model_mb": facts.get("model_mb", 0.0),
        "stance.save_model_s": busy("stance.save_model"),
        "stance.load_model_s": busy("stance.load_model"),
        "stance.predict_msgs_per_s": rate("stance.predict"),
        "stance.grid_config_s": busy("stance.grid_search") / grid_configs if grid_configs else 0.0,
        "stance.evaluate_msgs_per_s": rate("stance.evaluate"),
        "timeseries.frequency_msgs_per_s": rate("timeseries.frequency"),
        "timeseries.sentiment_msgs_per_s": rate("timeseries.sentiment"),
        "timeseries.stance_msgs_per_s": rate("timeseries.stance"),
        "timeseries.write_csv_s": busy("timeseries.write_csv"),
        "timeseries.read_series_s": busy("timeseries.read_series"),
        "timeseries.correlate_s": busy("timeseries.correlate"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(agg[1] for key, agg in total.items()
                                         if key.startswith(layer + "."))
    return metrics


# -- entry point ---------------------------------------------------------------


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, scale: float = 1.0) -> int:
    """Run one benchmark; ``scale`` multiplies the corpus sizes (the self-tests use less)."""
    args = parse_args(argv)
    if not (SRC / "opinionpulse" / "cli.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work / "stderr.log")
    try:
        bench = Bench(args.workload, args.seed, scale, work, runner)
        if args.trace:
            bench.run_cli(0.4 * args.seconds, min_passes=1)
            bench.startup_probes(STARTUP_SAMPLES)
            metrics = {**bench.run_in_process(0.6 * args.seconds), **bench.cli_layer()}
            units = LAYER_UNITS
        else:
            bench.run_cli(args.seconds, min_passes=MIN_PASSES)
            metrics = bench.end_to_end()
            units = END_TO_END_UNITS
        if bench.problems:
            tail = bench.runner.log.read_text(errors="replace")[-2000:]
            print("\n".join(["check failures:", *bench.problems, "stderr tail:", tail]),
                  file=sys.stderr)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed,
            "pass_walls_s": [round(p["wall_s"], 3) for p in bench.passes],
            "setup_samples_s": [round(s["setup_s"], 3) for s in bench.setup],
            "in_process_pairs_s": [[round(p, 3), round(t, 3)] for p, t in bench.pairs],
            "generate_s": round(bench.gen_s, 3),
            "sizes": bench.inputs.sizes, **machine()}
    print(json.dumps(info, sort_keys=True))
    for name in units:
        print(f"{name:40s} {metrics[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
