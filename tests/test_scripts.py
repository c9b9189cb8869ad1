"""The helper scripts under scripts/ run end to end against the current CLI."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import opinionpulse
from conftest import make_separable, msg, write_corpus, write_labels

SCRIPTS = Path(__file__).parents[1] / "scripts"

# on-topic for the table2 query, with toy-lexicon words that vary by day
DAYS = {
    "2020-03-01": ["corona maakt me boos", "covid is slecht nieuws", "huisarts fijn geholpen"],
    "2020-03-02": ["rivm cijfers goed", "corona blijft vreselijk"],
    "2020-03-03": ["mondkapje is prachtig", "houvol het wordt geweldig", "corona leuk weer"],
    "2020-03-04": ["blijfthuis en blij zijn", "covid maakt het stom"],
}


@pytest.fixture
def shell_env(tmp_path):
    """PATH with an ``opinionpulse`` shim and this interpreter as ``python3`` first."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "opinionpulse"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -c '
                    '"from opinionpulse.cli import entrypoint; entrypoint()" "$@"\n',
                    encoding="utf-8")
    shim.chmod(0o755)
    (bin_dir / "python3").symlink_to(sys.executable)
    src = str(Path(opinionpulse.__file__).parents[1])
    return {**os.environ,
            "PATH": os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_script(name, env, *args) -> tuple[list[Path], str]:
    """Run ``scripts/<name>``; return the files its ``wrote ...`` line announces, and stdout."""
    result = subprocess.run(["bash", str(SCRIPTS / name), *map(str, args)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    announced = re.findall(r"^wrote (.+)$", result.stdout, flags=re.M)
    return [Path(path) for line in announced for path in line.split(" and ")], result.stdout


def test_every_script_runs_and_writes_what_it_announces(shell_env, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, [msg(text, id=f"{day}-{i}", ts=f"{day}T{9 + 2 * i:02d}:30:00Z")
                          for day, texts in DAYS.items() for i, text in enumerate(texts)])
    events = tmp_path / "events.json"
    events.write_text('[{"date": "2020-03-02", "label": "persconferentie"}]', encoding="utf-8")
    labels = tmp_path / "labels.tsv"
    write_labels(labels, make_separable(30, seed=5))
    external = tmp_path / "external.csv"
    external.write_text("date,value\n2020-03-01,10\n2020-03-02,14\n2020-03-03,9\n"
                        "2020-03-04,20\n", encoding="utf-8")
    out = tmp_path / "out"

    written, _ = run_script("daily_frequency.sh", shell_env, corpus, out / "freq", events)
    assert written == [out / "freq" / "frequency_daily.csv"]
    assert json.loads((out / "freq" / "event_markers.json").read_text(encoding="utf-8"))

    written, _ = run_script("daily_sentiment.sh", shell_env, corpus, out / "sent")
    assert written == [out / "sent" / "sentiment_daily.csv",
                       out / "sent" / "sentiment_daily_ma7.csv"]

    written, _ = run_script("hourly_drilldown.sh", shell_env, out / "sent" / "scored.csv",
                            out / "hourly")
    assert written == [out / "hourly" / "sentiment_hourly.csv"]

    written, stdout = run_script("compare_external.sh", shell_env,
                                 out / "sent" / "sentiment_daily.csv", external)
    assert written == []  # it prints its result
    assert re.search(r"^r=\S+\nn_overlap=4$", stdout, flags=re.M)

    written, _ = run_script("stance_pipeline.sh", shell_env, labels, corpus, out / "stance")
    assert written == [out / "stance" / "stance_weekly.csv"]

    for path in (out / "freq" / "frequency_daily.csv", out / "sent" / "sentiment_daily.csv",
                 out / "sent" / "sentiment_daily_ma7.csv", out / "hourly" / "sentiment_hourly.csv",
                 out / "stance" / "stance_weekly.csv"):
        assert len(path.read_text(encoding="utf-8").splitlines()) >= 2, path
