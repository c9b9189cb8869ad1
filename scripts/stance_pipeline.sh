#!/usr/bin/env bash
# Full stance workflow: pick hyperparameters, train, label a corpus,
# and aggregate weekly support/reject/other rates.
#
# usage: stance_pipeline.sh LABELS.tsv CORPUS.jsonl OUTDIR
set -euo pipefail

labels=${1:?usage: stance_pipeline.sh LABELS.tsv CORPUS.jsonl OUTDIR}
corpus=${2:?usage: stance_pipeline.sh LABELS.tsv CORPUS.jsonl OUTDIR}
outdir=${3:?usage: stance_pipeline.sh LABELS.tsv CORPUS.jsonl OUTDIR}
mkdir -p "$outdir"

opinionpulse grid-search \
    --labels "$labels" --objective fraction_score \
    --dims 10,50,200 --epochs 10,50,200 --lrs 0.1,0.2,0.5 \
    --seed 42 --out "$outdir/grid_report.json" --log

read -r dim epochs lr < <(python3 -c '
import json, sys
with open(sys.argv[1], encoding="utf-8") as handle:
    best = json.load(handle)["best"]
print(best["dim"], best["epochs"], best["lr"])
' "$outdir/grid_report.json")

opinionpulse train \
    --labels "$labels" --dim "$dim" --epochs "$epochs" --lr "$lr" \
    --seed 42 --out "$outdir/stance_model.bin" --log

opinionpulse predict \
    --model "$outdir/stance_model.bin" \
    --in "$corpus" --out "$outdir/labeled.jsonl" --log

opinionpulse stance-series \
    --in "$outdir/labeled.jsonl" --bucket week \
    --out "$outdir/stance_weekly.csv" --log

echo "wrote $outdir/stance_weekly.csv"
