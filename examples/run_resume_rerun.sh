#!/usr/bin/env bash
# Run examples/NAME.json, resume it from a checkpoint and rerun it, and check
# that the resumed and rerun artifacts equal the first run's bit for bit.
#
# usage: examples/run_resume_rerun.sh NAME RESUME_STEP FINAL_STEP
#
# Run from the repository root with RUNNER_TEMP set to a writable directory.
# The runs go to $RUNNER_TEMP/NAME, $RUNNER_TEMP/NAME-resumed and
# $RUNNER_TEMP/NAME-rerun.  The resume starts from the checkpoint of step
# RESUME_STEP and writes every checkpoint after it again, up to FINAL_STEP;
# the resumed trajectory.csv and every checkpoint must equal the first run's.
# The rerun must reproduce every artifact, metadata.json apart from its
# timestamps.
set -euo pipefail

name=$1
resume=$(printf 'ckpt_%08d.json' "$2")
final=$(printf 'ckpt_%08d.json' "$3")
config="examples/$name.json"
out="${RUNNER_TEMP:?set RUNNER_TEMP to a writable directory}/$name"

cli() {
    PYTHONPATH=src python -W error::RuntimeWarning -m muskatjump.cli "$@"
}

cli run --config "$config" --output-dir "$out"

cp -r "$out" "$out-resumed"
for ckpt in "$out-resumed"/checkpoints/ckpt_*.json; do
    if [[ "$(basename "$ckpt")" > "$resume" ]]; then
        rm "$ckpt"
    fi
done
cli run --config "$config" --output-dir "$out-resumed" --resume "$out-resumed/checkpoints/$resume"
cmp "$out/trajectory.csv" "$out-resumed/trajectory.csv"
test -f "$out/checkpoints/$final"
diff -r "$out/checkpoints" "$out-resumed/checkpoints"

cli run --config "$config" --output-dir "$out-rerun"
diff -r --exclude=metadata.json "$out" "$out-rerun"
python -c 'import json, sys; m = [json.load(open(p)) for p in sys.argv[1:]]; [d.pop("timestamps") for d in m]; sys.exit(m[0] != m[1])' "$out/metadata.json" "$out-rerun/metadata.json"
