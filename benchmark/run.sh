#!/bin/sh
# Runs the benchmark from any working directory; arguments pass through
# (`--seed N [--workload NAME] [--traced] [--smoke] [--reps N]`).
set -eu
here=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
