#!/usr/bin/env bash
# Builds the server binary from the repository workspace and the benchmark
# runner from this directory, then runs one workload:
#
#   bash perfsuite/run.sh --workload read-small --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target/ for the server, perfsuite/target/ for the runner).
set -euo pipefail
root="$(pwd)"
cargo build --release --quiet --offline -p cdrib-serve --bin cdrib-served >&2
served_dir="${CARGO_TARGET_DIR:-$root/target}"
case "$served_dir" in /*) ;; *) served_dir="$root/$served_dir" ;; esac
cargo build --release --quiet --offline --manifest-path perfsuite/Cargo.toml >&2
runner_dir="${CARGO_TARGET_DIR:-$root/perfsuite/target}"
case "$runner_dir" in /*) ;; *) runner_dir="$root/$runner_dir" ;; esac
export PERFSUITE_SERVED="$served_dir/release/cdrib-served"
exec "$runner_dir/release/perfsuite" "$@"
