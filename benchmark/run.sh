#!/usr/bin/env bash
# Build the benchmark and the scale_wired deployment binary from
# source (offline, release), then run the benchmark with the arguments
# given. See benchmark/README.md.
#
#   benchmark/run.sh --workload wire_saturate --seed 7 --seconds 12 --trace 0
#   benchmark/run.sh --aa            # A/A noise gate, prints its table
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# The driver names the build directory through CARGO_TARGET_DIR
# (relative to where it starts us); by hand it is benchmark/target.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Cargo reports on stderr; stdout stays the benchmark's.
cargo build --release --offline --quiet \
    --manifest-path "$root/Cargo.toml" -p scale-suite --bin scale_wired
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml"

exec "$target/release/scale-benchmark" \
    --scale-wired "$target/release/scale_wired" \
    --manifest "$root/BENCHMARK.json" \
    --out-dir "$here/out" \
    "$@"
