#!/usr/bin/env bash
# The benchmark's one command. Builds the two binaries, then
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last line of standard output is the
#       JSON result of the benchmark contract (BENCHMARK.json)
#   run.sh [--seed <n>] [--seconds <s>] [--sets <k>]
#       every workload, untraced then traced, each in a fresh process:
#       prints every metric by name with its unit, checks outputs, writes
#       results and traces to crates/benchmark/out/, and with --sets 2
#       compares the two sets against the regression bounds
#
# Exits non-zero when the build fails, an output check fails, or a set
# comparison misses a bound.
set -euo pipefail
cd "$(dirname "$0")/../.."

# the benchmark is a member of the repo's workspace and measures its crates:
# without them there is nothing to build or run
if [ ! -f Cargo.toml ] || [ ! -d crates/serve ]; then
    echo "run.sh: $(pwd) is not the repo's workspace root" 1>&2
    exit 1
fi

target="${CARGO_TARGET_DIR:-target}"
# build output goes to standard error: standard output carries the result
cargo build --release -p stepping-benchmark --bin e2e 1>&2
# `probe` calls below the serving surface; when a refactor breaks it the
# end-to-end numbers still print and its metrics read `missing`
if ! cargo build --release -p stepping-benchmark --bin probe 1>&2; then
    echo "run.sh: probe does not build; its per-layer metrics are missing" 1>&2
    rm -f "$target/release/probe"
fi
exec "$target/release/e2e" "$@"
