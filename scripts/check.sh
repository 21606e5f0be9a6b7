#!/usr/bin/env bash
# Lint + test gate: formatting, the third-party package list, clippy (which
# with rustc checks the workspace invariants of docs/ANALYSIS.md) and
# rustdoc (warnings are errors), tier-1 tests, the crate suites and feature
# matrix, the packed-plan bench smoke, a run of every example, the no-FMA
# disassembly check and an end-to-end smoke of the serving benchmark's four
# workloads.
# Run from anywhere; operates on the workspace root. Writes nothing into
# the tree: the bench smoke, the examples and the end-to-end smoke run in a
# temporary directory.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

# Third-party packages: the workspace runs on std plus two offline
# stand-ins, `rand` and `proptest`, both path dependencies under vendor/.
# Anything else in the lockfile or in vendor/ fails here.
echo "==> third-party packages: proptest and rand only"
cargo metadata --format-version 1 --offline > /dev/null
members=$(awk '/^\[/ { pkg = ($0 == "[package]") } pkg && /^name = / { print $3 }' \
    Cargo.toml crates/*/Cargo.toml | tr -d '"' | sort)
locked=$(awk '/^name = / { print $3 }' Cargo.lock | tr -d '"' | sort)
third_party=$(comm -23 <(echo "$locked") <(echo "$members") | tr '\n' ' ')
vendored=$(ls vendor | tr '\n' ' ')
if [ "$third_party" != "proptest rand " ] || [ "$vendored" != "proptest rand " ]; then
    echo "error: third-party packages in Cargo.lock: ${third_party:-none};" \
        "vendor/ holds: ${vendored:-nothing}; expected proptest and rand" >&2
    exit 1
fi

# Every target of every member: libs, bins, examples, unit and integration
# tests. Without `--workspace` the root package alone is the target and the
# members' libs are linted only as its dependencies.
#
# Executors and sessions take `&SteppingNet` since the compiled model;
# call sites written `::new(&mut net, ..)` before that still compile by
# coercion, and those in `crates/benchmark` (frozen by BENCHMARK.json) and
# in the property suites kept byte-identical across that change cannot be
# rewritten, so the one lint that objects to them is off.
#
# `crates/benchmark` cannot opt into the workspace lint table (its manifest
# is frozen); `-D unsafe_code` keeps it inside the unsafe ban the table
# gives every other member.
echo "==> cargo clippy --workspace --all-targets --all-features -- -D warnings"
cargo clippy --workspace --all-targets --all-features -- -D warnings \
    -A clippy::unnecessary_mut_passed \
    -D unsafe_code

# Rustdoc: a link to a removed or private item is an error, so the docs
# cannot keep pointing at deleted functions. The benchmark crate is left
# out: it is measured, not documented (BENCHMARK.json freezes its sources).
echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --exclude stepping-benchmark

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

# Root `cargo test` runs the root package only. The unit and integration
# tests of the library crates below — among them core's packed-plan
# staleness/snapshot properties and allocation guards and tensor's
# tier-parity and FMA-tripwire tests — run here (metrics, obs, serve and
# router have their own legs further down).
echo "==> crate tests: tensor nn core runtime verify models data baselines"
cargo test -q -p stepping-tensor -p stepping-nn -p stepping-core -p stepping-runtime \
    -p stepping-verify -p stepping-models -p stepping-data -p stepping-baselines

# The bench and benchmark crates' own tests (report formatting, cases,
# the benchmark's drivers and metrics), in an invocation of their own: the
# benchmark enables `stepping-metrics/metrics`, and built together with
# the crates above that feature would unify into their test builds.
echo "==> crate tests: bench benchmark"
cargo test -q -p stepping-bench -p stepping-benchmark

# The two proptest-heavy suites once more under --release, the build the
# kernels ship in: tensor's conv-driver and GEMM tier properties, and core's
# packed-plan properties (every fixed stage kind recomputing only the
# channels a step changed).
echo "==> release properties: tensor property, core packed_plans"
cargo test -q --release -p stepping-tensor --test property
cargo test -q --release -p stepping-core --test packed_plans

# Feature matrix: telemetry compiled in, alone and combined with the
# invariant gate, must not change any test outcome.
echo "==> feature matrix: --features obs"
cargo test -q --features obs

echo "==> feature matrix: --features 'obs verify-invariants'"
cargo test -q --features "obs verify-invariants"

# Metrics layer: recording compiled in must not change any test outcome
# (tests/metrics_noninterference.rs asserts bit-identical serving logits
# on top of that), and compiled out every primitive must be a zero-sized
# no-op (the crate's disabled-path tests assert ZST sizes and a const-false
# enabled()).
echo "==> feature matrix: --features metrics"
cargo test -q --features metrics

echo "==> stepping-metrics crate tests (recording on)"
cargo test -q -p stepping-metrics --features metrics

echo "==> stepping-metrics crate tests (compiled out)"
cargo test -q -p stepping-metrics

echo "==> stepping-obs crate tests"
cargo test -q -p stepping-obs

# Serving engine: functional + property suite, then under --release, where
# thread interleavings are most hostile, the lane-level doorbell and pause
# tests (the wake rule, lowest index first, hand-offs, a dead awake worker,
# pause/resume/shutdown), the multi-threaded stress test (EDF under
# backlog, batches from backlog alone, concurrent upgrades) and the
# live-load metrics test (every worker's series, held behind a pause).
echo "==> stepping-serve crate tests"
cargo test -q -p stepping-serve

echo "==> stepping-serve release lane + stress + metrics"
cargo test -q --release -p stepping-serve --lib --test stress --test metrics

# A net left out of level order (a neuron moved through `stages_mut()`
# without `sync_assignments()`) must be refused by `Server::new` with a
# typed error in the build the server ships in, where compiling it would
# index out of bounds or pack the wrong rows instead.
echo "==> stepping-serve release: a net out of level order is refused"
cargo test -q --release -p stepping-serve --test serving a_net_out_of_level_order_is_refused

# Admission control + lane scheduler under --release: the deterministic
# shed-policy matrix (lanes held by a paused server) and the 10k-session
# soak (zero lost tickets, p99 bound), where interleavings are most
# hostile.
echo "==> stepping-serve release admission + soak"
cargo test -q --release -p stepping-serve --test admission --test soak

# Router front door: ring/breaker units, the two-replica drain/failover
# integration cycle, and the zero-leak + ring-determinism property suite.
echo "==> stepping-router crate tests"
cargo test -q -p stepping-router --features metrics

# Packed-plan smoke run: asserts packed/masked logits bit-identity, the
# >=2x subnet-0 speedup on the bench MLP, the MAC gates (a direct pass
# multiplies exactly its budget at every MLP subnet, less than the dense
# extent on conv above subnet 0), and the chain gates (stepping 0 -> top
# at most 1.35x a direct pass on the MLP, 1.9x on the conv net). It runs
# from a temporary directory, so the results/ files it writes (relative
# paths) land there and the checked-in full run stays as it is.
echo "==> packed-plan bench smoke (plans)"
cargo build -q --release -p stepping-bench --bin plans
plans_bin="$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)/plans"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
(cd "$smoke_dir" && STEPPING_PLANS_REPS=5 "$plans_bin")

# Examples: the six programs under examples/ run to completion (each exits
# non-zero on an error) from the temporary directory, so a file one writes
# by a relative path lands there. About 1.5 s in total on a 2-core host.
echo "==> examples (release, all six)"
cargo build -q --release --examples
examples_dir="$(cd "${CARGO_TARGET_DIR:-target}/release/examples" && pwd)"
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    echo "    example $name"
    (cd "$smoke_dir" && "$examples_dir/$name" > /dev/null)
done

# No fused multiply-add in the release kernels. A fused multiply-add rounds
# once where the masked reference rounds twice, so it would fork every
# logit. `avx512f` implies `fma`, so nothing in the compiler's flags rules
# it out in the AVX-512 tier; this reads the instructions the plans binary,
# which links every tier of the microkernel, actually holds.
echo "==> no fused multiply-add in the release plans binary"
if command -v objdump > /dev/null; then
    fused=$(objdump -d --no-show-raw-insn "$plans_bin" | grep -E '\sv(fn?madd|fn?msub)' || true)
    if [ -n "$fused" ]; then
        echo "error: fused multiply-add instructions in $plans_bin:" >&2
        echo "$fused" | head -n 20 >&2
        exit 1
    fi
else
    echo "objdump not found; skipping the fused multiply-add check"
fi

# End-to-end smoke: the serving benchmark's four workloads, two seconds
# each, untraced, through the one binary the benchmark builds. `e2e` exits
# non-zero when a sampled logit differs from the masked reference or a
# request goes unanswered (its conservation check), so a serving path that
# answers wrong, or loses work, fails here. Results and traces go to the
# temporary directory.
echo "==> end-to-end smoke (e2e, four workloads)"
cargo build -q --release -p stepping-benchmark --bin e2e
e2e_bin="$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)/e2e"
for workload in direct_mlp stepping_mlp routed_stepping_mlp anytime_conv_open; do
    echo "    e2e --workload $workload"
    mkdir "$smoke_dir/e2e-$workload"
    "$e2e_bin" --workload "$workload" --seed 1 --seconds 2 --trace 0 \
        --out "$smoke_dir/e2e-$workload" > /dev/null
done

echo "check.sh: all gates passed"
