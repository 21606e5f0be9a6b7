#!/usr/bin/env bash
# Lint + test gate: formatting, the third-party package list, clippy (which
# with rustc checks the workspace invariants of docs/ANALYSIS.md) and
# rustdoc (warnings are errors), tier-1 tests, the crate suites and feature
# matrix, the packed-plan bench smoke and the no-FMA disassembly check.
# Run from anywhere; operates on the workspace root. Writes nothing into
# the tree: the bench smoke runs in a temporary directory.
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
# is frozen) and uses `Instant` and `HashMap` freely, so the two L3 lints
# are allowed here as the table allows them; the three determinism zones
# deny them by attribute, which wins over the command line. `-D unsafe_code`
# keeps the benchmark inside the unsafe ban the table gives every other
# member.
echo "==> cargo clippy --workspace --all-targets --all-features -- -D warnings"
cargo clippy --workspace --all-targets --all-features -- -D warnings \
    -A clippy::unnecessary_mut_passed \
    -A clippy::disallowed_types -A clippy::disallowed_methods \
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
echo "==> crate tests: tensor nn core runtime exec verify models data baselines"
cargo test -q -p stepping-tensor -p stepping-nn -p stepping-core -p stepping-runtime \
    -p stepping-exec -p stepping-verify -p stepping-models \
    -p stepping-data -p stepping-baselines

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
# tests (wake-one, hand-offs, dead worker, pause/resume/shutdown) and the
# multi-threaded stress test (EDF under backlog, batches from backlog
# alone, concurrent upgrades).
echo "==> stepping-serve crate tests"
cargo test -q -p stepping-serve

echo "==> stepping-serve release lane + stress"
cargo test -q --release -p stepping-serve --lib --test stress

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

# Parallel-training matrix: the tier-1 suite must produce identical results
# at 1 and 4 workers (tests/parallel_property.rs folds STEPPING_THREADS into
# its thread sweep; everything else must simply stay green).
for threads in 1 4; do
    echo "==> tier-1 matrix: STEPPING_THREADS=${threads}"
    STEPPING_THREADS="${threads}" cargo test -q
done

echo "check.sh: all gates passed"
