#!/usr/bin/env bash
# Lint + test gate: formatting, clippy and rustdoc (warnings are errors),
# tier-1 tests, the crate suites and feature matrix, the packed-plan bench
# smoke and the no-FMA disassembly check.
# Run from anywhere; operates on the workspace root. Writes nothing into
# the tree: the bench smoke runs in a temporary directory.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

# Executors and sessions take `&SteppingNet` since the compiled model;
# call sites written `::new(&mut net, ..)` before that still compile by
# coercion, and those in `crates/benchmark` (frozen by BENCHMARK.json) and
# in the property suites kept byte-identical across that change cannot be
# rewritten, so the one lint that objects to them is off.
echo "==> cargo clippy --all-targets --all-features -- -D warnings"
cargo clippy --all-targets --all-features -- -D warnings \
    -A clippy::unnecessary_mut_passed

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
echo "==> crate tests: tensor nn core runtime exec lint verify models data baselines"
cargo test -q -p stepping-tensor -p stepping-nn -p stepping-core -p stepping-runtime \
    -p stepping-exec -p stepping-lint -p stepping-verify -p stepping-models \
    -p stepping-data -p stepping-baselines

# The two proptest-heavy suites once more under --release, the build the
# kernels ship in: tensor's conv-driver and GEMM tier properties, and core's
# packed-plan properties (every fixed stage kind recomputing only the
# channels a step changed).
echo "==> release properties: tensor property, core packed_plans"
cargo test -q --release -p stepping-tensor --test property
cargo test -q --release -p stepping-core --test packed_plans

# Static analysis: the six workspace invariants (shard-safety, determinism
# zones, panic/lock discipline, telemetry registry, the unsafe zone).
# Warnings are errors here, matching the clippy leg.
echo "==> stepping-lint --deny-warnings"
cargo run -q --release -p stepping-lint -- --deny-warnings --baseline lint-baseline.txt

# The baseline must stay empty at HEAD: entries are for staging large
# imports only and may not linger past the PR that introduced them.
if grep -v -e '^#' -e '^[[:space:]]*$' lint-baseline.txt > /dev/null; then
    echo "error: lint-baseline.txt has entries; fix the findings instead" >&2
    exit 1
fi

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
