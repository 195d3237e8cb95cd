#!/bin/sh
# Hermetic CI: the workspace has zero external dependencies, so both steps
# must succeed offline against an empty registry (see DESIGN.md §7).
set -eux

# The workspace is warning-clean and stays that way: one export up front
# so every cargo invocation below shares the same flags (and cache).
export RUSTFLAGS="-D warnings"

cargo build --release --offline
# Clippy is gated as well: every target of every member is lint-clean, so
# a new finding fails here instead of piling up. A deliberate exception is
# a scoped #[allow] that states its reason.
cargo clippy --offline --workspace --all-targets -- -D warnings
# Rustdoc is warning-clean too, so an intra-doc link to a renamed or
# deleted item fails the build instead of dangling.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
# Every crate's tests, not just the root package's: the verifier mutation
# suite, the property tests and the transport FIFO tests live in members.
cargo test -q --offline --workspace
# No other step compiles the bench targets (crates/bench/benches); build
# them (without running) so a kernel API change cannot leave them broken.
cargo bench --no-run --offline --workspace

# Stress: the conformance suite at 4x its case budget while two CPU-bound
# processes compete for the cores. No MPI decision may lean on a clock, so
# a starved rank must still give every case the serial golden. The test
# binary is built first, so the step times only the run (~15 s on 2 cores).
cargo test -q --release --offline --test cross_runtime --no-run
(set +x; while :; do :; done) & hog1=$!
(set +x; while :; do :; done) & hog2=$!
trap 'kill $hog1 $hog2 2>/dev/null' EXIT
PROPTEST_LITE_CASES=256 cargo test -q --release --offline --test cross_runtime
kill $hog1 $hog2
trap - EXIT

# The benchmark package (its own workspace): its unit tests, then a short
# run of every workload, which exits nonzero on any wrong answer or on a
# counter that moves between repetitions.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
for w in dispatch composite mergetree; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed 7 --seconds 2
done

# Observability: a traced end-to-end run whose Chrome JSON export
# self-validates through the in-repo parser before writing.
cargo run --release --offline --example quickstart -- --trace /tmp/babelflow_trace.json
test -s /tmp/babelflow_trace.json

# Fault matrix: every backend must absorb message drops/duplicates/delays,
# a killed worker, and an injected callback panic, and still byte-match
# the fault-free serial golden (exits nonzero on divergence or on a run
# that reports zero retries — see DESIGN.md §11).
cargo run --release --offline --example fault_drill

# Perf smoke: re-measure the fast-path counters and compare against the
# committed BENCH_controllers.json baseline. Exits nonzero if steady-state
# graph queries or per-delivery allocations become nonzero, if structural
# counters (payload clones) move at all, or if transport counters leave a
# 1.5x band (see DESIGN.md §12).
cargo run --release --offline -p babelflow-bench --bin perf_smoke -- --check

# Verifier smoke: every graph family must lint clean (zero diagnostics)
# across task maps and shard counts, a traced run must pass the
# happens-before checker, and a pure reduction must replay
# byte-identically under permuted schedules (see DESIGN.md §13).
cargo run --release --offline -p babelflow-bench --bin graph_lint
