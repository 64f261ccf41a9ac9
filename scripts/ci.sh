#!/usr/bin/env sh
# Offline CI gate: the workspace must build, test, and regenerate a
# representative experiment with no registry access and no external
# crates. Run from the repository root.
set -eu

# One warnings-as-errors build: the tree must be warning-clean, not
# just compile.
RUSTFLAGS="-D warnings" cargo build --release --offline
cargo test -q --offline --workspace --no-fail-fast

# The benchmark (perfbench/, its own Cargo workspace) builds against the
# crates' public APIs by path; its tests compile it, so a refactor that
# breaks an API the benchmark uses fails here rather than in a
# benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Invariant linter: per-file rules plus the interprocedural passes —
# workspace call graph, transitive hot-path allocation (H2), panic
# reachability (P1), unit-suffix consistency (U2), and energy
# attribution (E1) — against the checked-in lint-baseline.json (see
# DESIGN.md §8). Baseline staleness in either direction is a B1
# diagnostic, so this step fails the moment the tree drifts from the
# recorded findings. The linter is part of the edit loop, so its
# runtime is budgeted: a full workspace pass must finish inside 5
# seconds (including cargo dispatch overhead). The linter is built
# first, outside the timer: the warnings-as-errors build above used
# different RUSTFLAGS, so `cargo run` would otherwise recompile it
# inside the budget.
cargo build --release --offline -p ssmc-lint
LINT_START=$(date +%s%N)
cargo run --release --offline -p ssmc-lint -- --workspace
LINT_END=$(date +%s%N)
LINT_MS=$(( (LINT_END - LINT_START) / 1000000 ))
if [ "$LINT_MS" -gt 5000 ]; then
    echo "ssmc-lint workspace pass took ${LINT_MS}ms (budget 5000ms)" >&2
    exit 1
fi
cargo test -q --offline -p ssmc-lint

cargo run --release --offline -p ssmc-bench --bin experiments -- f2

# Bench smoke: the macrobenchmark harness must run end to end (short
# windows, no baselines asserted) — with the no-op recorder, so this is
# also the disabled-cost path of the observability layer.
cargo bench -p ssmc-bench --bench simulator --offline -- --smoke

# Allocation sentinel: a steady-state replay window must perform zero
# heap allocations per op (the dynamic half of the lint's H1 rule),
# and a full million-op compiled stream must replay from disk with flat
# memory — the streaming half decodes 1M records and asserts zero
# allocation events past the warmup window. Both windows now run with
# the timeline sampler live (and assert rows were taken inside the
# window), so this is also the sampler's zero-allocation proof. Full
# mode on purpose: the guard workload coalesces heavily, so even the
# 1M stream takes only a few seconds.
cargo bench -p ssmc-bench --bench simulator --offline -- --alloc-guard

# Throughput regression gate: re-measure every workload against the
# checked-in BENCH_throughput.json and fail any row more than 15% below
# its host-normalized floor (recorded value scaled by the run-wide
# median measured/recorded ratio, so the sag this script itself induces
# — the machine is 15-25% slower here than at rest — cancels out), or
# if the workload sets diverge in either direction. Absolute path:
# cargo runs the bench with CWD at the package root, not the workspace
# root.
cargo bench -p ssmc-bench --bench simulator --offline -- --check "$PWD/BENCH_throughput.json"

# Namespace scale proof: million-entry directory with O(log n) depth
# asserted structurally, flat memory under churn, and a 10-level-deep
# tree. Ignored by default (release-only by design — a debug million-file
# loop is pointlessly slow).
cargo test --release --offline --test scale_namespace -- --ignored

# Observability smoke: a traced replay must produce a decodable artifact
# and trace-dump must render it. Uses a temp path — trace artifacts
# never land in results/.
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
cargo run --release --offline -p ssmc-bench --bin experiments -- \
    --trace-out "$TRACE_TMP/trace.json" --trace-ops 2000
cargo run --release --offline -p ssmc-bench --bin trace-dump -- \
    "$TRACE_TMP/trace.json"

# Timeline determinism + drift gate: regenerating the fixed-seed F2
# timeline must reproduce the checked-in golden byte for byte (the
# time-resolved analog of the results/ guard below), obs-diff must
# report it clean (exit 0), and a run with an injected regression (a
# shorter trace, so every cumulative metric lands low) must make
# obs-diff exit non-zero. timeline-dump must render the artifact.
cargo run --release --offline -p ssmc-bench --bin experiments -- \
    --timeline-out "$TRACE_TMP/f2.tl" --trace-ops 2000 --sample-interval 1000
cmp "$TRACE_TMP/f2.tl" goldens/f2_timeline.tl
cargo run --release --offline -p ssmc-bench --bin obs-diff -- \
    "$TRACE_TMP/f2.tl" goldens/f2_timeline.tl
cargo run --release --offline -p ssmc-bench --bin experiments -- \
    --timeline-out "$TRACE_TMP/f2_short.tl" --trace-ops 1500 --sample-interval 1000
if cargo run --release --offline -p ssmc-bench --bin obs-diff -- \
    "$TRACE_TMP/f2_short.tl" goldens/f2_timeline.tl >/dev/null 2>&1; then
    echo "obs-diff failed to flag an injected regression" >&2
    exit 1
fi
cargo run --release --offline -p ssmc-bench --bin timeline-dump -- \
    "$TRACE_TMP/f2.tl" >/dev/null

# Crash-torture smoke: power-cut injection at every flash program/erase
# boundary of a 2k-op BSD window, both torn-write modes, recovery
# differentially checked against the durability model. Exhaustive by
# design (~20k cut+recover cycles, a few minutes at 4 threads); any
# violation exits non-zero with the offending cut index printed.
cargo run --release --offline -p ssmc-bench --bin experiments -- \
    crash-torture --ops 2000 --tear both --threads 4
# Sharding determinism: the same sweep, restricted to a small window,
# must emit byte-identical JSON at 1 and 4 threads.
cargo run --release --offline -p ssmc-bench --bin experiments -- \
    crash-torture --ops 300 --tear both --threads 1 --json "$TRACE_TMP/tort1.json"
cargo run --release --offline -p ssmc-bench --bin experiments -- \
    crash-torture --ops 300 --tear both --threads 4 --json "$TRACE_TMP/tort4.json"
cmp "$TRACE_TMP/tort1.json" "$TRACE_TMP/tort4.json"
# Injected-bug canary: with the feature-gated recovery fault compiled in
# (torn slots pass CRC validation), the same harness must *catch* it —
# a clean exit here means the sweep has gone blind.
if cargo run --release --offline -p ssmc-bench --features fault-canary \
    --bin experiments -- crash-torture --ops 300 --tear both --threads 4 \
    >/dev/null 2>&1; then
    echo "crash-torture failed to flag the injected recovery fault" >&2
    exit 1
fi

# Behaviour guard: regenerating every experiment must leave results/
# untouched — refactors of the hot path may not move a single byte of
# simulated output.
cargo run --release --offline -p ssmc-bench --bin experiments -- --json results all
git diff --exit-code results/
