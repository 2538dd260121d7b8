#!/usr/bin/env sh
# The full local gate: static analysis, build, test, lint. Run from the
# repo root. Everything is offline (all dependencies are vendored in
# vendor/).
set -eux

# Stage 1: in-tree static analysis (unit newtypes, panic-freedom, sim
# determinism, lock discipline, vendor hygiene, plus the v2 dataflow
# families: lock-order, newtype-escape, float-determinism and
# stale-suppression). Fails fast before the release build; emits a SARIF
# report and verifies the ratchet baseline (counts may only go down).
# `--list-checks` documents the families.
cargo run -p gllm-lint -- --deny all \
    --baseline ci/lint-baseline.json \
    --format sarif --output lint.sarif

# The linter must hold itself to its own panic-freedom and
# float-determinism rules (self-clean).
cargo run -p gllm-lint -- --paths crates/lint --deny all

cargo build --release
cargo test -q
cargo clippy --all-targets -- -D warnings

# Stage 1.5: fault matrix. The chaos suite injects seeded faults (worker
# kills, dropped/delayed activations, KV reservation failures) into the
# threaded runtime and requires every recovered run to be bit-identical
# to the fault-free run — or a structured per-request rejection, never a
# panic or an indefinite stall. Runs in release: recovery respawns full
# pipeline stages, which is slow unoptimized.
cargo test -q --release -p gllm-runtime --test chaos

# Stage 1.6: the transformer's vector `expf` against libm's `expf` on all
# 2^32 inputs, bit for bit (about 50 s on one core in release). On hosts
# without AVX2+FMA the vector path never runs and the test returns at once.
cargo test -q --release -p gllm-transformer --lib -- --ignored vector_exp_equals_libm_on_every_f32

# Stage 2: perf self-benchmark. Times every figure family's sweep serial
# vs parallel vs the unoptimized baseline, writes BENCH_sweep.json at the
# repo root, and exits nonzero if the parallel sweep's output ever
# diverges from the serial run (the harness's bit-identity guarantee).
cargo run --release -p gllm-bench --bin perf_harness -- --quick

# Stage 3: figure reproducibility. Regenerates every figure and ablation
# result in release and requires bench-results/ to come out byte-identical
# to the committed files (tab01 is excluded: it records the tree's own
# line counts, which every change moves).
for src in crates/bench/src/bin/fig*.rs crates/bench/src/bin/abl*.rs; do
    cargo run --release -q -p gllm-bench --bin "$(basename "$src" .rs)"
done
git diff --exit-code -- bench-results ':(exclude)bench-results/tab01_functionality.json'
