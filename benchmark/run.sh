#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark and the daemon
# under test from source (offline, against the stand-in crates in stubs/),
# then runs one workload. Arguments: --workload --seed --seconds --trace.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/upa-benchmark" run "$@"
