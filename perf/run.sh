#!/usr/bin/env bash
# The repo benchmark in one command: builds the release binary from source,
# then hands every argument to it.
#
#   perf/run.sh                                   every workload, timed + traced; writes perf/out/results.json
#   perf/run.sh --only W [--seed N] [--trace 0|1] one workload of the suite
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                 one run; the result JSON is the last line (the driver's contract)
#   perf/run.sh --compare a.json b.json           two result sets against the bounds
#
# See perf/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-perf/target}"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml --target-dir "$target" >&2
exec "$target/release/opmr-perf" "$@"
