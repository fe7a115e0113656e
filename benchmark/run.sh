#!/usr/bin/env bash
# One command for the whole benchmark: offline release build, then
#
#   benchmark/run.sh [--seed N] [--quick]
#       every workload untraced then traced (plus the held-out seed at
#       quick size), every metric printed by name, outputs checked,
#       results under benchmark/results/.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is its JSON result.
#   benchmark/run.sh list | contract | compare A B | run W [--trace] [--quick]
#       passed through to kona-benchmark.
#
# Exits non-zero when the build fails or any check does.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/kona-benchmark"

args=("$@")
case "${1:-}" in
    run | all | list | contract | compare) ;;
    *)
        # Bare flags: the driver's single run if a workload is named,
        # the whole benchmark otherwise.
        if [[ " $* " != *" --workload "* ]]; then
            args=(all "$@")
        fi
        ;;
esac
if [[ " $* " != *" --out-dir "* ]]; then
    args+=(--out-dir "$here/results")
fi
exec "$bin" "${args[@]}"
