#!/usr/bin/env bash
# The one command of the repo benchmark. Builds the benchmark (release,
# offline, its own package and lock file) and passes the arguments on:
#
#   benchmark/run.sh                      every workload, every end-to-end metric
#   benchmark/run.sh --layers             ... plus every per-layer metric and the span files
#   benchmark/run.sh --smoke              1/20 size, everything exercised, names validated
#   benchmark/run.sh --noise              two full sets back to back, compared (NOISE.md)
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1    (the driver's form)
#
# Run it from the root of a checkout. Build products go to $CARGO_TARGET_DIR,
# or benchmark/target when that is unset; span files go to benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

build() { # <target dir> [cargo args...]
    local dir="$1"
    shift
    # Cargo's progress goes to stderr; stdout stays clean for the result line.
    CARGO_TARGET_DIR="$dir" cargo build --release --offline --quiet \
        --manifest-path "$here/Cargo.toml" "$@" >&2
}

# The per-layer metrics include the repo's `trace`-feature latency budget,
# which needs a second build of the same program with that feature on.
needs_traced=0
args=("$@")
case "${1:-}" in
    --layers) needs_traced=1; args=(all --layers "${@:2}") ;;
    --smoke) needs_traced=1; args=(all --smoke "${@:2}") ;;
    --noise) needs_traced=1; args=(noise "${@:2}") ;;
esac
prev=""
for a in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$a" = "1" ]; then needs_traced=1; fi
    prev="$a"
done

build "$target"
export EMP_BENCH_DIR="$here"
if [ "$needs_traced" = 1 ]; then
    build "$target/traced" --features trace
    export EMP_BENCH_TRACED_BIN="$target/traced/release/emp-benchmark"
fi
exec "$target/release/emp-benchmark" "${args[@]}"
