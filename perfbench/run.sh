#!/usr/bin/env bash
# Builds the G10 library and the benchmark program from this checkout
# (Release, into .bench_build/perfbench) and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> \
#       --trace 0|1
#   bash perfbench/run.sh --check-determinism --seed <n>
#   bash perfbench/run.sh --selftest
#
# Build output goes to stderr; the program's last line on stdout is
# the JSON result. Run it from the root of a checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build/perfbench"
jobs=$(nproc 2>/dev/null || echo 1)
if [ "$jobs" -gt 4 ]; then jobs=4; fi

cmake -S "$root/perfbench" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2

if [ "${1:-}" = "--selftest" ]; then
    cmake --build "$build" --target perfbench_selftest -j "$jobs" >&2
    exec "$build/perfbench_selftest"
fi
cmake --build "$build" --target perfbench -j "$jobs" >&2

# The revision measured: the git commit when there is one, otherwise a
# digest of the library sources (checkouts need not be repositories).
revision=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
    git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || true)
if [ -z "$revision" ]; then
    revision="src-$(cd "$root" && find src -type f | LC_ALL=C sort |
        xargs cat | cksum | cut -d' ' -f1)"
fi
export PERFBENCH_REVISION="$revision"
exec "$build/perfbench" "$@"
