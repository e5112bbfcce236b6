#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build product and Go cache goes under .bench_build/ in the current
# directory; trace artifacts go under perfbench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
