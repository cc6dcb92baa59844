#!/bin/bash
# BENCHMARK.json's command: build the benchmark from source and run it.
#
#   bash perfbench/run.sh --workload bulk-stream --seed 7 --seconds 10 --trace 0
#   bash perfbench/run.sh                  # every workload, 3 repetitions, medians
#   bash perfbench/run.sh -compare a.json b.json
#
# Everything the build writes (the binary, Go's build cache) goes under
# .bench_build/ at the root of the checkout and span files go to
# perfbench/out/, so a run reads and writes nothing outside the checkout.
# In a directory that holds only BENCHMARK.json and perfbench/ the build
# fails (the module under test is missing) and this script exits non-zero
# without printing a result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path"
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/globedoc-perfbench" .)
exec "$build/globedoc-perfbench" -keys "$here/testdata/keys" -outdir "$here/out" "$@"
