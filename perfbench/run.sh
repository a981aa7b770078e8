#!/usr/bin/env bash
# Builds cmd/p2pstudy, cmd/filterd and the benchmark from this checkout,
# then runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload study-clean --seed 1 --seconds 40 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

for need in go.mod cmd/p2pstudy cmd/filterd internal perfbench/go.mod BENCHMARK.json; do
	if [ ! -e "$need" ]; then
		echo "perfbench: run from the repository root; $need is missing" >&2
		exit 2
	fi
done

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/bin/" ./cmd/p2pstudy ./cmd/filterd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" "$@"
