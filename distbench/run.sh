#!/usr/bin/env bash
# Builds distbench from source and runs it with the given flags, e.g.
#
#   bash distbench/run.sh --workload grid-solve --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ at the repository root, and so do the spans a
# traced run (--trace 1) writes; the binary runs from the root. The build
# fails, and this script exits non-zero without printing a result, when
# the distlap module is not present one directory above distbench/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/distbench" .) >&2
cd "$root"
exec "$out/distbench" "$@"
