#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload audit-loopback --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be there)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
command -v go >/dev/null || export PATH="$PATH:/usr/local/go/bin"

# The revision printed with every result: the git commit of a clone
# (marked -dirty with local changes), else a digest of the Go sources
# and module files.
if [[ -d "$root/.git" ]] && rev=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	git -C "$root" diff --quiet HEAD 2>/dev/null || rev="$rev-dirty"
else
	rev="tree-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi

(cd "$root/perfbench" && go build -ldflags "-X main.buildRevision=$rev" -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
