#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is
# run in, then runs it with the given arguments.
#
#   bash perfbench/run.sh --workload oltp-inventory --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare old.json new.json
#
# Run it from the root of the checkout. Everything the build leaves
# behind (binary, Go build cache) goes to .bench_build/ there.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of the checkout (perfbench/go.mod not found)" >&2
	exit 2
fi
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/engine" ]; then
	echo "perfbench: no engine sources next to perfbench/; nothing to build" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .

# The commit of the checkout itself, if it is a git work tree; never of
# a repository above it.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
commit=unknown
if command -v git >/dev/null 2>&1 && git -C "$root" rev-parse --git-dir >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
	if [ -n "$(git -C "$root" status --porcelain --untracked-files=no 2>/dev/null)" ]; then
		commit="$commit+dirty"
	fi
fi
export PERFBENCH_COMMIT="$commit"
exec "$out/perfbench" "$@"
