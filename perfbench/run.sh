#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs
# one workload. From the checkout root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs, the Go build cache and traced-run spans go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomodcache
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# A checkout without git history is named by a digest of its Go sources.
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null) || commit=src-$(
	cd "$root" && find . -path ./.git -prune -o -path "./${out#"$root"/}" -prune -o \
		-type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16
)
cd "$root"
PERFBENCH_COMMIT=$commit PERFBENCH_OUT=$out exec "$out/perfbench" "$@"
