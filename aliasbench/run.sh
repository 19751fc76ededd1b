#!/usr/bin/env bash
# Builds and runs the aliasd benchmark from the root of the repository:
#
#   bash aliasbench/run.sh --workload bigbatch --seed 0 --seconds 30 --trace 0
#
# --trace 0 runs the timed command (cmd/aliasbench), which prints the
# end-to-end metrics; --trace 1 runs the traced run (cmd/aliastrace), which
# prints the per-layer metrics and writes its spans. Binaries, the Go build
# cache and the spans go under .bench_build/aliasbench ($CARGO_TARGET_DIR
# replaces .bench_build when set), so nothing is written outside the tree.
set -euo pipefail

if [[ ! -f aliasbench/go.mod ]]; then
  echo "run.sh: run from the root of the repository" >&2
  exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
  /*) ;;
  *) out=$PWD/$out ;;
esac
out=$out/aliasbench
mkdir -p "$out/tmp" "$out/spans"

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  case ${args[i]} in
    --trace | -trace) trace=${args[i + 1]:-0} ;;
    --trace=* | -trace=*) trace=${args[i]#*=} ;;
  esac
done

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath \
  XDG_CONFIG_HOME=$out/config GOENV=off GOWORK=off GOFLAGS= \
  GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

if [[ $trace == 1 ]]; then
  (cd aliasbench && go build -o "$out/aliastrace" ./cmd/aliastrace) >&2
  exec "$out/aliastrace" -spans "$out/spans" "$@"
fi
(cd aliasbench && go build -o "$out/aliasbench" ./cmd/aliasbench) >&2
exec "$out/aliasbench" "$@"
