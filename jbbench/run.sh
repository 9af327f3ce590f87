#!/usr/bin/env bash
# The one command BENCHMARK.json names: build `jbbench` and the
# `shard_server` it spawns (release profile, offline), then run jbbench
# with the arguments given.
#
#   bash jbbench/run.sh --workload mem_star --seed 1 --seconds 10 --trace 0
#   bash jbbench/run.sh suite            # every workload, both ways
#   bash jbbench/run.sh --smoke          # the same at 1/50 size
#   bash jbbench/run.sh diff a.json b.json
#
# Build output goes to CARGO_TARGET_DIR (the driver sets it) or to
# jbbench/target; scratch stores, traces and reports go to jbbench/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Cargo reads a relative CARGO_TARGET_DIR against the directory it is
# started in; pin it down so both builds and the exec agree.
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# `shard_server` is a binary of the repository's `joinboost` package,
# built here as a dependency of this package's own workspace. Cargo's
# progress goes to stderr; standard output stays the benchmark's.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin jbbench
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" -p joinboost --bin shard_server

# glibc moves its mmap threshold as large blocks are freed, and which way
# it went decides whether a 5 MB table load takes 2 ms or 7 ms for the
# rest of the process; and it hands each thread whichever arena is free,
# so a shard_server's peak RSS came out as 108 or 135 MiB by the luck of
# the job thread. Pinning the thresholds and one arena takes both coin
# tosses out of the metrics; the children inherit the setting.
export GLIBC_TUNABLES="glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=1073741824:glibc.malloc.arena_max=1"

exec "$target/release/jbbench" --out "$here/out" "$@"
