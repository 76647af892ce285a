#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments (BENCHMARK.json's command). Everything the Go
# toolchain writes — build cache, temporary files, telemetry — is kept
# under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Without the module there is nothing to build: fail before the toolchain
# runs at all.
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $PWD: the program's source is not here" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# Telemetry off. In any other mode the go command, on its first run against
# a fresh configuration directory, starts a detached child of itself to
# prepare reports, and that child can outlive this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/benchmark" ./benchmark

# Run on one CPU, the last this shell may use. With the process free to
# spread over the sandbox's two vCPUs, the kernel sometimes keeps a client
# and its server goroutine's threads together and sometimes apart, for
# minutes at a time, and a resident wire GET reads 8 or 17 µs accordingly
# (README, "One CPU"). On one CPU it reads 7 µs every time. The program
# then sees nproc = 1 and drives one client. The last CPU, not the first:
# the VM's device interrupts are delivered to CPU 0.
if list=$(taskset -cp $$ 2>/dev/null) && cpu=${list##*[ ,-]} && [ -n "$cpu" ] && [ -z "${cpu//[0-9]/}" ]; then
	exec taskset -c "$cpu" "$build/benchmark" "$@"
fi
exec "$build/benchmark" "$@"
