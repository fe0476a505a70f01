#!/usr/bin/env bash
# The benchmark's one entry point: builds gem-ladder (offline, release) and
# runs it with the arguments given, e.g.
#
#   bash benchmark/run.sh --workload piton8_scalar --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh all --repeat 5
#
# Why the alignment flags: the default engine's inner loops are sensitive
# to where the linker happens to put them. Shifting the text section by 24
# bytes (an unrelated line added to the harness does that) moved one step of
# piton8_scalar between 2.05 ms and 2.89 ms on the same source. With every
# function, branch target and loop header on a 64-byte boundary the same
# shifts move it by 3 % on gemmini_compile and 1 % on piton8_lanes64 (14 % on
# piton8_scalar), so a later change is judged by what it does, not by where it
# lands. Any RUSTFLAGS of the caller are replaced: parent and change must be
# built alike.
set -eu
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export RUSTFLAGS="-C llvm-args=-align-loops=64 -C llvm-args=-align-all-functions=6 -C llvm-args=-align-all-nofallthru-blocks=6"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
