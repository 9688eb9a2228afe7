#!/usr/bin/env bash
# Builds the daemons (from the repository workspace) and the benchmark
# harness (its own workspace in this directory) in release mode, then
# runs the harness with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-heavy --seed 1 --seconds 20 --trace 0
#
# Honours CARGO_TARGET_DIR; build output goes to stderr so the result
# line stays the last line of stdout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  -p mroam-serve -p mroam-replica --bin mroam-served --bin mroam-follower >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# Address-space randomisation off for the harness and the daemons it
# starts (they inherit it): with it on, memory layout changes per process
# and short in-memory timings moved by about 20% between identical runs.
run=("$target/release/perfbench" --bin-dir "$target/release" "$@")
if setarch "$(uname -m)" -R true 2>/dev/null; then
  exec setarch "$(uname -m)" -R "${run[@]}"
fi
exec "${run[@]}"
