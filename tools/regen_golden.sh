#!/usr/bin/env sh
# Rebuilds the golden FCT fixture from the release build. Run from the repo
# root after a change that is *supposed* to alter observable results:
#
#   cmake --build build --target regen_golden_fct && tools/regen_golden.sh
#
# With --check, regenerates to a temp file and asserts it is byte-identical
# to the committed fixture (exit 1 with a diff otherwise). This is the
# faults-disabled determinism gate: fault-injection machinery compiled in
# but not armed must not change a single byte of the golden run.
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--check" ]; then
  tmp="$(mktemp)"
  trap 'rm -f "$tmp"' EXIT
  build/tools/regen_golden_fct > "$tmp"
  if cmp -s "$tmp" tests/golden_fct.inc; then
    echo "golden fixture byte-identical"
  else
    echo "golden fixture DRIFTED:" >&2
    diff -u tests/golden_fct.inc "$tmp" >&2 || true
    exit 1
  fi
  # The fidelity switch (DESIGN.md §15) must be inert on the packet path:
  # spelling --fidelity=packet explicitly has to produce byte-for-byte the
  # same run as the default. Anything less means the flow-level fast path
  # leaked into the packet simulator.
  default_out="$(mktemp)"
  packet_out="$(mktemp)"
  trap 'rm -f "$tmp" "$default_out" "$packet_out"' EXIT
  # Host wall time differs between identical runs: mask it and compare
  # everything else, event count included.
  build/tools/amrt_sim --flows=200 --seed=7 > "$default_out"
  build/tools/amrt_sim --flows=200 --seed=7 --fidelity=packet > "$packet_out"
  for out in "$default_out" "$packet_out"; do
    sed 's/in [0-9.]*s wall/in Xs wall/' "$out" > "$out.masked"
    mv "$out.masked" "$out"
  done
  if cmp -s "$default_out" "$packet_out"; then
    echo "packet fidelity byte-identical to default (wall time masked)"
  else
    echo "--fidelity=packet DIVERGED from the default run:" >&2
    diff -u "$default_out" "$packet_out" >&2 || true
    exit 1
  fi
  exit 0
fi

build/tools/regen_golden_fct > tests/golden_fct.inc.new
mv tests/golden_fct.inc.new tests/golden_fct.inc
echo "wrote tests/golden_fct.inc"
