#!/usr/bin/env bash
# Regenerates tests/golden/figures/*.txt from the current build.
#
# The golden files pin the deterministic stdout of every figure, table and
# ablation bench and every example (wall-clock lines dropped, see
# tools/golden_output.cmake); the `golden_fig_*` ctests diff against them.
# Only regenerate when an output legitimately changed, and record the
# regeneration in CHANGES.md.
#
#   $ tools/regen_golden_figures.sh [build_dir]
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
cmake -B "$BUILD_DIR" -S . -DDRMP_BUILD_BENCH=ON -DDRMP_BUILD_EXAMPLES=ON >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)"
for golden in tests/golden/figures/*.txt; do
  name="$(basename "$golden" .txt)"
  cmake -DBIN="$BUILD_DIR/$name" -DGOLDEN="$golden" -DREGEN=1 -P tools/golden_output.cmake
  echo "regenerated $golden"
done
