#!/usr/bin/env bash
# Reachability gate: every function that a src/ library defines in a .cpp
# file must be kept by at least one production binary. The binaries are
# everything under bench/, examples/ and tools/ (the benches, the examples,
# tca_explore, tca_chaos, tca_lint) plus tcabench.
#
# The tree is built into build-reach/ at -O0 with one section per function
# and per datum, and linked with --gc-sections; tcabench, its own CMake
# project, is built the same way into build-reach/tcabench. At -O0 no call
# is inlined away, so a function that the linker keeps in no binary is
# called by none. -fdata-sections matters too: without it a switch's jump
# table sits in the file's shared .rodata, which some live function always
# keeps, and the table keeps its function (every coroutine's .actor). The
# script lists, demangled, each text symbol (nm type T or t) that a src/
# archive defines and no binary keeps, and exits 1 if there is one. Only
# names in namespace tca count (mangled _ZN3tca... or _ZNK3tca...), which
# leaves out std:: template instantiations. Header-only code is weak or
# inlined, so it stays outside this check.
#
# Usage: scripts/reachability.sh (no arguments). Prints nothing when every
# function is reached.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build-reach
FLAGS=(-G Ninja -DCMAKE_BUILD_TYPE=Debug
  "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

mkdir -p "$BUILD"
LOG="$BUILD/build.log"
if ! { cmake -S . -B "$BUILD" "${FLAGS[@]}" &&
  cmake --build "$BUILD" -j --target bench/all examples/all tools/all &&
  cmake -S tcabench -B "$BUILD/tcabench" "${FLAGS[@]}" &&
  cmake --build "$BUILD/tcabench" -j --target tcabench; } > "$LOG" 2>&1; then
  tail -n 40 "$LOG" >&2
  echo "reachability: build failed (log: $LOG)" >&2
  exit 2
fi

# Text symbols in namespace tca, one mangled name a line, sorted.
tca_text_symbols() {
  nm --defined-only "$@" | awk '$2 == "T" || $2 == "t" { print $3 }' |
    grep -E '^_ZNK?3tca' | sort -u
}

mapfile -t BINARIES < <(find "$BUILD/bench" "$BUILD/examples" "$BUILD/tools" \
  -name CMakeFiles -prune -o -type f -perm -u+x -print)
BINARIES+=("$BUILD/tcabench/tcabench")

DEFINED=$(tca_text_symbols "$BUILD"/src/*/lib*.a)
KEPT=$(tca_text_symbols "${BINARIES[@]}")
UNREACHED=$(comm -23 <(echo "$DEFINED") <(echo "$KEPT"))
if [ -n "$UNREACHED" ]; then
  echo "reachability: $(wc -l <<< "$UNREACHED") src/ symbols that no" \
    "binary of ${#BINARIES[@]} keeps:"
  c++filt <<< "$UNREACHED"
  exit 1
fi
