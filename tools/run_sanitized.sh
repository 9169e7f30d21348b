#!/bin/sh
# run_sanitized.sh: build the tests behind one or more ctest labels under
# AddressSanitizer and ThreadSanitizer, then run each label with ctest.
#
# Usage:
#   tools/run_sanitized.sh LABEL... [--build-root DIR]
#
# Labels with a known test set build only those targets:
#   transport Channel frame writer/assembler, sessions, zero-alloc paths
#   chaos     per-byte kill matrix, TCP kill/RST injection, liveness personas
#   overload  every SlowConsumerPolicy against the slow-consumer personas
#   crash     durable-log kill matrix, injected storage faults, rebirth
#   registry  LruCache, sharded-registry concurrency, XMITSET1, stress
#   analysis  plan verifier, lint goldens, whole-set analyzer and CLIs
# Any other label builds every target first.
#
# Each sanitizer gets its own build tree (DIR-address, DIR-thread; DIR
# defaults to build-sanitized) so the two instrumentations never share
# object files. tools/tsan.supp is always loaded: it silences a
# documented libstdc++-12 false positive in std::atomic<std::shared_ptr>
# internals, and races in this repo's own code still report. A clean exit
# means every label is green under both sanitizers.
set -eu

REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_ROOT=build-sanitized
LABELS=""
while [ $# -gt 0 ]; do
  case "$1" in
    --build-root)
      [ $# -ge 2 ] || { echo "--build-root needs a directory" >&2; exit 2; }
      BUILD_ROOT="$2"
      shift 2
      ;;
    -*)
      echo "unknown option: $1" >&2
      exit 2
      ;;
    *)
      LABELS="$LABELS $1"
      shift
      ;;
  esac
done
if [ -z "$LABELS" ]; then
  echo "usage: $0 LABEL... [--build-root DIR]" >&2
  exit 2
fi

# Prints the build targets behind a label, or nothing for "build all".
targets_for() {
  case "$1" in
    transport) echo net_test session_test zero_alloc_test ;;
    chaos) echo session_chaos_test ;;
    overload) echo session_overload_test ;;
    crash) echo storage_crash_test ;;
    registry) echo registry_cache_test registry_stress_test format_set_test ;;
    analysis)
      echo analysis_test lint_golden_test setlint_test xmit_lint xmit_gen_corpus
      ;;
  esac
}

TARGETS=""
for LABEL in $LABELS; do
  LABEL_TARGETS="$(targets_for "$LABEL")"
  if [ -z "$LABEL_TARGETS" ]; then
    TARGETS=""
    break
  fi
  TARGETS="$TARGETS $LABEL_TARGETS"
done

TSAN_OPTIONS="suppressions=$REPO_DIR/tools/tsan.supp ${TSAN_OPTIONS:-}"
export TSAN_OPTIONS

for SAN in address thread; do
  BUILD_DIR="$BUILD_ROOT-$SAN"
  echo "== [$SAN]: configuring $BUILD_DIR"
  cmake -B "$BUILD_DIR" -S "$REPO_DIR" -DXMIT_SANITIZE="$SAN" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  if [ -n "$TARGETS" ]; then
    echo "== [$SAN]: building$TARGETS"
    # shellcheck disable=SC2086  # one word per target
    cmake --build "$BUILD_DIR" --target $TARGETS -j "$(nproc)" >/dev/null
  else
    echo "== [$SAN]: building every target"
    cmake --build "$BUILD_DIR" -j "$(nproc)" >/dev/null
  fi
  for LABEL in $LABELS; do
    echo "== [$SAN]: ctest -L $LABEL"
    (cd "$BUILD_DIR" && ctest -L "$LABEL" --output-on-failure -j "$(nproc)")
  done
done

echo "==$LABELS green under address and thread sanitizers"
