#!/usr/bin/env bash
# Tier-1 verify pipeline: configure, build everything, run the test suite.
#   $ scripts/check.sh [build-dir]
#
# CI knobs (all optional):
#   MOA_CMAKE_ARGS         extra -D flags for configure, e.g. "-DMOA_TSAN=ON"
#   MOA_CTEST_ARGS         extra ctest flags, e.g. "-R 'search_batch|thread_pool'"
#   MOA_FUZZ_ITERS         iterations for the randomized differential
#                          lifecycle harness (tests labeled `fuzz`).
#                          Unset = the fixed-seed CI default. Inherited by
#                          the main ctest pass, e.g.
#                          MOA_FUZZ_ITERS=100 scripts/check.sh; when
#                          MOA_CTEST_ARGS filtered that pass, an explicit
#                          `ctest -L fuzz` re-drive runs afterwards.
#   MOA_SEGMENT_ROUNDTRIP  "1" guarantees the on-disk round-trips ran:
#                          MOAIF03 write -> mmap reopen -> search-batch
#                          parity, plus the catalog lifecycle (flush /
#                          merge / manifest recovery and the
#                          incremental-vs-fresh parity suite).
#                          Only triggers an extra ctest pass when
#                          MOA_CTEST_ARGS filtered the main run; an
#                          unfiltered run (e.g. the ASan job) already
#                          covers both segment suites once.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

# shellcheck disable=SC2086  # word splitting of the arg strings is the point
cmake -B "$BUILD_DIR" -S . ${MOA_CMAKE_ARGS:-}
cmake --build "$BUILD_DIR" -j"$(nproc)"
cd "$BUILD_DIR"
# --no-tests=error: a filter that matches nothing (or a missing GTest)
# must fail the gate, not silently pass it.
# shellcheck disable=SC2086
ctest --output-on-failure --no-tests=error -j"$(nproc)" ${MOA_CTEST_ARGS:-}

if [[ "${MOA_SEGMENT_ROUNDTRIP:-}" == "1" && -n "${MOA_CTEST_ARGS:-}" ]]; then
  # Only needed when MOA_CTEST_ARGS filtered the main run above; an
  # unfiltered run already executed these suites once.
  ctest --output-on-failure --no-tests=error \
    -R 'segment_parity|segment_test|catalog_test|catalog_parity'
fi

if [[ -n "${MOA_FUZZ_ITERS:-}" && -n "${MOA_CTEST_ARGS:-}" ]]; then
  # Long-run knob: the env var is inherited by the test processes, so an
  # unfiltered main pass already ran the fuzz suites at this count; only
  # re-drive them when MOA_CTEST_ARGS filtered them out above.
  export MOA_FUZZ_ITERS
  ctest --output-on-failure --no-tests=error -L fuzz
fi
