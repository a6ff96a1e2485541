#!/usr/bin/env bash
# Local mirror of CI (.github/workflows/ci.yml): its five matrix jobs
# (relwithdebinfo is `default` here, plus asan, ubsan, tsan, tidy), the chaos
# smoke and coverage, runnable one at a time or all together. The nightly
# sweep is `HOTMAN_CHAOS_SEEDS=1-200 scripts/check.sh chaos`.
#
#   scripts/check.sh            # default job: warnings-as-errors + tier1
#   scripts/check.sh asan       # AddressSanitizer + UBSan suite
#   scripts/check.sh ubsan      # UndefinedBehaviorSanitizer alone
#   scripts/check.sh tsan       # ThreadSanitizer suite (every gtest binary)
#   scripts/check.sh tidy       # static analysis + clang-tidy
#   scripts/check.sh chaos      # seeded chaos sweep, all profiles
#   scripts/check.sh coverage   # line coverage (scripts/coverage.sh)
#   scripts/check.sh all        # everything, sequentially
#
# Each job configures its own build tree (build-check-<job>/) so sanitizer
# flags never contaminate the regular build/ directory.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${HOTMAN_BUILD_JOBS:-$(nproc)}"

run_suite() {  # run_suite <name> <label> [cmake args...]
  local name="$1" label="$2"
  shift 2
  local dir="build-check-${name}"
  echo "==> [${name}] configure (${*:-default flags})"
  cmake -B "${dir}" -S . -DHOTMAN_WERROR=ON "$@" >/dev/null
  echo "==> [${name}] build"
  cmake --build "${dir}" -j "${JOBS}" >/dev/null
  echo "==> [${name}] ctest -L ${label}"
  ctest --test-dir "${dir}" -L "${label}" --output-on-failure -j "${JOBS}"
}

job_default() { run_suite default tier1; }
job_asan()    { run_suite asan asan -DHOTMAN_SANITIZE=address,undefined; }
# UBSan alone: catches what the asan pairing can mask (ASan's allocator
# hides some invalid-pointer arithmetic) and matches the CI ubsan job.
job_ubsan()   { run_suite ubsan ubsan -DHOTMAN_SANITIZE=undefined; }
job_tsan()    { run_suite tsan tsan -DHOTMAN_SANITIZE=thread; }

# Chaos: the ctest suite (50 seeds per profile plus the negative controls)
# and a determinism-verified runner sweep, mirroring CI's PR smoke. Seeds
# are virtual-time so the whole job is seconds of wall-clock.
job_chaos() {
  run_suite default chaos
  local seeds="${HOTMAN_CHAOS_SEEDS:-1-50}"
  for profile in quorum convergence membership skew; do
    echo "==> [chaos] chaos_runner --seeds=${seeds} --profile=${profile} --verify"
    ./build-check-default/tools/chaos_runner \
      --seeds="${seeds}" --profile="${profile}" --verify --quiet
  done
  echo "==> [chaos] chaos_runner --seeds=${seeds} --profile=quorum --fast-reads --verify"
  ./build-check-default/tools/chaos_runner \
    --seeds="${seeds}" --profile=quorum --fast-reads --verify --quiet
  echo "==> [chaos] chaos_runner --seeds=${seeds} --profile=convergence --shards=2 --verify"
  ./build-check-default/tools/chaos_runner \
    --seeds="${seeds}" --profile=convergence --shards=2 --verify --quiet
}

job_coverage() { scripts/coverage.sh; }

job_tidy() {
  echo "==> [tidy] static analysis (tools/analyze)"
  python3 tools/analyze/hotman_analyze.py --json ANALYZE_findings.json
  python3 tools/analyze/hotman_analyze_test.py
  echo "==> [tidy] clang-tidy (baseline-aware; skips if not installed)"
  scripts/run_clang_tidy.sh build-check-tidy
}

case "${1:-default}" in
  default)  job_default ;;
  asan)     job_asan ;;
  ubsan)    job_ubsan ;;
  tsan)     job_tsan ;;
  tidy)     job_tidy ;;
  chaos)    job_chaos ;;
  coverage) job_coverage ;;
  all)      job_default; job_asan; job_ubsan; job_tsan; job_tidy; job_chaos ;;
  *) echo "usage: scripts/check.sh [default|asan|ubsan|tsan|tidy|chaos|coverage|all]" >&2
     exit 2 ;;
esac
echo "==> OK"
