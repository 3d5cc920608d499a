#!/bin/sh
# Build with -DPACT_SANITIZE=address (ASan + UBSan, see the top-level
# CMakeLists) and run the robustness tests, so memory errors on the
# fault-injection / failure paths — exactly the paths ordinary green
# runs never exercise — are caught before they land. Skips (exit 0)
# when the toolchain has no usable ASan runtime, so it is safe to call
# unconditionally from CI.
#
# Usage: scripts/check_asan.sh [build-dir]   (default: build-asan)
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build-asan"}

# Probe for a working ASan+UBSan runtime: some minimal images ship the
# compiler flag but not the runtime, which only surfaces at link time.
probe=$(mktemp -d)
trap 'rm -rf "$probe"' EXIT
cat >"$probe/t.cc" <<'EOF'
int main() { return 0; }
EOF
if ! ${CXX:-c++} -fsanitize=address,undefined "$probe/t.cc" \
    -o "$probe/t" >/dev/null 2>&1; then
    echo "check_asan: no usable ASan runtime; skipping" >&2
    exit 0
fi

cmake -B "$build" -S "$repo" -DPACT_SANITIZE=address
# One goal, so its test binaries build in parallel; bounded by the
# core count, since each sanitized compile takes hundreds of MB.
cmake --build "$build" -j "$(nproc)" --target check_asan_deps

# halt_on_error so the first report fails the script rather than
# scrolling past; the robustness tests drive every fault class plus
# the exception-capturing sweep, test_txn the transactional migration
# state machine (shadow copies, rollback, retry, admission control),
# test_pool the parallel machinery, test_trace_store the mmap lifetime
# (shared mappings, munmap on last release) and the corrupt-file
# fallback paths.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    "$build/tests/test_robustness"
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    "$build/tests/test_txn"
PACT_JOBS=4 ASAN_OPTIONS="halt_on_error=1" \
    UBSAN_OPTIONS="halt_on_error=1" "$build/tests/test_pool"
PACT_JOBS=4 ASAN_OPTIONS="halt_on_error=1" \
    UBSAN_OPTIONS="halt_on_error=1" "$build/tests/test_trace_store"

# The LLC's SWAR fingerprint shifts and tag-store indexing (every
# associativity the differential test sweeps) and the CPU's lazy
# TOR/PMU accrual across run steps and checkpoint/restore.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    "$build/tests/test_cache"
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    "$build/tests/test_cpu"

# The graph generators' counting scatters index rows by vertex id and
# cursor, and the kernels fill reserved op storage; the differential
# test sweeps scales 4-16 at PACT_JOBS 1 and 4.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    "$build/tests/test_workloads"

# Multi-tenant engine with 4 tenants on shared tiers: per-tenant
# PEBS/PMU/daemon state plus the flat core array is exactly the kind
# of ownership split where a stale reference would hide.
PACT_JOBS=4 ASAN_OPTIONS="halt_on_error=1" \
    UBSAN_OPTIONS="halt_on_error=1" "$build/tests/test_multicore" \
    --gtest_filter='Multicore.SharedTier*:Multicore.TwoTenant*:Multicore.TenantRows*'
echo "check_asan: clean"
