#!/bin/sh
# Build with -DPACT_SANITIZE=thread and run the harness tests that
# exercise the parallel sweep API, so data races in the thread pool /
# Runner baseline cache are caught before they land. Skips (exit 0)
# when the toolchain has no usable TSan runtime, so it is safe to call
# unconditionally from CI.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build-tsan"}

# Probe for a working TSan runtime: some minimal images ship the
# compiler flag but not libtsan, which only surfaces at link time.
probe=$(mktemp -d)
trap 'rm -rf "$probe"' EXIT
cat >"$probe/t.cc" <<'EOF'
int main() { return 0; }
EOF
if ! ${CXX:-c++} -fsanitize=thread "$probe/t.cc" -o "$probe/t" \
    >/dev/null 2>&1; then
    echo "check_tsan: no usable TSan runtime; skipping" >&2
    exit 0
fi

cmake -B "$build" -S "$repo" -DPACT_SANITIZE=thread
# One goal, so its test binaries build in parallel; bounded by the
# core count, since each sanitized compile takes hundreds of MB.
cmake --build "$build" -j "$(nproc)" --target check_tsan_deps

# The pool tests force multi-threaded schedules themselves; PACT_JOBS=4
# additionally routes every default-jobs code path through the pool.
# test_trace_store adds parallel trace generation and concurrent
# zero-copy warm loads sharing one mapping. test_txn drives the
# transactional migration paths, including fault-injected engine runs
# that fan out through the pool.
PACT_JOBS=4 TSAN_OPTIONS="halt_on_error=1" "$build/tests/test_pool"
PACT_JOBS=4 TSAN_OPTIONS="halt_on_error=1" "$build/tests/test_harness"
PACT_JOBS=4 TSAN_OPTIONS="halt_on_error=1" "$build/tests/test_txn"
PACT_JOBS=4 TSAN_OPTIONS="halt_on_error=1" \
    "$build/tests/test_trace_store"

# Graph generation draws its edges in chunks on pool workers, each
# writing its own slice of the shared edge array; init passes run one
# trace per worker.
PACT_JOBS=4 TSAN_OPTIONS="halt_on_error=1" "$build/tests/test_workloads"

# Multi-tenant engine with 4 tenants contending on shared tiers: the
# engine itself is serial, but its runs fan out through the pool and
# share bundles/baselines across threads.
PACT_JOBS=4 TSAN_OPTIONS="halt_on_error=1" \
    "$build/tests/test_multicore" --gtest_filter='Multicore.SharedTier*:Multicore.TwoTenant*:Multicore.TenantRows*'

# The parallel intra-run engine: speculative per-core windows mutate
# page metadata through claim-first atomic ownership, so this is the
# subsystem TSan exists for. The unit tests sweep 1-8 worker threads;
# the CLI run drives 16 tenants' cores through real speculative
# windows (engagement is asserted by the unit tests, byte-identity by
# validate_parallel).
PACT_JOBS=4 TSAN_OPTIONS="halt_on_error=1" \
    "$build/tests/test_parallel_engine"
PACT_PARALLEL_CORES=8 TSAN_OPTIONS="halt_on_error=1" \
    "$build/examples/pactsim_cli" --workload masim-coloc --tenants 16 \
    --scale 0.03 >/dev/null
echo "check_tsan: clean"
