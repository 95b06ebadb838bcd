#!/usr/bin/env bash
# Correctness matrix for thermctl. Stages, in order:
#
#   format         clang-format check (skipped when absent)
#   plain          build + ctest with -Werror and the physics-invariant
#                  instrumentation compiled in (THERMCTL_INVARIANTS=ON)
#   analyze        thermctl_analyze over src/, tools/, tests/, bench/,
#                  examples/ and perf/: the per-file project rules
#                  (raw-double APIs, naked mutexes, unchecked decodes,
#                  fault probes outside src/, raw number parsing, ...)
#                  plus include-graph layering (.thermctl-layers) +
#                  cycle detection, unchecked must-check returns, static
#                  lock-order auditing, CFG+taint alloc-bound checking
#                  (deserialized counts must pass a dominating bound
#                  before reserve/resize/new[]), struct-field coverage
#                  of digest/encode/decode bodies, and dead-surface (a
#                  public function or class of a src/ header that
#                  nothing outside its own .hh/.cc uses, unit tests not
#                  counting, is deleted or made private), with the
#                  committed baseline (.thermctl-analyze-allow); --ci
#                  makes stale entries fail the stage; one invocation
#                  over the whole tree so cross-file edges are visible
#   bench-smoke    every bench::Session binary (plain build) run from the
#                  repository root with THERMCTL_FAST=1 --quiet and a
#                  throwaway cache directory: each must exit 0 and leave
#                  `git status --porcelain` unchanged (no stray
#                  BENCH_*.json or other file); prints its wall time
#   perf-smoke     every benchmark workload (perf/run.sh --smoke) at 1/20
#                  size in its pinned build-perf/ tree; any failed op,
#                  a golden-digest mismatch included, fails the stage —
#                  the broadest bit-identity gate for a simulator change
#   thread-safety  compile with Clang Thread Safety Analysis as errors
#                  (THERMCTL_THREAD_SAFETY=ON; skipped when clang++ is
#                  absent)
#   asan           ASan+UBSan build + ctest (same instrumentation;
#                  includes the property-fuzz suite and the fuzz corpus
#                  replay under the sanitizers)
#   serve          serve smoke: the thermctl_serve daemon (ASan+UBSan
#                  build) under concurrent clients — a duplicate pair
#                  must coalesce, client output (one point and a served
#                  two-by-two sweep) must be bit-identical to a direct
#                  thermctl_run of the same grid, toggle1 on two cores
#                  must be a bad request costing no simulation, and
#                  SIGTERM must drain cleanly
#   multicore      multicore smoke (ASan+UBSan build): a 4-core
#                  budget-capped percore-PID run under the sanitizers,
#                  plus a serve round-trip of the same multicore config
#                  whose client output must be bit-identical to a
#                  direct, uncached thermctl_run
#   loadgen-smoke  open-loop load smoke (ASan+UBSan build): a short
#                  thermctl_loadgen run against a local daemon on the
#                  event-driven core must finish with nonzero throughput
#                  and zero transport/protocol errors
#   chaos-smoke    randomized chaos soak (ASan+UBSan build): serve +
#                  retrying clients under a seeded fault plan; every
#                  request must end in a bit-correct reply or a typed
#                  error, never a hang; the seed is echoed on failure
#   cluster-smoke  distributed sweep smoke (ASan+UBSan build): a
#                  coordinator shards a grid across three worker
#                  daemons, one is SIGKILLed mid-sweep, and the merged
#                  output must be bit-identical to one direct
#                  thermctl_run of the same grid with zero missing points;
#                  survivors must drain cleanly on SIGTERM; then a
#                  fresh-seed chaos_soak --cluster run (kill + stall +
#                  respawn under a seeded supervisor)
#   tsan           TSan build + parallel smokes under -fsanitize=thread:
#                  test_sweep, test_multicore and test_sim (the
#                  parallelFor pool, the windowed multicore engine and
#                  the single-core cycle pipeline), the sweep engine on
#                  that pool and its warm-cache read path with
#                  THERMCTL_FAST=1, a 16-core budget-capped
#                  percore-PID thermctl_run and a single-core 2x4 grid at
#                  --jobs 1 (each point's side stage on a pool helper)
#                  whose outputs must be byte-identical to the plain
#                  build's, and a 4-core two-point sweep at --jobs 2
#                  (points on pool helpers calling parallelFor again)
#                  that must match --jobs 1
#   fuzz-replay    corpus replay through the fuzz harnesses as plain
#                  ctests; with clang++ present additionally a short
#                  coverage-guided smoke (libFuzzer, -max_total_time=30
#                  per target) seeded from the committed corpus
#   tidy           clang-tidy build (skipped when absent)
#
# Run everything (default) or one stage:
#
#   scripts/check.sh
#   scripts/check.sh --stage analyze
#   scripts/check.sh --stage thread-safety
#
# Each stage uses its own build tree under build-check/ so the matrix
# never disturbs an existing build/ directory.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

jobs="$(nproc 2>/dev/null || echo 4)"
base="build-check"

all_stages="format plain analyze bench-smoke perf-smoke thread-safety asan serve multicore loadgen-smoke chaos-smoke cluster-smoke tsan fuzz-replay tidy"
selected="all"
while [ $# -gt 0 ]; do
    case "$1" in
      --stage)
        [ $# -ge 2 ] || { echo "check.sh: --stage needs a name" >&2; exit 2; }
        selected="$2"
        shift 2
        ;;
      -h|--help)
        echo "usage: check.sh [--stage all|${all_stages// /|}]"
        exit 0
        ;;
      *)
        echo "check.sh: unknown argument '$1'" >&2
        exit 2
        ;;
    esac
done
case " all ${all_stages} " in
  *" ${selected} "*) ;;
  *) echo "check.sh: unknown stage '${selected}'" >&2; exit 2 ;;
esac

want() { [ "${selected}" = all ] || [ "${selected}" = "$1" ]; }
stage() { printf '\n=== check.sh: %s ===\n' "$1"; }

have_clangxx() { command -v clang++ >/dev/null 2>&1; }

if want format; then
    stage "format check"
    ./scripts/format.sh --check
fi

if want plain; then
    stage "plain build (-Werror, invariants on) + ctest"
    cmake -B "${base}/plain" -S . \
        -DTHERMCTL_WERROR=ON -DTHERMCTL_INVARIANTS=ON
    cmake --build "${base}/plain" -j "${jobs}"
    ctest --test-dir "${base}/plain" --output-on-failure -j "${jobs}"
fi

if want analyze; then
    stage "whole-project analysis (thermctl_analyze over the source tree)"
    cmake -B "${base}/plain" -S . \
        -DTHERMCTL_WERROR=ON -DTHERMCTL_INVARIANTS=ON >/dev/null
    cmake --build "${base}/plain" -j "${jobs}" --target thermctl_analyze
    # One invocation over the whole tree: the include-graph passes only
    # see edges between files of the same run, and tests/, bench/,
    # tools/, examples/ and perf/ are included so fault-point-scope and
    # raw-number-parse see code outside src/ and dead-surface sees
    # every caller of a src/ header. The committed fixture
    # trees under tests/analyze/fixtures/ contain planted violations
    # (that is their job), so they are excluded here and covered by
    # test_analyze instead.
    "${base}/plain/tools/thermctl_analyze" --ci --json \
        --layers .thermctl-layers --allowlist .thermctl-analyze-allow \
        --exclude tests/analyze/fixtures \
        src/ tools/ tests/ bench/ examples/ perf/
fi

if want bench-smoke; then
    stage "bench smoke (every Session bench binary, THERMCTL_FAST=1)"
    cmake -B "${base}/plain" -S . \
        -DTHERMCTL_WERROR=ON -DTHERMCTL_INVARIANTS=ON >/dev/null
    # Every bench/*.cc is a bench::Session binary except the shared
    # library and microbench_components (a Google Benchmark binary).
    benches="$(cd bench && ls ./*.cc | sed -e 's|^\./||' -e 's|\.cc$||' \
        | grep -v -x -e bench_util -e microbench_components)"
    # shellcheck disable=SC2086 # one target per word
    cmake --build "${base}/plain" -j "${jobs}" --target ${benches}
    bench_cache="$(mktemp -d)"
    trap 'rm -rf "${bench_cache}"' EXIT
    tree_before="$(git status --porcelain)"
    bench_start="${SECONDS}"
    for b in ${benches}; do
        THERMCTL_FAST=1 "${base}/plain/bench/${b}" --quiet \
            --cache-dir "${bench_cache}" >/dev/null || {
            echo "bench smoke: ${b} failed" >&2
            exit 1
        }
    done
    if [ "$(git status --porcelain)" != "${tree_before}" ]; then
        echo "bench smoke: the bench binaries changed the tree:" >&2
        git status --porcelain >&2
        exit 1
    fi
    echo "bench smoke: $(echo "${benches}" | wc -l) binaries in" \
        "$((SECONDS - bench_start)) s"
    rm -rf "${bench_cache}"
    trap - EXIT
fi

if want perf-smoke; then
    stage "perf smoke (benchmark workloads against perf/golden.txt)"
    # perf/run.sh exits nonzero when any workload fails an op.
    bash perf/run.sh --smoke
fi

if want thread-safety; then
    stage "thread-safety analysis (-Werror=thread-safety)"
    if have_clangxx; then
        cmake -B "${base}/tsa" -S . \
            -DCMAKE_CXX_COMPILER=clang++ -DTHERMCTL_THREAD_SAFETY=ON
        cmake --build "${base}/tsa" -j "${jobs}"
    else
        echo "clang++ not found; skipping thread-safety stage"
    fi
fi

if want asan; then
    stage "ASan+UBSan build + ctest"
    cmake -B "${base}/asan" -S . \
        -DTHERMCTL_INVARIANTS=ON "-DTHERMCTL_SANITIZE=address;undefined"
    cmake --build "${base}/asan" -j "${jobs}"
    ctest --test-dir "${base}/asan" --output-on-failure -j "${jobs}"
fi

if want serve; then
    stage "serve smoke (ASan+UBSan daemon, concurrent clients)"
    cmake -B "${base}/asan" -S . \
        -DTHERMCTL_INVARIANTS=ON \
        "-DTHERMCTL_SANITIZE=address;undefined" >/dev/null
    cmake --build "${base}/asan" -j "${jobs}" \
        --target thermctl_serve_bin thermctl_client thermctl_run
    smoke_dir="$(mktemp -d)"
    serve_pid=""
    trap 'if [ -n "${serve_pid}" ]; then kill "${serve_pid}" 2>/dev/null || true; fi; rm -rf "${smoke_dir}"' EXIT
    smoke_sock="${smoke_dir}/serve.sock"
    # The duplicate client pair below must land while its twin is still
    # in flight, or the second request is a cache hit, not a coalesce.
    # A request worker blocks until its point finishes, so the daemon
    # needs a worker for each of the three concurrent clients: with the
    # default two, the third request waits for a worker and, when it is
    # a twin, arrives after the first run has published. The batch
    # window holds the first dispatch briefly, and the sched.batch stall
    # (it fires once per batch, before the batch's one engine call)
    # keeps each dispatched batch in flight for 2 s more, so a twin
    # delayed by slow (ASan) client start-up still coalesces.
    THERMCTL_FAST=1 "${base}/asan/tools/thermctl_serve" \
        --socket "${smoke_sock}" --cache-dir "${smoke_dir}/cache" \
        --jobs 8 --workers 4 --batch-window-ms 300 \
        --fault-plan 'sched.batch=stall:ms=2000' \
        2>"${smoke_dir}/serve.log" &
    serve_pid=$!
    for _ in $(seq 100); do
        [ -S "${smoke_sock}" ] && break
        sleep 0.1
    done
    [ -S "${smoke_sock}" ] || { cat "${smoke_dir}/serve.log"; exit 1; }

    smoke_client() {
        "${base}/asan/tools/thermctl_client" --socket "${smoke_sock}" \
            --warmup 2000 --cycles 50000 "$@"
    }
    smoke_client --bench 186.crafty --policy PI >"${smoke_dir}/dup1.out" &
    dup1_pid=$!
    smoke_client --bench 186.crafty --policy PI >"${smoke_dir}/dup2.out" &
    dup2_pid=$!
    smoke_client --bench 179.art --policy none >"${smoke_dir}/other.out" &
    other_pid=$!
    wait "${dup1_pid}" "${dup2_pid}" "${other_pid}"
    cmp "${smoke_dir}/dup1.out" "${smoke_dir}/dup2.out"

    coalesced="$(smoke_client --stats \
        | awk '/^coalesced/ {print $NF}')"
    if [ "${coalesced:-0}" -lt 1 ]; then
        echo "serve smoke: duplicate request pair did not coalesce" >&2
        exit 1
    fi

    # Bit-identity: the served result must match a direct, uncached run.
    "${base}/asan/tools/thermctl_run" --bench 186.crafty --policy PI \
        --warmup 2000 --cycles 50000 --no-cache >"${smoke_dir}/direct.out"
    cmp "${smoke_dir}/dup1.out" "${smoke_dir}/direct.out"

    # The SweepRequest path: a served two-by-two grid must print exactly
    # what thermctl_run prints for the same grid.
    smoke_client --bench 186.crafty,179.art --policy none,PI \
        >"${smoke_dir}/sweep.out"
    "${base}/asan/tools/thermctl_run" --bench 186.crafty,179.art \
        --policy none,PI --warmup 2000 --cycles 50000 --no-cache \
        >"${smoke_dir}/sweep_direct.out"
    cmp "${smoke_dir}/sweep.out" "${smoke_dir}/sweep_direct.out"

    # A multicore point under a policy the multicore engine does not run
    # is a bad request (exit 3) that costs no simulation.
    sims() { smoke_client --stats | awk '/^points_simulated/ {print $NF}'; }
    sims_before="$(sims)"
    bad_rc=0
    smoke_client --cores 2 --policy toggle1 2>"${smoke_dir}/bad.err" \
        || bad_rc=$?
    [ "${bad_rc}" -eq 3 ] && grep -q bad-request "${smoke_dir}/bad.err" \
        && [ "$(sims)" = "${sims_before}" ] || {
        echo "serve smoke: toggle1 on 2 cores exited ${bad_rc}" >&2
        cat "${smoke_dir}/bad.err" >&2; exit 1; }

    kill -TERM "${serve_pid}"
    if ! wait "${serve_pid}"; then
        echo "serve smoke: daemon did not drain cleanly on SIGTERM" >&2
        cat "${smoke_dir}/serve.log"
        exit 1
    fi
    serve_pid=""
    [ ! -S "${smoke_sock}" ] || {
        echo "serve smoke: socket not unlinked on shutdown" >&2; exit 1; }
    cat "${smoke_dir}/serve.log"
    rm -rf "${smoke_dir}"
    trap - EXIT
fi

if want multicore; then
    stage "multicore smoke (ASan+UBSan 4-core run + serve round-trip)"
    cmake -B "${base}/asan" -S . \
        -DTHERMCTL_INVARIANTS=ON \
        "-DTHERMCTL_SANITIZE=address;undefined" >/dev/null
    cmake --build "${base}/asan" -j "${jobs}" \
        --target thermctl_serve_bin thermctl_client thermctl_run
    mc_dir="$(mktemp -d)"
    mc_pid=""
    trap 'if [ -n "${mc_pid}" ]; then kill "${mc_pid}" 2>/dev/null || true; fi; rm -rf "${mc_dir}"' EXIT

    # 4-core budget-capped chip under the sanitizers and the
    # energy-balance invariant: the direct run doubles as the
    # bit-identity reference for the served one below.
    mc_flags="--bench 186.crafty --policy percore-PID --cores 4 \
        --coupling 4 --budget 70 --budget-policy demand \
        --warmup 2000 --cycles 50000"
    # shellcheck disable=SC2086
    "${base}/asan/tools/thermctl_run" ${mc_flags} --no-cache \
        >"${mc_dir}/direct.out"

    # The adjustable-gain policy must survive the same smoke.
    "${base}/asan/tools/thermctl_run" --bench 186.crafty \
        --policy adj-integral --cores 4 --warmup 2000 --cycles 50000 \
        --no-cache >"${mc_dir}/adj.out"

    mc_sock="${mc_dir}/serve.sock"
    THERMCTL_FAST=1 "${base}/asan/tools/thermctl_serve" \
        --socket "${mc_sock}" --cache-dir "${mc_dir}/cache" \
        --jobs 4 2>"${mc_dir}/serve.log" &
    mc_pid=$!
    for _ in $(seq 100); do
        [ -S "${mc_sock}" ] && break
        sleep 0.1
    done
    [ -S "${mc_sock}" ] || { cat "${mc_dir}/serve.log"; exit 1; }

    # shellcheck disable=SC2086
    "${base}/asan/tools/thermctl_client" --socket "${mc_sock}" \
        ${mc_flags} >"${mc_dir}/served.out"
    cmp "${mc_dir}/served.out" "${mc_dir}/direct.out"

    kill -TERM "${mc_pid}"
    if ! wait "${mc_pid}"; then
        echo "multicore smoke: daemon did not drain cleanly on SIGTERM" >&2
        cat "${mc_dir}/serve.log"
        exit 1
    fi
    mc_pid=""
    rm -rf "${mc_dir}"
    trap - EXIT
fi

if want loadgen-smoke; then
    stage "loadgen smoke (open loop against the event-driven core)"
    cmake -B "${base}/asan" -S . \
        -DTHERMCTL_INVARIANTS=ON \
        "-DTHERMCTL_SANITIZE=address;undefined" >/dev/null
    cmake --build "${base}/asan" -j "${jobs}" \
        --target thermctl_serve_bin thermctl_loadgen
    lg_dir="$(mktemp -d)"
    lg_pid=""
    trap 'if [ -n "${lg_pid}" ]; then kill "${lg_pid}" 2>/dev/null || true; fi; rm -rf "${lg_dir}"' EXIT
    lg_sock="${lg_dir}/serve.sock"
    THERMCTL_FAST=1 "${base}/asan/tools/thermctl_serve" \
        --socket "${lg_sock}" --cache-dir "${lg_dir}/cache" \
        --jobs 4 --workers 4 2>"${lg_dir}/serve.log" &
    lg_pid=$!
    for _ in $(seq 100); do
        [ -S "${lg_sock}" ] && break
        sleep 0.1
    done
    [ -S "${lg_sock}" ] || { cat "${lg_dir}/serve.log"; exit 1; }

    # Exit 0 already asserts zero transport/protocol errors and zero
    # refusals; the JSON probe double-checks real throughput happened.
    # --cores 2 routes every generated run/sweep point through the
    # multicore engine backend.
    THERMCTL_FAST=1 "${base}/asan/tools/thermctl_loadgen" \
        --socket "${lg_sock}" --rate 30 --conns 2 --duration 3 \
        --seed 42 --cores 2 --json "${lg_dir}/BENCH_serve.json" \
        | tee "${lg_dir}/loadgen.out"
    throughput="$(awk -F': ' '/"throughput_rps"/ {print $2+0}' \
        "${lg_dir}/BENCH_serve.json")"
    awk -v t="${throughput:-0}" 'BEGIN { exit (t > 0) ? 0 : 1 }' || {
        echo "loadgen smoke: throughput is zero" >&2
        cat "${lg_dir}/serve.log"
        exit 1
    }

    kill -TERM "${lg_pid}"
    if ! wait "${lg_pid}"; then
        echo "loadgen smoke: daemon did not drain cleanly on SIGTERM" >&2
        cat "${lg_dir}/serve.log"
        exit 1
    fi
    lg_pid=""
    rm -rf "${lg_dir}"
    trap - EXIT
fi

if want chaos-smoke; then
    stage "chaos smoke (ASan+UBSan soak under a randomized fault plan)"
    cmake -B "${base}/asan" -S . \
        -DTHERMCTL_INVARIANTS=ON \
        "-DTHERMCTL_SANITIZE=address;undefined" >/dev/null
    cmake --build "${base}/asan" -j "${jobs}" --target chaos_soak
    # Fresh seed every run: the soak is deterministic per seed, so a
    # failure is replayable with the seed echoed below.
    chaos_seed="$(date +%s)"
    if ! "${base}/asan/tests/chaos/chaos_soak" \
            "--seed=${chaos_seed}" --clients=3 --requests=8 \
            --max-wall=300; then
        echo "chaos-smoke failed; replay with:" >&2
        echo "  ${base}/asan/tests/chaos/chaos_soak" \
             "--seed=${chaos_seed} --clients=3 --requests=8" >&2
        exit 1
    fi
fi

if want cluster-smoke; then
    stage "cluster smoke (coordinator + 3 workers, one SIGKILLed mid-sweep)"
    cmake -B "${base}/asan" -S . \
        -DTHERMCTL_INVARIANTS=ON \
        "-DTHERMCTL_SANITIZE=address;undefined" >/dev/null
    cmake --build "${base}/asan" -j "${jobs}" \
        --target thermctl_serve_bin thermctl_coord thermctl_run chaos_soak
    cl_dir="$(mktemp -d)"
    cl_pids=""
    trap 'for p in ${cl_pids}; do kill -9 "${p}" 2>/dev/null || true; done; rm -rf "${cl_dir}"' EXIT

    for i in 1 2 3; do
        THERMCTL_FAST=1 "${base}/asan/tools/thermctl_serve" \
            --socket "${cl_dir}/w${i}.sock" --no-cache \
            --jobs 2 2>"${cl_dir}/w${i}.log" &
        eval "w${i}_pid=\$!"
        cl_pids="${cl_pids} $!"
    done
    for i in 1 2 3; do
        for _ in $(seq 100); do
            [ -S "${cl_dir}/w${i}.sock" ] && break
            sleep 0.1
        done
        [ -S "${cl_dir}/w${i}.sock" ] || { cat "${cl_dir}/w${i}.log"; exit 1; }
    done

    # Reference: the same grid run directly, in grid order (benchmarks
    # outer, policies inner) — exactly the layout thermctl_coord prints.
    "${base}/asan/tools/thermctl_run" --bench 186.crafty,179.art \
        --policy none,PI,PID --warmup 2000 --cycles 50000 --no-cache \
        >"${cl_dir}/direct.out"

    # Shard the same grid across the three workers and SIGKILL one
    # mid-sweep: the coordinator must reassign its points and still
    # finish complete (--require-complete turns silent loss fatal).
    "${base}/asan/tools/thermctl_coord" \
        --connect "${cl_dir}/w1.sock" --connect "${cl_dir}/w2.sock" \
        --connect "${cl_dir}/w3.sock" \
        --bench 186.crafty,179.art --policy none,PI,PID \
        --warmup 2000 --cycles 50000 --require-complete \
        --workers-report >"${cl_dir}/coord.out" 2>"${cl_dir}/coord.log" &
    coord_pid=$!
    sleep 0.3
    kill -9 "${w2_pid}"
    if ! wait "${coord_pid}"; then
        echo "cluster smoke: coordinator did not complete the sweep" >&2
        cat "${cl_dir}/coord.log" >&2
        exit 1
    fi
    cmp "${cl_dir}/coord.out" "${cl_dir}/direct.out"
    cat "${cl_dir}/coord.log"

    # Surviving workers must drain cleanly on SIGTERM.
    for i in 1 3; do
        eval "wp=\${w${i}_pid}"
        kill -TERM "${wp}"
        if ! wait "${wp}"; then
            echo "cluster smoke: worker ${i} did not drain cleanly" >&2
            cat "${cl_dir}/w${i}.log" >&2
            exit 1
        fi
    done
    wait "${w2_pid}" 2>/dev/null || true
    cl_pids=""

    # Replayable randomized cluster soak: seeded supervisor SIGKILLs a
    # worker mid-sweep and respawns it while another stalls; the merged
    # report must be complete and bit-identical.
    cl_seed="$(date +%s)"
    if ! "${base}/asan/tests/chaos/chaos_soak" --cluster \
            "--seed=${cl_seed}" --max-wall=300; then
        echo "cluster-smoke soak failed; replay with:" >&2
        echo "  ${base}/asan/tests/chaos/chaos_soak --cluster" \
             "--seed=${cl_seed}" >&2
        exit 1
    fi
    rm -rf "${cl_dir}"
    trap - EXIT
fi

if want tsan; then
    stage "TSan parallel smokes (sweeps, multicore and the cycle pipeline on the parallelFor pool)"
    cmake -B "${base}/tsan" -S . "-DTHERMCTL_SANITIZE=thread"
    cmake --build "${base}/tsan" -j "${jobs}" \
        --target test_sweep test_multicore test_sim thermctl_run \
                 table4_characterization table6_structure_temps
    ctest --test-dir "${base}/tsan" --output-on-failure \
        -R '^(test_sweep|test_multicore|test_sim)$'
    tsan_cache="$(mktemp -d)"
    trap 'rm -rf "${tsan_cache}"' EXIT
    # Cold run exercises the sweep on the pool + cache writes; the second
    # binary shares the characterization grid, so it exercises
    # warm-cache reads.
    THERMCTL_FAST=1 THERMCTL_JOBS=8 THERMCTL_QUIET=1 \
        "${base}/tsan/bench/table4_characterization" \
        --cache-dir "${tsan_cache}" >/dev/null
    THERMCTL_FAST=1 THERMCTL_JOBS=8 THERMCTL_QUIET=1 \
        "${base}/tsan/bench/table6_structure_temps" \
        --cache-dir "${tsan_cache}" >/dev/null

    # A 16-core chip ticks its cores in parallel within each sample
    # window: race-free under TSan, and byte-identical to the plain
    # (invariants-on) build, whatever either machine's pool width.
    cmake -B "${base}/plain" -S . \
        -DTHERMCTL_WERROR=ON -DTHERMCTL_INVARIANTS=ON >/dev/null
    cmake --build "${base}/plain" -j "${jobs}" --target thermctl_run
    chip_flags="--bench 176.gcc --cores 16 --policy percore-PID \
        --budget 160 --warmup 2000 --cycles 20000 --no-cache"
    # shellcheck disable=SC2086
    "${base}/tsan/tools/thermctl_run" ${chip_flags} \
        >"${tsan_cache}/chip.tsan"
    # shellcheck disable=SC2086
    "${base}/plain/tools/thermctl_run" ${chip_flags} \
        >"${tsan_cache}/chip.plain"
    cmp "${tsan_cache}/chip.tsan" "${tsan_cache}/chip.plain"

    # Single-core points pipeline each simulated cycle: at --jobs 1 the
    # point runs on the caller and its side stage (micro-op generation,
    # power, thermal, DTM) on a pool helper. Race-free, and
    # byte-identical to the plain build.
    single_flags="--bench 186.crafty,179.art \
        --policy none,PID,toggle1,vf-scaling --warmup 20000 \
        --cycles 50000 --jobs 1 --no-cache"
    # shellcheck disable=SC2086
    "${base}/tsan/tools/thermctl_run" ${single_flags} \
        >"${tsan_cache}/single.tsan"
    # shellcheck disable=SC2086
    "${base}/plain/tools/thermctl_run" ${single_flags} \
        >"${tsan_cache}/single.plain"
    cmp "${tsan_cache}/single.tsan" "${tsan_cache}/single.plain"

    # Sweep points run on the same pool, so at --jobs 2 a point on a
    # pool helper calls parallelFor again for its cores' windows: still
    # race-free, and byte-identical to the same sweep at --jobs 1.
    sweep_flags="--bench 176.gcc,186.crafty --cores 4 \
        --warmup 2000 --cycles 20000 --no-cache"
    # shellcheck disable=SC2086
    "${base}/tsan/tools/thermctl_run" ${sweep_flags} --jobs 2 \
        >"${tsan_cache}/sweep.jobs2"
    # shellcheck disable=SC2086
    "${base}/tsan/tools/thermctl_run" ${sweep_flags} --jobs 1 \
        >"${tsan_cache}/sweep.jobs1"
    cmp "${tsan_cache}/sweep.jobs2" "${tsan_cache}/sweep.jobs1"
    rm -rf "${tsan_cache}"
    trap - EXIT
fi

if want fuzz-replay; then
    stage "fuzz corpus replay (plain ctest)"
    cmake -B "${base}/plain" -S . \
        -DTHERMCTL_WERROR=ON -DTHERMCTL_INVARIANTS=ON >/dev/null
    cmake --build "${base}/plain" -j "${jobs}" \
        --target fuzz_protocol_replay fuzz_runresult_replay \
                 fuzz_trace_replay
    ctest --test-dir "${base}/plain" --output-on-failure -R 'fuzz_replay'

    if have_clangxx; then
        stage "fuzz smoke (libFuzzer, 30s per target)"
        cmake -B "${base}/fuzz" -S . \
            -DCMAKE_CXX_COMPILER=clang++ -DTHERMCTL_FUZZ=ON
        cmake --build "${base}/fuzz" -j "${jobs}" \
            --target fuzz_protocol fuzz_runresult fuzz_trace
        fuzz_scratch="$(mktemp -d)"
        trap 'rm -rf "${fuzz_scratch}"' EXIT
        for harness in protocol runresult trace; do
            # Scratch dir first: libFuzzer writes newly discovered
            # inputs there, keeping the committed corpus pristine.
            mkdir -p "${fuzz_scratch}/${harness}"
            "${base}/fuzz/tests/fuzz/fuzz_${harness}" \
                -max_total_time=30 -print_final_stats=1 \
                "${fuzz_scratch}/${harness}" "tests/fuzz/corpus/${harness}"
        done
        rm -rf "${fuzz_scratch}"
        trap - EXIT
    else
        echo "clang++ not found; skipping coverage-guided fuzz smoke"
    fi
fi

if want tidy; then
    stage "clang-tidy"
    if command -v clang-tidy >/dev/null 2>&1; then
        cmake -B "${base}/tidy" -S . -DTHERMCTL_CLANG_TIDY=ON
        cmake --build "${base}/tidy" -j "${jobs}"
    else
        echo "clang-tidy not found; skipping static-analysis stage"
    fi
fi

stage "selected stages passed (${selected})"
