#!/usr/bin/env bash
# CI gate: formatting, lints, docs, then the tier-1 build + test suite.
# This script is the single source of truth — .github/workflows/ci.yml
# just runs it.
#
#   ./ci.sh               the full gate (tier-1 plus the spill-path leg,
#                         which also fails on a leaked spill file, the
#                         scalar-fallback test leg, the aarch64 and
#                         non-Linux cross-checks, and formatting,
#                         linting, building + self-testing the perf/
#                         benchmark package against this tree: perf/ is
#                         its own workspace, which the --workspace fmt
#                         and clippy runs above never reach)
#   ./ci.sh bench-smoke   additionally run `mscc sweep` over every
#                         bundled machine profile in profiles/ on the
#                         dispatch-heavy example workload, then the
#                         bench-regression gates (one claims -- claims
#                         regex explosion --check run) against
#                         BENCH_claims.json / BENCH_regex.json /
#                         BENCH_explosion.json: the paper's numbers
#                         (C1-C10, A1-A4 and the S1 sweep, measured from
#                         the committed profiles/ files), counts and
#                         invariants (spans agree, spilled == in-RAM,
#                         meta states) fail anywhere, as does a gated key
#                         missing from either side; the in-process
#                         ratios (speedups, thread ratios, spilled vs
#                         in-RAM, disabled-instrumentation overhead) and
#                         each bench's one catastrophe floor fail only on
#                         the machine whose env (nproc, cpu, simd_lanes)
#                         the file carries and print report-only
#                         elsewhere. No gate judges a wall-clock number:
#                         that is perf/'s job
#   ./ci.sh serve-smoke   additionally boot the real `mscc serve` daemon
#                         on an ephemeral port, drive every endpoint over
#                         TCP with `loadgen --smoke` (including /match
#                         hit, miss, and malformed-pattern requests, and
#                         a /compile nested past the front end's bound,
#                         refused with 422 on a real worker stack),
#                         read /metrics and fail unless the smoke was
#                         answered on both threads (serve.resident_answers
#                         and serve.dispatched > 0) with nothing shed, and
#                         check that SIGINT drains the daemon cleanly (the
#                         coalescing burst and the restart on one disk
#                         cache are tier-1 tests; throughput and latency
#                         are perf/'s serve_mixed)
#   ./ci.sh fuzz-smoke    additionally run the differential fuzzer over
#                         the full in-process oracle matrix (including
#                         the regex differential oracle) with a fixed
#                         seed; any mismatch fails the build and leaves
#                         minimized reproducers in fuzz-corpus/
#   ./ci.sh loc           print the non-test, non-shim Rust line count
#                         and exit: every line of src/ and crates/*/src/
#                         (shims excluded) above the file's first
#                         module-level `#[cfg(test)]` — the measure the
#                         deletion PRs report before and after
set -euo pipefail
cd "$(dirname "$0")"

MODE="${1:-default}"

if [ "$MODE" = "loc" ]; then
    find src crates -name '*.rs' \( -path 'src/*' -o -path 'crates/*/src/*' \) \
        -not -path 'crates/shims/*' -print0 |
        xargs -0 awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n }'
    exit 0
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tier-1: build --release =="
# --workspace: the root is itself a package, so a bare `cargo build`
# would skip the member crates (and never produce target/release/mscc,
# which the smoke stages below execute).
cargo build --release --workspace

echo "== tier-1: test =="
cargo test -q --workspace

echo "== tier-1: test again under a tiny memory budget (spill path) =="
# 16k is far below any test workload's resident set, so every conversion
# in the suite runs through the out-of-core arena and must still produce
# bit-identical automata. The leg gets a temp dir of its own, and fails
# if any spill file outlives the suite.
SPILL_TMP="$(mktemp -d)"
MSC_MEMORY_BUDGET=16k TMPDIR="$SPILL_TMP" cargo test -q --workspace
LEAKED="$(find "$SPILL_TMP" -name 'msc-spill-*')"
if [ -n "$LEAKED" ]; then
    echo "spill files left behind by the suite:" >&2
    echo "$LEAKED" >&2
    exit 1
fi
rm -rf "$SPILL_TMP"

echo "== tier-1: test again with SIMD kernels disabled (scalar path) =="
# MSC_NO_SIMD forces the portable scalar fallbacks everywhere the SIMD
# crate dispatches, so the suite proves the scalar kernels are not just
# dead code behind a feature probe.
MSC_NO_SIMD=1 cargo test -q --workspace

# Two cfg splits only another target can type-check. The reactor's
# epoll shim carries an arch-conditional epoll_event layout (packed on
# x86_64, natural elsewhere): aarch64 Linux keeps the non-x86 half
# honest. msc-serve runs the epoll reactor on Linux and the portable
# blocking driver everywhere else: a non-Linux target keeps "everywhere
# else" compiling. `rustup target add <target>` is the only setup; a
# target whose std is not installed (e.g. offline) is skipped with a
# notice.
for target in aarch64-unknown-linux-gnu x86_64-apple-darwin; do
    echo "== cross-check: $target =="
    if rustup target list --installed 2>/dev/null | grep -qx "$target"; then
        cargo check --workspace --target "$target"
    else
        echo "   $target std not installed; skipping cross-check"
    fi
done

echo "== perf: the benchmark of record builds against this tree =="
# perf/ is its own package outside the workspace, so nothing above
# compiles it: a PR that breaks an API it is pinned to would learn so
# only when the benchmark runs. Its tests pin the generators and metric
# tables; selftest proves each oracle still catches a doctored result.
# The diff check fails a change that would dirty perf/Cargo.lock. Being
# its own workspace, it gets its own fmt and clippy runs.
cargo fmt --manifest-path perf/Cargo.toml -- --check
cargo clippy --offline --manifest-path perf/Cargo.toml --all-targets -- -D warnings
cargo test --release --offline --manifest-path perf/Cargo.toml
cargo run --release --quiet --offline --manifest-path perf/Cargo.toml -- selftest
git diff --exit-code -- perf BENCHMARK.json

# One bench-regression gate run: re-measure the named benches and hold
# them against their committed BENCH_<name>.json (every gated metric and
# its rule is one row of crates/bench/src/gate.rs; timing-derived rows
# bite only on the machine the file's env names).
gate() {
    echo "== bench regression gate: claims -- $* --check =="
    cargo run --release -p msc-bench --bin claims -- "$@" --check
}

if [ "$MODE" = "bench-smoke" ]; then
    # The CLI half first (exercises --profiles dir loading, the engine
    # pool, and the sweep.* counters on a real terminal run), then the
    # gates. The claims gate measures the committed profiles/ files — not
    # the built-in matrix — so a doctored profile file fails here even
    # though it also fails tier-1's bit-equality test.
    echo "== bench smoke: mscc sweep over every bundled profile =="
    ./target/release/mscc sweep examples/dispatch_heavy.mimdc --profiles profiles --metrics
    gate claims regex explosion
fi

if [ "$MODE" = "serve-smoke" ]; then
    # Port 0 lets the kernel pick a free port — no RANDOM collisions on
    # busy runners. The daemon announces the bound address on stdout.
    SERVE_LOG="$(mktemp)"
    echo "== serve smoke: mscc serve on an ephemeral port =="
    ./target/release/mscc serve --addr 127.0.0.1:0 --workers 4 > "$SERVE_LOG" &
    SERVE_PID=$!
    trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -f "$SERVE_LOG"' EXIT
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR="$(sed -n 's/^msc-serve listening on //p' "$SERVE_LOG" | head -n 1)"
        [ -n "$ADDR" ] && break
        sleep 0.1
    done
    if [ -z "$ADDR" ]; then
        echo "serve smoke: daemon never announced its address; daemon log follows" >&2
        cat "$SERVE_LOG" >&2
        exit 1
    fi
    echo "   daemon bound to ${ADDR}"
    ./target/release/loadgen --smoke --addr "$ADDR"
    echo "== serve smoke: both sides of the resident / dispatched choice ran =="
    # /metrics over bash's own /dev/tcp: no curl on the runner's path.
    exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
    printf 'GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n' >&3
    METRICS="$(cat <&3)"
    exec 3<&-
    counter() {
        local v
        v="$(sed -n "s/.*\"$1\":\([0-9][0-9]*\).*/\1/p" <<<"$METRICS")"
        echo "${v:-0}"
    }
    RESIDENT="$(counter serve.resident_answers)"
    DISPATCHED="$(counter serve.dispatched)"
    SHED="$(counter serve.shed)"
    echo "   serve.resident_answers ${RESIDENT}, serve.dispatched ${DISPATCHED}, serve.shed ${SHED}"
    if [ "$RESIDENT" -eq 0 ] || [ "$DISPATCHED" -eq 0 ] || [ "$SHED" -ne 0 ]; then
        echo "serve smoke: want resident_answers > 0, dispatched > 0, shed == 0" >&2
        exit 1
    fi
    echo "== serve smoke: SIGINT drains the daemon =="
    kill -INT "$SERVE_PID"
    wait "$SERVE_PID"
    trap - EXIT
    rm -f "$SERVE_LOG"
fi

if [ "$MODE" = "fuzz-smoke" ]; then
    # Fixed seed: the stage is deterministic, a red build is always
    # reproducible locally with the same command. Mismatches exit
    # nonzero and drop minimized reproducers into fuzz-corpus/ (uploaded
    # as a CI artifact on failure).
    echo "== fuzz smoke: mscc fuzz, full oracle matrix, 200 cases =="
    rm -rf fuzz-corpus
    ./target/release/mscc fuzz --seed 1 --cases 200 --corpus fuzz-corpus
fi

echo "CI OK"
