#!/usr/bin/env bash
# Mirrors .github/workflows/ci.yml exactly, so a green run here means a
# green run there. Usage: scripts/ci-local.sh [--skip-msrv]
#
# The MSRV leg needs the 1.75 toolchain installed (rustup toolchain
# install 1.75); pass --skip-msrv when it is not available locally.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

skip_msrv=false
for arg in "$@"; do
    case "$arg" in
    --skip-msrv) skip_msrv=true ;;
    *)
        echo "unknown argument: $arg" >&2
        exit 2
        ;;
    esac
done

run() {
    echo "==> $*"
    "$@"
}

# job: test (stable)
run cargo build --release --locked
# Paper results goldens: every docs/results/<bin>.txt must be exactly
# the start of its pstrace-bench binary's stdout; only a blank line and
# the wall-clock block may follow.
if command -v python3 >/dev/null 2>&1; then
    run python3 scripts/check_results.py
else
    echo "==> python3 not found; skipping results goldens"
fi
run cargo test -q --locked
run cargo test -q --locked --workspace
run cargo test -q --locked --test stream_smoke
# Scale stress + scale probe: the ~146k-state interleaving, the state
# budget, and the Table 1 scenarios x2/x3 at their exact product sizes
# (scenario 1 x4 must be refused up front).
run cargo test -q --release --locked --test scale_stress -- --ignored
run cargo bench --no-run --locked --workspace
# perfbench/ is its own workspace, so the builds above never compile it.
run cargo build --release --locked --offline --manifest-path perfbench/Cargo.toml
# One short live-long pass and one short fleet-short pass (many short
# resumable sessions on a strict WAL, the session lifecycle's path):
# fails unless every daemon report matched the batch-DP oracle
# (`"correct": true`, `"failed": 0`).
# To see where a run's CPU goes, per daemon thread (pstrace-accept,
# pstrace-shard-<i>, pstrace-conn readers, pstrace-metrics), sample it
# while it runs: python3 scripts/thread_cpu.py <pid> --seconds 4
if command -v python3 >/dev/null 2>&1; then
    run python3 scripts/check_perfbench.py
else
    echo "==> python3 not found; skipping perfbench correctness smoke"
fi

# v2 dialect smoke: the compressed-profile round-trip and corruption
# proptests (codec crate), plus the v2 cases of the acceptance suites —
# one flipped bit stays bounded to a sync window, live daemon included.
run cargo test -q --locked -p pstrace-codec
run cargo test -q --locked --test wire_roundtrip v2_
run cargo test -q --locked --test malformed_ptw v2_

# Bit I/O oracle deep fuzz: the refill BitReader (read, and
# refill/take/overrun bursts) and the word-at-a-time BitWriter against
# the byte-wise reference kept in the wire proptests, at 4096 cases per
# property (widths 0..=64, random seeks, mid-byte ends, refills within 8
# bytes of the buffer end, takes past it).
run env PROPTEST_CASES=4096 cargo test -q --locked -p pstrace-wire --test proptests bytewise_oracle

# v2 decode oracle deep fuzz: the one-pass block decode (fixed refill
# points, CRC folded into the record loop) against the per-field-read,
# CRC-first oracle kept in the codec proptests, over random schemas with
# bit flips, truncations, garbage prefixes, checksum-valid forged blocks
# and random chunk splits: same events, damage, frames and stream end.
run env PROPTEST_CASES=4096 cargo test -q --locked -p pstrace-codec --test proptests v2_decode_oracle

# Batch time pass deep fuzz: `TimePass::run` over random batch splits
# of time sequences with spikes, regressions and ordinal gaps must give
# per-record `accept`'s confirmed records, damage and flushed tail, at
# 4096 cases.
run env PROPTEST_CASES=4096 cargo test -q --locked -p pstrace-wire --test proptests time_pass

# Encode agreement deep fuzz: v1 and v2 encoders over random schemas
# with one injected fault (unknown slot, value/time/index overflow) at a
# random position, overwritten ones included, must return the same typed
# error; with no fault both keep exactly the newest `depth` records.
run env PROPTEST_CASES=4096 cargo test -q --locked -p pstrace-codec --test proptests encode_agreement

# PSTS codec deep fuzz: every request kind `write_request` emits and
# every chunk parses back equal through `decode_request`/`decode_chunk`,
# only once complete, and arbitrary bytes never panic either parser, at
# 4096 cases per property.
run env PROPTEST_CASES=4096 cargo test -q --locked -p pstrace-stream --lib proto::

# Selection oracle deep fuzz: on random flows with symmetric instances
# and mirrored flows (so gains tie in real arithmetic), the selector's
# bounded search must return exactly what exhaustive ranking returns,
# every f64 compared bit for bit, at 4096 cases per property.
run env PROPTEST_CASES=4096 cargo test -q --locked -p pstrace-core --test proptests

# WAL model deep fuzz: random open/park/resume/complete/expire/rotate
# sequences over a strict WalWriter. Recovery at every entry boundary
# and torn offset must equal the reference model, a power loss at the
# last sync must keep every acked live token, and the writer must sync
# once per open group and never for any other append, at 4096 cases per
# property.
run env PROPTEST_CASES=4096 cargo test -q --locked -p pstrace-stream --test wal_model wal_model_

# v2 size gate: every reference-corpus scenario must encode to <= 0.8x
# its v1 size through the real CLI, and both dialects must decode to
# byte-identical text traces.
if command -v python3 >/dev/null 2>&1; then
    run python3 scripts/check_v2_size.py
else
    echo "==> python3 not found; skipping v2 size gate"
fi

# Chaos-soak smoke: a seeded fault-injection run against a live daemon.
# The command exits nonzero if the survival criteria are breached, and
# its fault-ledger fingerprint is pinned: the synthetic capture, the
# fault plan and the injectors must all stay bit-identical.
chaos_log="$(mktemp -t pstrace-chaos-XXXXXX.log)"
run cargo run -q --release --locked -p pstrace-cli --bin pstrace -- \
    chaos --seed 7 --sessions 3 --intensity light --records 400 | tee "$chaos_log"
run grep -q "fingerprint 5e41f9994724efe9" "$chaos_log"
rm -f "$chaos_log"

# Fleet-soak smoke: 256 chaos-wrapped sessions from 64 concurrent clients
# against a 4-shard daemon. Exits nonzero on any worker panic, shed-free
# quota breach, or a clean probe that is not bit-identical to batch.
run cargo run -q --release --locked -p pstrace-cli --bin pstrace -- \
    fleet --seed 7 --intensity light --sessions 256 --concurrency 64 --shards 4 --records 200

# Flight-recorder smoke: a short chaos-wrapped fleet soak spills the
# daemon's self-trace as a .ptw v2 dump; the dump must re-decode through
# the stock `trace decode` machinery (flight dialect auto-detected) and
# `pstrace events` must render a per-session timeline naming trace ids.
flight_dump="$(mktemp -t pstrace-flight-XXXXXX.ptw)"
flight_log="$(mktemp -t pstrace-flight-XXXXXX.log)"
run cargo run -q --release --locked -p pstrace-cli --bin pstrace -- \
    fleet --seed 7 --intensity light --sessions 16 --concurrency 8 --shards 4 --records 200 \
    --flight-dump "$flight_dump"
run cargo run -q --release --locked -p pstrace-cli --bin pstrace -- \
    trace decode "$flight_dump" --out /dev/null | tee "$flight_log"
run grep -q "flight-recorder dialect" "$flight_log"
run cargo run -q --release --locked -p pstrace-cli --bin pstrace -- \
    events "$flight_dump" | tee "$flight_log"
run grep -q "trace 0x" "$flight_log"
rm -f "$flight_dump" "$flight_log"

# Crash-recovery smoke: the kill-the-daemon soak against the real
# `pstrace serve` binary — one plain SIGKILL run plus every compiled-in
# WAL crash point (PSTRACE_CRASH_POINT), each restarted on the same WAL
# directory. The command exits nonzero on any recovery breach; the greps
# pin all five verdicts and that each of the four armed points fired.
# Five seeds, since a lost session shows up in some seeds' timing only.
crash_log="$(mktemp -t pstrace-crash-XXXXXX.log)"
for seed in 7 8 9 10 11; do
    run cargo run -q --release --locked -p pstrace-cli --bin pstrace -- \
        crash --seed "$seed" --sessions 6 --records 1200 --shards 2 --crash-point all | tee "$crash_log"
    run test "$(grep -c 'verdict *: recovered' "$crash_log")" = 5
    run test "$(grep -c 'aborted at its armed crash point' "$crash_log")" = 4
done
rm -f "$crash_log"

# Flow-mining smoke: mine the coherence-scenario captures and require
# both ground-truth flows (COH + NCU downstream) recovered at P/R >= 0.9.
# `--require` makes the exit status the gate; the grep pins the verdict
# line itself.
mine_log="$(mktemp -t pstrace-mine-XXXXXX.log)"
run cargo run -q --release --locked -p pstrace-cli --bin pstrace -- \
    mine --scenario 5 --seeds 6 --eval --require 2 | tee "$mine_log"
run grep -q "mine recovery: 2/2" "$mine_log"
rm -f "$mine_log"

# Fleet perf gate: the median aggregate records/s of 5 runs must stay
# above 65% of the committed BENCH_fleet.json baseline (re-baseline with
# --rebaseline after intentional perf changes — see scripts/check_bench.py).
if command -v python3 >/dev/null 2>&1; then
    run python3 scripts/check_bench.py
else
    echo "==> python3 not found; skipping fleet perf gate"
fi

# Profile smoke: the deterministic manual clock makes the span timeline
# reproducible; the checker wants valid Chrome trace JSON with the
# pipeline's phase names.
if command -v python3 >/dev/null 2>&1; then
    profile_json="$(mktemp -t pstrace-profile-XXXXXX.json)"
    run env PSTRACE_PROFILE_CLOCK=manual \
        cargo run -q --release --locked -p pstrace-cli --bin pstrace -- \
        debug --case 1 --profile --profile-json "$profile_json"
    run python3 scripts/check_profile.py "$profile_json"
    rm -f "$profile_json"
else
    echo "==> python3 not found; skipping profile-json validation"
fi

# job: test (MSRV)
if ! $skip_msrv; then
    if rustup toolchain list 2>/dev/null | grep -q '^1\.75'; then
        run cargo +1.75 build --release --locked
        run cargo +1.75 test -q --locked
        run cargo +1.75 test -q --locked --workspace
    else
        echo "==> MSRV toolchain 1.75 not installed; skipping (use rustup toolchain install 1.75)"
    fi
fi

# job: lint
# Dead code is deleted, not silenced: no `allow(dead_code)` in the Rust
# sources.
echo "==> no allow(dead_code) in crates/ src/ tests/ examples/"
if grep -rnE --include='*.rs' 'allow\([^)]*dead_code' crates/ src/ tests/ examples/; then
    echo "allow(dead_code) found: delete the dead code instead" >&2
    exit 1
fi
run cargo fmt --all --check
run cargo clippy --workspace --all-targets --locked -- -D warnings
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked

echo "==> ci-local: all green"
