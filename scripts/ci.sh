#!/usr/bin/env bash
# Tier-1 verification: release build, full workspace test suite, and
# clippy with warnings promoted to errors. Run from the repo root.
#
# The container has no crates.io access; every external dependency is an
# API-subset shim under compat/, so --offline always works.
#
# --heavy: after the standard gauntlet, re-run the workspace tests with
# PROPTEST_CASES=512 (the compat proptest shim rescales each block's
# case count proportionally, so 512 means 8x the default 64). Use before
# a release or when touching the distance kernels or index backends.
set -euo pipefail
cd "$(dirname "$0")/.."

HEAVY=0
for arg in "$@"; do
    case "$arg" in
    --heavy) HEAVY=1 ;;
    *)
        echo "usage: scripts/ci.sh [--heavy]" >&2
        exit 2
        ;;
    esac
done

echo "==> no build artifacts tracked"
if git ls-files | grep -E '(^|/)target/' >/dev/null; then
    echo "error: build artifacts are tracked in git (git ls-files matches target/)." >&2
    echo "       Run: git rm -r --cached --quiet -- target" >&2
    exit 1
fi
# Durable-store files are runtime state; a tracked one means a test or a
# CLI run leaked its store directory into the repo.
if git ls-files | grep -E '\.(wal|snap)$' >/dev/null; then
    echo "error: persistence artifacts are tracked in git (git ls-files matches *.wal / *.snap)." >&2
    echo "       Run: git rm --cached --quiet -- '*.wal' '*.snap'" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release --offline --workspace

echo "==> cargo test -q"
cargo test -q --offline --workspace

# Second shard layout: every default-constructed engine in the suite is
# partitioned across 3 shards. Sharding is a pure execution knob, so the
# whole workspace must stay green with no other change.
echo "==> cargo test -q (DISC_TEST_SHARDS=3)"
DISC_TEST_SHARDS=3 cargo test -q --offline --workspace

echo "==> cargo clippy -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

# Second configuration: the deterministic failpoints of disc_core::fault
# compiled in (save panics/delays, persist IO faults, replication-link
# drops) together with the gated suites that sweep them.
echo "==> cargo test -q (--cfg disc_fault)"
RUSTFLAGS="--cfg disc_fault" cargo test -q --offline --workspace

# Every failpoint suite by name, so a test-filter or package rename that
# silently drops one from the workspace run fails loudly here.
echo "==> failpoint suites (--cfg disc_fault)"
RUSTFLAGS="--cfg disc_fault" cargo test -q --offline -p disc-core --test fault_tolerance
RUSTFLAGS="--cfg disc_fault" cargo test -q --offline -p disc-persist \
    --test crash_equivalence --test wal_corruption
RUSTFLAGS="--cfg disc_fault" cargo test -q --offline -p disc-replicate --test link_faults

echo "==> cargo clippy -- -D warnings (--cfg disc_fault)"
RUSTFLAGS="--cfg disc_fault" cargo clippy --offline --workspace --all-targets -- -D warnings

# Examples double as end-to-end smoke tests: each asserts its own
# output, so a non-zero exit here is a real regression.
echo "==> examples smoke"
cargo run --release --offline -p disc --example quickstart >/dev/null
cargo run --release --offline -p disc --example record_matching >/dev/null

# Server smoke: a durable `disc serve` on an ephemeral port takes a
# concurrent burst from the bench load generator, shuts down on
# SIGTERM, and a recovery of its store must hold exactly the
# acknowledged rows — the no-acked-ingest-lost contract, end to end.
echo "==> disc serve smoke"
SMOKE_DIR=$(mktemp -d)
trap 'kill "$SERVE_PID" 2>/dev/null; rm -rf "$SMOKE_DIR"' EXIT
cargo build --release --offline --quiet -p disc -p disc-bench --bin disc --bin serve_load
target/release/disc serve --wal "$SMOKE_DIR/store" --eps 0.5 --eta 4 \
    --shards 2 --addr 127.0.0.1:0 --max-queue 32 >"$SMOKE_DIR/serve.out" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^listening on //p' "$SMOKE_DIR/serve.out")
    [ -n "$ADDR" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || {
        echo "error: disc serve exited before listening:" >&2
        cat "$SMOKE_DIR/serve.out" >&2
        exit 1
    }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "error: disc serve never printed its address" >&2; exit 1; }
LOAD=$(target/release/serve_load --addr "$ADDR" --clients 6 --batches 10 --rows 4 --seed 11)
echo "    $LOAD"
ACKED_ROWS=$(printf '%s\n' "$LOAD" | sed -n 's/.*acked_rows=\([0-9]*\).*/\1/p')
# Connection churn: 500 short connections must not leave the server
# holding a thread (and its stack mapping) each. The loop uses only
# shell builtins, so it spawns no process per connection.
MAPS_BEFORE=$(wc -l <"/proc/$SERVE_PID/maps")
for _ in $(seq 1 500); do
    exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
    printf '{"op":"stats"}\n' >&3
    read -r STATS_LINE <&3
    exec 3<&-
done
MAPS_AFTER=$(wc -l <"/proc/$SERVE_PID/maps")
if [ $((MAPS_AFTER - MAPS_BEFORE)) -ge 100 ]; then
    echo "error: 500 closed connections grew the server's memory maps from $MAPS_BEFORE to $MAPS_AFTER" >&2
    exit 1
fi
echo "    500 short connections: memory maps $MAPS_BEFORE -> $MAPS_AFTER"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "error: disc serve exited non-zero after SIGTERM" >&2; exit 1; }
RECOVERED=$(target/release/disc recover --wal "$SMOKE_DIR/store" \
    | sed -n 's/^engine at generation [0-9]*: \([0-9]*\) rows.*/\1/p')
if [ "$RECOVERED" != "$ACKED_ROWS" ]; then
    echo "error: recovered $RECOVERED rows but clients got $ACKED_ROWS acked" >&2
    exit 1
fi
echo "    recovered $RECOVERED rows == acked $ACKED_ROWS (no acknowledged ingest lost)"
rm -rf "$SMOKE_DIR"
trap - EXIT

# Replication smoke: a leader and a read replica take a concurrent
# burst with mirrored reads (serve_load --follower fails on any
# divergent response and waits for the replica to apply every client's
# last ack), both are SIGTERM'd, and recovering *each* store must
# report the same acked rows — the replica is durable in its own right.
echo "==> replication smoke"
REPL_DIR=$(mktemp -d)
LEADER_PID=""
REPLICA_PID=""
trap 'kill ${LEADER_PID:-} ${REPLICA_PID:-} 2>/dev/null || true; rm -rf "$REPL_DIR"' EXIT
await_listen() { # OUT_FILE PID -> prints HOST:PORT
    local out=$1 pid=$2 addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^listening on //p' "$out")
        [ -n "$addr" ] && break
        kill -0 "$pid" 2>/dev/null || {
            echo "error: server exited before listening:" >&2
            cat "$out" >&2
            return 1
        }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "error: server never printed its address" >&2; return 1; }
    printf '%s' "$addr"
}
target/release/disc serve --wal "$REPL_DIR/leader" --eps 0.5 --eta 4 \
    --shards 2 --snapshot-every 8 --addr 127.0.0.1:0 >"$REPL_DIR/leader.out" 2>&1 &
LEADER_PID=$!
LEADER_ADDR=$(await_listen "$REPL_DIR/leader.out" "$LEADER_PID")
target/release/disc serve --wal "$REPL_DIR/replica" --replicate-from "$LEADER_ADDR" \
    --addr 127.0.0.1:0 >"$REPL_DIR/replica.out" 2>&1 &
REPLICA_PID=$!
REPLICA_ADDR=$(await_listen "$REPL_DIR/replica.out" "$REPLICA_PID")
LOAD=$(target/release/serve_load --addr "$LEADER_ADDR" --follower "$REPLICA_ADDR" \
    --clients 6 --batches 10 --rows 4 --seed 23)
echo "    $LOAD"
ACKED_ROWS=$(printf '%s\n' "$LOAD" | sed -n 's/.*acked_rows=\([0-9]*\).*/\1/p')
target/release/disc repl-status --addr "$REPLICA_ADDR" | grep -q '"role":"follower"' \
    || { echo "error: replica repl-status did not report a follower role" >&2; exit 1; }
kill -TERM "$REPLICA_PID" "$LEADER_PID"
wait "$REPLICA_PID" || { echo "error: replica exited non-zero after SIGTERM" >&2; exit 1; }
wait "$LEADER_PID" || { echo "error: leader exited non-zero after SIGTERM" >&2; exit 1; }
LEADER_REC=$(target/release/disc recover --wal "$REPL_DIR/leader" | grep '^engine at generation')
REPLICA_REC=$(target/release/disc recover --wal "$REPL_DIR/replica" | grep '^engine at generation')
if [ "$LEADER_REC" != "$REPLICA_REC" ]; then
    echo "error: recovered states diverged:" >&2
    echo "  leader:  $LEADER_REC" >&2
    echo "  replica: $REPLICA_REC" >&2
    exit 1
fi
LEADER_ROWS=$(printf '%s\n' "$LEADER_REC" | sed -n 's/^engine at generation [0-9]*: \([0-9]*\) rows.*/\1/p')
if [ "$LEADER_ROWS" != "$ACKED_ROWS" ]; then
    echo "error: recovered $LEADER_ROWS rows but clients got $ACKED_ROWS acked" >&2
    exit 1
fi
echo "    leader and replica both recovered: $LEADER_REC ($ACKED_ROWS acked rows)"
rm -rf "$REPL_DIR"
trap - EXIT

# Benchmark correctness: one short run of each workload. The batch run
# checks that a repeat reproduces it bit for bit; the stream and serve
# runs check their output against a batch save_all (streamed, served,
# follower and reopened stores alike). perfbench exits 0 either way, so
# the step reads its verdict. --locked keeps cargo from rewriting the
# benchmark's lockfile.
echo "==> perfbench correctness (repair_batch, stream_small, serve_durable)"
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml
for workload in repair_batch stream_small serve_durable; do
    OUT=$(perfbench/target/release/perfbench --workload "$workload" --seed 1 --seconds 1 --trace 0)
    if ! printf '%s\n' "$OUT" | grep -q '"correct":true' || printf '%s\n' "$OUT" | grep -q 'CHECK FAILED'; then
        printf '%s\n' "$OUT" >&2
        echo "error: perfbench $workload failed its correctness checks" >&2
        exit 1
    fi
    echo "    $workload: correct"
done
git diff --exit-code perfbench/Cargo.lock

# Work-counter gate: traced repair_batch and stream_small at seed 1 must
# do no more work (distance evaluations, index queries and rows visited,
# saves, candidates, engine dirty rows, resaves and promotions) than the
# newest committed BENCH_<n>.json records. The counters are
# deterministic; wall-clock figures are printed and never gate.
echo "==> perfbench work-counter gate (newest BENCH_<n>.json)"
python3 scripts/bench_gate.py

if [ "$HEAVY" = 1 ]; then
    echo "==> cargo test -q (PROPTEST_CASES=512)"
    PROPTEST_CASES=512 cargo test -q --offline --workspace
fi

echo "==> ci.sh: all green"
