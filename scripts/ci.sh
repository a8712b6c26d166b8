#!/usr/bin/env sh
# CI gate for the pos reproduction. Offline by design: all dependencies are
# vendored path crates, so no step may touch the network.
#
#   sh scripts/ci.sh            # build + full test suite + crash matrix + bench gate
#   POS_CI_SKIP_BENCH=1 sh …    # skip the bench gate (fastest useful signal)
set -eu

cd "$(dirname "$0")/.."

# First-party crates only: vendor/* are offline registry stand-ins and are
# exempt from the style gates.
FIRST_PARTY="-p pos -p pos-core -p pos-testbed -p pos-simkernel -p pos-netsim \
 -p pos-packet -p pos-loadgen -p pos-eval -p pos-publish -p pos-bench -p pos-sched \
 -p pos-serve -p pos-dag -p pos-testutil"

echo "==> rustfmt (check, first-party crates)"
cargo fmt --check $FIRST_PARTY

echo "==> clippy (deny warnings, first-party crates)"
cargo clippy $FIRST_PARTY --all-targets -- -D warnings

echo "==> rustdoc (deny warnings, workspace)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> build (release, workspace)"
cargo build --release --workspace

echo "==> tests (workspace)"
cargo test -q --workspace

# The simulation's own contract: every netsim fast path (cut-through TX,
# inline RX, the folded router and bridges, MoonGen bursting) must
# reproduce the all-eventful reference run exactly on the pos and vpos
# case studies. Like the crash matrix below, it is repeated by name so the
# gate stays loud if someone filters tests.
echo "==> fast-vs-eventful oracle (crates/loadgen/tests/fast_vs_eventful.rs)"
cargo test -q -p pos-loadgen --test fast_vs_eventful

# The random-chain slice of the oracle (MoonGen → 0–2 bridges/routers →
# MoonGen, random sizes, rates and seeds) guards the engine's hop
# plumbing — resolved egress and run-batched inline delivery — beyond
# the case study's one chain; it is part of the file above and repeated
# by name so the gate stays loud if someone filters tests.
echo "==> fast-vs-eventful random chains"
cargo test -q -p pos-loadgen --test fast_vs_eventful random_chains_match_eventful_reference

# The router's service draws have two paths too: a router without
# preemption draws its jitter multipliers a block at a time, every other
# one per packet, and both round through `SimDuration::from_nanos_rounded`
# in place of `f64::round`. Each fast path is checked against its
# reference, bit for bit; repeated by name like the oracle above.
echo "==> service-draw oracles (block draws, fill_lognormal, from_nanos_rounded)"
cargo test -q -p pos-netsim --lib block_drawn_service_matches_on_demand
cargo test -q -p pos-simkernel --lib fill_lognormal
cargo test -q -p pos-simkernel --lib from_nanos_rounded

# The oracle compares two paths of one build; the golden pins the case
# study's output across versions (router stats, TX/RX frames, interval
# buckets, a checksum over the latency samples).
echo "==> case-study golden (crates/loadgen/tests/case_study_golden.rs)"
cargo test -q -p pos-loadgen --test case_study_golden

# The event queue's timing wheel is a fast path too; its reference is the
# binary-heap model, replayed on the same schedules. Repeated by name like
# the oracle above.
echo "==> timing-wheel oracle (crates/simkernel/tests/wheel_vs_heap.rs)"
cargo test -q -p pos-simkernel --test wheel_vs_heap

# The crash matrix is the durability contract: kill the controller at every
# journal record boundary (cleanly and with torn tails), resume, and demand a
# byte-identical result tree. It runs as part of the workspace suite above;
# repeating it by name here keeps the gate loud if someone filters tests.
echo "==> crash matrix (tests/crash_matrix.rs)"
cargo test -q --test crash_matrix

# The failover half of that contract: kill the scheduler at every append in
# the failover record window (LaneRetired / RunRetry / RunQuarantined),
# resume, and demand byte-identity with an uninterrupted faulted campaign.
echo "==> failover crash matrix (tests/parallel_determinism.rs)"
cargo test -q --test parallel_determinism crash_mid_failover_resumes_to_identical_tree
cargo test -q --test parallel_determinism interrupted_failover_strands_run_and_fsck_flags_it

# The storage half: ENOSPC / torn writes / fsync failures at every journal
# boundary plus bit-flip rot, recovered to byte-identity via resume + scrub.
echo "==> disk-fault matrix (tests/disk_fault_matrix.rs)"
cargo test -q --test disk_fault_matrix

# The DAG half: the linux-router DAG executed at several lane counts must
# leave byte-identical trees; a kill at every
# DAG-journal record boundary (clean + torn) followed by `resume_dag` must
# converge to that same tree with `fsck_dag` calling it clean.
echo "==> DAG crash matrix (tests/dag_determinism.rs)"
cargo test -q --test dag_determinism

# The daemon half: kill `pos serve` at every queue-ledger append boundary
# (and at campaign-journal boundaries) during a multi-user submission storm,
# and a DAG tenant at every ledger and DAG-journal boundary, restart, and
# demand byte-identical trees versus an uninterrupted daemon.
echo "==> serve restart matrix (tests/serve_restart_matrix.rs)"
cargo test -q --test serve_restart_matrix

# The offline front end of the same engine: `kill -9` a `pos queue drain`
# mid-campaign, drain again, and demand both submissions complete with a
# clean ledger.
echo "==> queue kill-mid-drain (tests/cli.rs)"
cargo test -q --test cli cli_queue_drain_survives_kill

# The matrices prove byte-identical trees within one build; the golden pins
# the journal frame bytes across versions — a campaign, a DAG and a ledger
# record each, decoded back through the vocabulary that owns it — so trees
# and ledgers an earlier version left stay readable.
echo "==> journal-format golden (tests/journal_format_golden.rs)"
cargo test -q --test journal_format_golden

# The goldens above pin parts of the output; this one pins whole result
# trees across versions: the sorted (path, SHA-256) listing of a pos, a
# vpos, a --lanes 2, a chaos and a DAG tree against tests/tree_golden.txt
# (x86_64 Linux). Refactor and perf changes must leave it untouched.
echo "==> tree golden (tests/tree_golden.rs)"
cargo test -q --test tree_golden

# Flake gate: the four matrices above are the oracle every refactor is
# judged by, so one green pass is not enough — they must stay green under a
# wide parallel harness, run after run.
echo "==> matrix flake gate (4 matrices x5, --test-threads=16)"
for i in 1 2 3 4 5; do
    for matrix in crash_matrix disk_fault_matrix dag_determinism serve_restart_matrix; do
        echo "    pass $i: $matrix"
        cargo test -q --test "$matrix" -- --test-threads=16
    done
done

# Scrub smoke, end to end through the CLI: corrupt one artifact of a real
# result tree with dd, demand that `pos scrub` detects it (nonzero exit),
# `pos scrub --repair` heals it, and the tree then scrubs and fscks clean.
echo "==> scrub smoke (pos scrub detect + repair)"
POS=target/release/pos
SCRUB_DIR=$(mktemp -d)
"$POS" init "$SCRUB_DIR/exp" >/dev/null
cat >"$SCRUB_DIR/exp/loop-variables.yml" <<'EOF'
pkt_rate:
- 10000
pkt_sz:
- 64
- 1500
EOF
cat >"$SCRUB_DIR/exp/global-variables.yml" <<'EOF'
dut_ip0: 10.0.0.1
dut_ip1: 10.0.1.1
run_secs: 1
EOF
"$POS" run "$SCRUB_DIR/exp" --results "$SCRUB_DIR/res" >/dev/null
TREE=$(dirname "$(find "$SCRUB_DIR/res" -name journal.log)")
printf 'X' | dd of="$TREE/run-0000/loadgen_measurement.log" \
    bs=1 count=1 conv=notrunc 2>/dev/null
if "$POS" scrub "$TREE" >/dev/null 2>&1; then
    echo "scrub smoke: corruption went undetected" >&2
    exit 1
fi
"$POS" scrub "$TREE" --repair >/dev/null
"$POS" scrub "$TREE" >/dev/null
"$POS" fsck "$TREE" >/dev/null
rm -rf "$SCRUB_DIR"

# DAG smoke, end to end through the CLI: scaffold the 3-stage case-study
# DAG, check `pos dag viz` golden lines in both formats, run it small at 2
# lanes on a non-default seed, viz + fsck the result tree, and resume it
# with no flags through both `pos dag resume` and `pos resume` (the journal
# supplies the seed; a complete tree must be a verified no-op
# fast-forward, not a rerun).
echo "==> dag smoke (pos dag init + viz golden + run + fsck + resume)"
DAG_DIR=$(mktemp -d)
"$POS" dag init "$DAG_DIR/exp" >/dev/null
"$POS" dag viz "$DAG_DIR/exp" | grep -q 'scatter x' || {
    echo "dag smoke: ascii viz lost its scatter edge" >&2
    exit 1
}
"$POS" dag viz "$DAG_DIR/exp" | grep -q '==gather==>' || {
    echo "dag smoke: ascii viz lost its gather edge" >&2
    exit 1
}
"$POS" dag viz "$DAG_DIR/exp" --format dot | grep -q '^digraph ' || {
    echo "dag smoke: dot viz is not a digraph" >&2
    exit 1
}
"$POS" dag viz "$DAG_DIR/exp" --format dot | grep -q 'cluster_testbed' || {
    echo "dag smoke: dot viz lost the testbed cluster" >&2
    exit 1
}
cat >"$DAG_DIR/exp/loop-variables.yml" <<'EOF'
pkt_rate:
- 10000
- 20000
pkt_sz:
- 64
- 1500
EOF
cat >"$DAG_DIR/exp/global-variables.yml" <<'EOF'
dut_ip0: 10.0.0.1
dut_ip1: 10.0.1.1
run_secs: 1
EOF
"$POS" dag run "$DAG_DIR/exp" --results "$DAG_DIR/res" --lanes 2 --seed 9 >/dev/null
DAG_TREE=$(dirname "$(find "$DAG_DIR/res" -name dag.yml)")
test -s "$DAG_TREE/stage-eval/figures/eval.svg"
"$POS" dag viz "$DAG_TREE" | grep -q 'wave 0: \[setup setup\]' || {
    echo "dag smoke: result-tree viz lost its setup wave" >&2
    exit 1
}
"$POS" fsck "$DAG_TREE" >/dev/null
"$POS" dag resume "$DAG_TREE" | grep -q 'verified, skipped' || {
    echo "dag smoke: resume of a complete DAG re-ran instead of verifying" >&2
    exit 1
}
"$POS" resume "$DAG_TREE" | grep -q 'verified, skipped' || {
    echo "dag smoke: pos resume of a complete DAG re-ran instead of verifying" >&2
    exit 1
}
rm -rf "$DAG_DIR"

# Serve smoke, end to end through the real binary: start the daemon, submit
# over HTTP, kill -9 mid-service, restart on the same state dir, and demand
# that the acknowledged submission completes anyway (journal-before-ack).
# Then: token dedupe across the restart, a SIGTERM drain that must exit 0,
# and a ledger fsck of the state dir.
echo "==> serve smoke (kill -9 + restart + SIGTERM drain via pos serve)"
SERVE_DIR=$(mktemp -d)
"$POS" init "$SERVE_DIR/exp" >/dev/null
cat >"$SERVE_DIR/exp/loop-variables.yml" <<'EOF'
pkt_rate:
- 10000
pkt_sz:
- 64
EOF
cat >"$SERVE_DIR/exp/global-variables.yml" <<'EOF'
dut_ip0: 10.0.0.1
dut_ip1: 10.0.1.1
run_secs: 1
EOF
serve_wait_addr() {
    i=0
    while [ ! -s "$SERVE_DIR/state/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "serve smoke: daemon never published its address" >&2
            exit 1
        fi
        sleep 0.1
    done
    cat "$SERVE_DIR/state/addr"
}
"$POS" serve --state "$SERVE_DIR/state" --results "$SERVE_DIR/res" \
    >"$SERVE_DIR/serve1.log" 2>&1 &
SERVE_PID=$!
ADDR=$(serve_wait_addr)
"$POS" queue submit "$SERVE_DIR/exp" --daemon "$ADDR" --token smoke-1 >/dev/null
# The ack means the submission is durable in the ledger: a kill -9 right
# now — before, during, or after the campaign — must not lose it.
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
rm -f "$SERVE_DIR/state/addr"
"$POS" serve --state "$SERVE_DIR/state" --results "$SERVE_DIR/res" \
    >"$SERVE_DIR/serve2.log" 2>&1 &
SERVE_PID=$!
ADDR=$(serve_wait_addr)
i=0
until "$POS" queue status --daemon "$ADDR" | grep -q '^completed: 1'; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "serve smoke: submission did not complete after restart" >&2
        "$POS" queue status --daemon "$ADDR" >&2 || true
        exit 1
    fi
    sleep 0.2
done
"$POS" queue submit "$SERVE_DIR/exp" --daemon "$ADDR" --token smoke-1 \
    | grep -q 'already queued' || {
    echo "serve smoke: idempotency token did not dedupe across restart" >&2
    exit 1
}
kill -TERM "$SERVE_PID"
SERVE_EXIT=0
wait "$SERVE_PID" || SERVE_EXIT=$?
if [ "$SERVE_EXIT" -ne 0 ]; then
    echo "serve smoke: drain of a completed daemon exited $SERVE_EXIT, want 0" >&2
    cat "$SERVE_DIR/serve2.log" >&2 || true
    exit 1
fi
"$POS" fsck "$SERVE_DIR/state" >/dev/null
rm -rf "$SERVE_DIR"

# Bench trajectory: each bench binary runs in a scratch directory at the
# sizes its committed BENCH_*.json (repository root) was generated at, and
# `bench-compare` judges the fresh output against the committed one: every
# count, virtual-time figure and key must match exactly, a `_per_sec`
# throughput must stay above a fixed fraction of its committed value, and
# `_us` / `_ms` wall times are only reported. To regenerate after a
# deliberate change, run the same commands from the repository root and
# commit the rewritten files.
if [ "${POS_CI_SKIP_BENCH:-0}" != "1" ]; then
    BIN=$PWD/target/release
    BENCH_DIR=$(mktemp -d)
    bench() {
        name=$1
        shift
        echo "==> bench: $name (vs committed BENCH_$name.json)"
        (cd "$BENCH_DIR" && env "$@" "$BIN/$name" >/dev/null)
        "$BIN/bench-compare" "BENCH_$name.json" "$BENCH_DIR/BENCH_$name.json"
    }
    # Sweep + chaos campaign + resume + lane failover + scrub/ENOSPC.
    bench robustness POS_RUN_SECS=0.05 POS_CHAOS_RUN_SECS=5 POS_FAILOVER_RUN_SECS=2
    # Lane-count speedup + merge overhead. The shrunk rate keeps the packet
    # simulation cheap; the virtual-time speedup is rate-independent.
    bench parallel POS_PAR_RATE=2000
    # Admission latency + stride fairness + restart replay.
    bench serve POS_SERVE_STORM=24
    # Node dispatch + DAG and raw-sweep wall time + gather barrier.
    bench dag POS_DAG_RUN_SECS=1 POS_DAG_RATE_STEPS=3
    # Event-queue churn + packet path. One virtual second per packet row
    # keeps even the vpos row near 100 ms of wall time, so its committed
    # rate is a steady reference rather than one noisy 10 ms sample.
    bench kernel POS_KERNEL_EVENTS=1000000 POS_KERNEL_RUN_SECS=1.0
    rm -rf "$BENCH_DIR"
fi

echo "==> ci: OK"
