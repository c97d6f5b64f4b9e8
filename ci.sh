#!/usr/bin/env bash
# Repository CI: formatting, lints, doc links, the tier-1 test suite (which
# holds every quick-profile paper figure byte for byte to its committed
# golden, crates/bench/tests/figures.quick.json, in both build modes), a
# traced ping-pong smoke test proving the observability path works end to
# end, the figure/telemetry/overload smokes and the repo-benchmark smoke.
#
#   ./ci.sh          # everything
#   ./ci.sh --fast   # skip the release build
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n=== %s ===\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy (default features)"
# --all-targets lints the test suites and examples too.
cargo clippy --workspace --all-targets -- -D warnings

step "cargo clippy (trace feature)"
cargo clippy --workspace --all-targets --features trace -- -D warnings

step "cargo doc (broken intra-doc links)"
# Clippy does not check doc links; a renamed type would leave dead ones.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

step "connection core purity"
# crates/core/src/conn_core.rs decides the stream credit protocol with no
# I/O: it may name none of the simulator, EMP, host, NIC or lock crates.
if grep -nwE 'simnet|emp_proto|hostsim|tigon_nic|parking_lot' crates/core/src/conn_core.rs; then
    echo "FAIL: conn_core.rs names an I/O crate"
    exit 1
fi

step "one thread in the types"
# A simulation runs on its `run*` caller's thread, and the simulated crates
# say so in their types: no non-test line under crates/*/src or
# vendor/bytes/src (the `Bytes` every payload is; each file up to its
# first `#[cfg(test)]`) names a lock, an atomic or an unsafe Send/Sync
# impl. Task wakers, which must be `Send + Sync`, hold plain data
# (emp-async's `TaskWaker`). The one exception, with its reason:
# * hostsim's `Host::memory` is a `parking_lot::Mutex<MemoryRegistry>`,
#   because the repo benchmark (benchmark/src/harness.rs) calls `.lock()`
#   on it; its field, its accessor and the `memory().lock()` calls pass.
if find crates/*/src vendor/bytes/src -name '*.rs' -print0 \
    | xargs -0 awk 'FNR==1{skip=0} /^#\[cfg\(test\)\]/{skip=1} !skip{print FILENAME ":" FNR ": " $0}' \
    | grep -E 'parking_lot|Mutex|\.lock\(\)|Atomic[A-Za-z0-9]*|unsafe impl (Send|Sync)' \
    | grep -vE '^crates/hostsim/src/host\.rs:[0-9]+: .*(MemoryRegistry|Host::memory)|memory\(\)\.lock\(\)'; then
    echo "FAIL: a simulated crate names a lock, an atomic or an unsafe Send/Sync impl"
    exit 1
fi

if [[ "${1:-}" != "--fast" ]]; then
    step "cargo build --release"
    cargo build --release
fi

# The two workspace steps run every suite of every member, each member
# with its `trace` feature on in the second — among them these, which
# earlier ran a third and fourth time as stages of their own:
# * connection core (sockets-emp `conn_core` unit tests): a breadth-first
#   explorer runs two ConnCores over an abstract NIC through every
#   interleaving, preset pairing and N <= 4, acceptors configured with
#   another N than their client's among them, stepping each write
#   (nonblocking ones too), flush, shutdown_write and close through the
#   driver's own sequence (`ConnCore::step`), and checks the credit
#   invariants in every state and that every state can still finish.
# * chaos (sockets-emp `lossy`, emp-proto `reliability` and `piggyback`):
#   the substrate robustness suite (seeded fault injection, vanished-peer
#   detection), EMP's own loss recovery (selective repeat, RTT-measured
#   timeout, a slow receiver not mistaken for loss) and EMP's ack
#   piggy-backing (a lost carrier frame recovered, a one-way stream
#   untouched). Loss is also what exercises the transmit window's
#   accounting: a fragment the receiver already holds leaves the
#   in-flight window, so one hole no longer throttles the frames behind
#   it (the emp-proto unit tests check the window against its records
#   after every step of a hole-and-rewind sequence).
# * descriptor re-arms (sockets-emp `rearm`): under the §6.1 switch a
#   consumed data descriptor is re-armed by the send that returns its
#   credit: every consumed descriptor comes back, a stream stays
#   byte-exact, a close with re-arms pending leaks no buffer, and the
#   presets still repost at consume time.
# * receive windows (sockets-emp `window`): under the same switch each
#   direction's window starts at two descriptors and grows to N once,
#   when its sender has used both: request/response traffic keeps two for
#   life, a stream grows at its second message, the growth costs exactly
#   N - 2 descriptor posts, a preset and a default peer agree either way,
#   and churn or a close racing the growth strands nothing.
# * connection rider (sockets-emp `rider`): under the same switch a
#   stream connect's request waits for the first operation: a first
#   write of 1..=FIRST_MAX bytes rides inside it, every other first
#   operation sends it bare, every backlog slot (replacements included)
#   fits a request with data, a preset listener accepts one, a blocking
#   connect never carries data, and nothing leaks.
# * adaptive copy policy (sockets-emp `fastpath`): the default data
#   path's copy decisions: direct delivery to posted readers, staged
#   small writes and their deadline, and a long write that returns with
#   its copied tail in flight while the presets keep one zero-copy
#   message they wait out. The deadline defers while a full message of
#   the connection is unacknowledged: a busy 64 B stream must reach
#   messages of at least 32 KiB with the writer's NIC queue bounded, and
#   a staged tail the writer never flushes must still arrive within
#   drain + one deadline + one one-way latency (the deferral re-arms; one
#   that does not leaves that test deadlocked).
step "cargo test (tier-1, default features)"
# Includes the server-model suites (all I/O models, both stacks, byte-exact).
cargo test --workspace -q

step "cargo test (trace feature)"
cargo test --workspace -q --features trace

step "cargo test --release (simnet, emp-async)"
# A release build keeps live values in callee-saved registers across calls,
# so a register the process stack switch fails to save shows up here first
# (simnet's `parked_processes_keep_their_registers_and_rounding_mode`).
cargo test --release -q -p simnet -p emp-async

step "allocation budget (debug and release)"
# The steady-state data path allocates within a budget per executed event
# and copies where the modelled system copies (emp-apps `alloc_budget`,
# which the tier-1 step ran in debug); an optimised build may allocate
# differently, so it is held to the same budget. The vendored `Bytes`
# (outside the workspace) carries the unit tests of its copy and
# allocation contract.
cargo test --release -q -p emp-apps --test alloc_budget
cargo test -q --offline --manifest-path vendor/bytes/Cargo.toml

step "traced ping-pong smoke"
# Must print a latency budget and a non-empty Chrome trace.
out=$(cargo run -q --release -p emp-bench --bin figures --features trace -- --trace)
echo "$out"
echo "$out" | grep -q "latency breakdown over" \
    || { echo "FAIL: no breakdown report in traced run"; exit 1; }
events=$(echo "$out" | sed -n 's/^(\([0-9]\+\) events.*/\1/p')
[[ -n "$events" && "$events" -gt 0 ]] \
    || { echo "FAIL: traced run recorded no events"; exit 1; }
[[ -s target/figures/pingpong_trace.json ]] \
    || { echo "FAIL: chrome trace file missing or empty"; exit 1; }
echo "$out" | grep -q "fault counters: wire_drops=" \
    || { echo "FAIL: no fault-counter report in traced run"; exit 1; }
# The fabric is lossless: nothing may be retransmitted.
echo "$out" | grep -q "fault counters: .* retransmits=0 " \
    || { echo "FAIL: retransmissions on a lossless traced run"; exit 1; }

step "data-path default-vs-preset perf smoke"
# Perf stage: the two fast-path figures run SubstrateConfig::ds_da_uq()
# against SubstrateConfig::default(). The default must collapse the
# 64-byte substrate message count (and with it win bandwidth) and must
# skip every temp-buffer copy for posted readers but one: a first ping
# that fits the connection request (up to proto::FIRST_MAX bytes, which
# each summary line prints as first_max) rides in it and is buffered at
# accept, so exactly its bytes are copied at each such size (DESIGN §12) — in the default build and, because trace
# hooks ride the same code paths, the traced one.
perf_smoke() {
    local features=() label="$1"
    [[ "$label" == trace ]] && features=(--features emp-bench/trace)
    local out
    out=$(cargo run -q --release -p emp-bench --bin figures "${features[@]}" \
        -- --quick small-message-throughput copy-avoidance)
    echo "$out" | grep -E '^(small-message-throughput|copy-avoidance):'
    echo "$out" | awk -v label="$label" '
        /^small-message-throughput: 64B/ {
            split($0, f); smt = 1
            for (i in f) {
                if (f[i] ~ /^ds_da_uq=/) { sub(/.*=/, "", f[i]); preset = f[i] + 0 }
                if (f[i] ~ /^default=/)  { sub(/.*=/, "", f[i]); dflt   = f[i] + 0 }
            }
            if (!(dflt > 0 && dflt < preset)) {
                printf "FAIL(%s): default() did not cut 64B msgs_sent (ds_da_uq=%d default=%d)\n", label, preset, dflt
                bad = 1
            }
        }
        /^copy-avoidance:/ {
            ca = 1
            for (i = 1; i <= NF; i++) {
                if ($i ~ /^copies_avoided=/) { v = $i; sub(/.*=/, "", v); avoided += v + 0 }
                if ($i ~ /^bytes_direct=/)   { v = $i; sub(/.*=/, "", v); direct += v + 0 }
                if ($i ~ /^bytes_received=/) { v = $i; sub(/.*=/, "", v); recvd += v + 0 }
                if ($i ~ /^first_max=/)      { v = $i; sub(/.*=/, "", v); first_max = v + 0 }
            }
            size = $2; sub(/B$/, "", size)
            if (size + 0 <= first_max) rider += size
        }
        END {
            if (!smt) { printf "FAIL(%s): no 64B small-message summary line\n", label; bad = 1 }
            if (!ca)  { printf "FAIL(%s): no copy-avoidance summary lines\n", label; bad = 1 }
            if (ca && !(avoided > 0)) { printf "FAIL(%s): copies_avoided == 0 under default()\n", label; bad = 1 }
            if (ca && recvd - direct != rider) {
                printf "FAIL(%s): posted-reader sweep copied %d bytes under default(), not the %d of the first pings riding connection requests\n", label, recvd - direct, rider
                bad = 1
            }
            exit bad
        }' || { echo "FAIL: perf smoke ($label build)"; exit 1; }
}
perf_smoke default
perf_smoke trace

step "telemetry smoke (empstat)"
# Observability stage: the always-on stats registry must fill with real
# data — non-zero latency histograms and sampled time series — in the
# default build and the traced one, and the JSON export must parse. The
# self-check also gates that the default data path is the one taken
# (sock.coalesce_flushes, sock.piggybacked_credits, sock.rearms_ridden,
# sock.copies_avoided, sock.conn_riders and EMP's acks_piggybacked all
# > 0), that no
# connection closed with staged bytes or an unpaid timer flush
# (sock.stranded_bytes, sock.unpaid_flush_debt_ns == 0) and that no credit
# left without its descriptor re-armed (sock.credits_without_rearm == 0).
mkdir -p target/figures
telemetry_smoke() {
    local features=() label="$1"
    [[ "$label" == trace ]] && features=(--features emp-bench/trace)
    local err
    err=$(cargo run -q --release -p emp-bench --bin empstat "${features[@]}" \
        -- --json 2>&1 >target/figures/empstat.json) \
        || { echo "FAIL: empstat self-check ($label build)"; echo "$err"; exit 1; }
    echo "$err" | grep -q "empstat self-check ok" \
        || { echo "FAIL($label): no self-check line from empstat"; exit 1; }
    grep -q '"app.rtt_ns"' target/figures/empstat.json \
        || { echo "FAIL($label): empstat json missing rtt histogram"; exit 1; }
    echo "empstat($label): ${err##*$'\n'}"
}
telemetry_smoke default
telemetry_smoke trace

step "telemetry overhead budget"
# The always-on instrumentation must cost under 2% of a ping-pong run;
# empstat --overhead exits non-zero past the budget.
cargo run -q --release -p emp-bench --bin empstat -- --overhead \
    || { echo "FAIL: telemetry overhead above budget"; exit 1; }

step "overload smoke (connect storm + slowloris)"
# Robustness stage: a past-saturation connect storm with slowloris on
# both stacks, in both build modes. empstat --overload exits non-zero
# unless admission control refused connections while real clients were
# still served (refused > 0 && goodput > 0), the refusals are visible
# as telemetry counters, the idle reaper removed the slowloris
# connections, and no connections or listeners leaked. Registered
# ring buffers are covered by the telemetry smoke above: its
# self-check fails if any ring.* gauge reads non-zero after drain.
overload_smoke() {
    local features=() label="$1"
    [[ "$label" == trace ]] && features=(--features emp-bench/trace)
    local out
    out=$(cargo run -q --release -p emp-bench --bin empstat "${features[@]}" -- --overload) \
        || { echo "FAIL: overload smoke ($label build)"; exit 1; }
    echo "$out" | sed "s/^/empstat($label): /"
    echo "$out" | grep -q "overload smoke ok" \
        || { echo "FAIL($label): no overload-smoke ok line"; exit 1; }
}
overload_smoke default
overload_smoke trace

step "benchmark smoke"
# The repo benchmark at 1/20 size: every workload on both builds, payloads
# byte-verified, drains checked, metric names validated against
# BENCHMARK.json. It builds its own package (benchmark/Cargo.lock) into
# benchmark/target, so it also proves that package still compiles against
# the workspace crates.
benchmark/run.sh --smoke \
    || { echo "FAIL: benchmark smoke"; exit 1; }

printf '\nci.sh: all checks passed\n'
