#!/usr/bin/env bash
# Tier-1 verification gate: everything CI runs, runnable locally.
#
#   scripts/verify.sh          # full gate
#   scripts/verify.sh --quick  # skip the release build (lints + tests)
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

# "Said once": each shared primitive lives in crates/base. A re-copy
# fails here by name, with the offending file:line, before anything
# builds (so --quick runs it too).
echo "==> said-once gate (primitives live in crates/base)"
said_once() { # <what> <fixed-string pattern> <allowed path prefix>...
    local what=$1 pattern=$2 hits
    shift 2
    hits=$(grep -rnF --include='*.rs' -e "$pattern" crates src || true)
    for allowed in "$@"; do
        hits=$(grep -v "^$allowed" <<< "$hits" || true)
    done
    if [[ -n "$hits" ]]; then
        echo "said-once: $what re-copied outside $*:" >&2
        echo "$hits" >&2
        exit 1
    fi
}
said_once "the splitmix64 finalizer" '>> 30)).wrapping_mul' \
    crates/base/src/hash.rs crates/traffic/src/picker.rs
said_once "the CRC-32 polynomial" 'EDB8_8320' crates/base/src/
said_once "the metrics exposition format" '"# TYPE' crates/base/src/
for manifest in crates/store/Cargo.toml crates/query/Cargo.toml; do
    if grep -n "lockdown-collect" "$manifest" >&2; then
        echo "said-once: $manifest depends on the collection plane again" >&2
        exit 1
    fi
done

if [[ $quick -eq 0 ]]; then
    echo "==> cargo build --release --workspace"
    cargo build --release --workspace
fi

echo "==> cargo test --workspace"
cargo test --workspace --quiet

# The benchmark is a package of its own (outside the workspace, building
# against vendored stand-ins): its tests drive every workload once and
# byte-compare all 22 sections against the suite.
echo "==> lockbench plumbing and byte-identity check"
cargo test --manifest-path lockbench/Cargo.toml --quiet

echo "==> cargo fmt --check"
cargo fmt --all --check

# Offline containers patch criterion with an API-less stub via an
# untracked .cargo/config.toml ([patch.crates-io]); criterion bench
# targets only compile against the real crate, so scope clippy down and
# skip the bench smoke when the stub is in play. CI has no such config
# and runs both in full.
criterion_stubbed=0
grep -qs "^criterion.*path" .cargo/config.toml && criterion_stubbed=1

echo "==> cargo clippy -D warnings"
if [[ $criterion_stubbed -eq 1 ]]; then
    cargo clippy --workspace --lib --bins --tests --examples -- -D warnings
else
    cargo clippy --workspace --all-targets -- -D warnings
fi

if [[ $quick -eq 0 ]]; then
    if [[ $criterion_stubbed -eq 1 ]]; then
        echo "==> bench smoke skipped (criterion stubbed offline)"
    else
        echo "==> bench smoke (cargo bench -- --test)"
        cargo bench -p lockdown-bench -- --test
    fi

    echo "==> wire-mode zero-fault equality (audited)"
    plain=$(mktemp)
    wired=$(mktemp)
    trap 'kill "${serve_pid:-}" "${wc_worker_pid:-}" "${wc_proxy_pid:-}" 2>/dev/null || true; rm -f "$plain" "$wired" "${cold:-}" "${warm:-}" "${qctl:-}" "${pctl:-}" "${sharded:-}" "${shwarm:-}" "${killed:-}" "${resumed_wire:-}"; rm -rf "${arch:-}" "${sharch:-}" "${march:-}"' EXIT
    ./target/release/lockdown figures --fidelity test > "$plain"
    # --audit makes a conservation violation a hard failure (non-zero exit)
    # on top of the byte-identity diff; the report lands in the artifact.
    mkdir -p target/audit
    ./target/release/lockdown figures --fidelity test --wire --audit \
        > "$wired" 2> target/audit/zero-fault.txt
    diff -u "$plain" "$wired"

    echo "==> wire-mode faulted audit balance"
    ./target/release/lockdown collect --fidelity test --audit \
        --loss 0.1 --dup 0.04 --reorder 0.05 --restart 6 \
        2> target/audit/faulted.txt > /dev/null

    echo "==> archive cold/warm byte-identity"
    arch=$(mktemp -d)
    cold=$(mktemp)
    warm=$(mktemp)
    mkdir -p target/store
    ./target/release/lockdown figures --fidelity test --archive "$arch" \
        > "$cold" 2> target/store/cold-stderr.txt
    ./target/release/lockdown figures --fidelity test --archive "$arch" \
        > "$warm" 2> target/store/warm-stderr.txt
    # The whole point of the store: replay must be byte-identical to
    # generation, and must generate nothing.
    diff -u "$cold" "$warm"
    grep -q "0 cells generated once" target/store/warm-stderr.txt
    diff -u "$plain" "$warm"
    ./target/release/lockdown store verify --archive "$arch" \
        > target/store/verify-report.txt
    cp "$arch/manifest.lks" target/store/manifest.lks

    echo "==> scenario DSL golden byte-identity (shipped TOML == builtin)"
    scen=$(mktemp)
    ./target/release/lockdown figures --fidelity test \
        --scenario scenarios/covid-spring-2020.toml > "$scen"
    diff -u "$plain" "$scen"
    rm -f "$scen"

    echo "==> query plane: serve + 1000-client loadgen gate (BENCH_query.json)"
    mkdir -p target/query
    cp "$plain" target/query/expected.txt
    qctl=$(mktemp -u)
    mkfifo "$qctl"
    # The FIFO keeps serve's stdin open; closing fd 9 is the shutdown
    # signal (stdin EOF), so a clean exit 0 proves graceful shutdown.
    ./target/release/lockdown serve --fidelity test --archive "$arch" \
        --addr 127.0.0.1:0 < "$qctl" > target/query/serve-stdout.txt \
        2> target/query/serve-stderr.txt &
    serve_pid=$!
    exec 9> "$qctl"
    for _ in $(seq 1 100); do
        grep -q "serving on" target/query/serve-stdout.txt 2> /dev/null && break
        sleep 0.1
    done
    qaddr=$(grep -m1 -oE "[0-9.]+:[0-9]+" target/query/serve-stdout.txt)
    # --expect gates on byte-identity: every served figure must reassemble
    # to the engine's own stdout, or loadgen exits 4 and set -e fails us.
    ./target/release/lockdown loadgen --target "$qaddr" --clients 1000 \
        --duration 2 --expect target/query/expected.txt > BENCH_query.json
    cat BENCH_query.json
    # Latency ceiling: p99 over 5s (release, test fidelity runs ~100x
    # lower) means something is badly wrong, not merely slow CI.
    p99=$(grep -oE '"p99_us": [0-9]+' BENCH_query.json | grep -oE "[0-9]+$")
    [[ "$p99" -lt 5000000 ]] || {
        echo "loadgen p99 ${p99}us over the 5s ceiling" >&2
        exit 1
    }
    exec 9>&-
    wait "$serve_pid"
    serve_pid=
    rm -f "$qctl"
    # Pushdown must be observable in the served metrics snapshot.
    pruned=$(grep -m1 -E "^query_segments_pruned_total" \
        target/query/serve-stderr.txt | grep -oE "[0-9]+$")
    [[ "$pruned" -gt 0 ]] || {
        echo "query plane served without pruning any segment" >&2
        exit 1
    }

    echo "==> 2-scenario matrix: lanes are plain passes, archived per lane"
    mkdir -p target/matrix
    march=$(mktemp -d)
    ./target/release/lockdown scenarios --matrix \
        scenarios/covid-spring-2020.toml scenarios/hypergiant-outage.toml \
        --fidelity test --archive "$march" --out target/matrix \
        2> target/matrix/stderr.txt
    # Lane 0 (the reference calibration) is byte-identical to a plain run;
    # the counterfactual lane must actually diverge.
    diff -u "$plain" target/matrix/00-covid-spring-2020.txt
    if cmp -s target/matrix/00-covid-spring-2020.txt \
        target/matrix/01-hypergiant-outage.txt; then
        echo "matrix lanes must differ" >&2
        exit 1
    fi
    grep -q "sections differ" target/matrix/stderr.txt
    # Every lane replays from its own archive: a second sweep generates
    # nothing and writes the same bytes.
    ./target/release/lockdown scenarios --matrix \
        scenarios/covid-spring-2020.toml scenarios/hypergiant-outage.toml \
        --fidelity test --archive "$march" --out target/matrix/warm \
        2> target/matrix/warm-stderr.txt
    grep -q "matrix: 2 scenarios, 0 cells generated" target/matrix/warm-stderr.txt
    diff -u target/matrix/00-covid-spring-2020.txt target/matrix/warm/00-covid-spring-2020.txt
    diff -u target/matrix/01-hypergiant-outage.txt target/matrix/warm/01-hypergiant-outage.txt
    rm -rf "$march"

    echo "==> chaos smoke: zero-chaos supervision is byte-identical"
    mkdir -p target/chaos
    supervised=$(mktemp)
    ./target/release/lockdown figures --fidelity test --chaos seed=0 \
        > "$supervised" 2> target/chaos/zero-chaos-stderr.txt
    diff -u "$plain" "$supervised"
    rm -f "$supervised"

    echo "==> chaos smoke: seeded faults degrade (exit 3) with a report"
    set +e
    ./target/release/lockdown figures --fidelity test \
        --chaos seed=7,panic=0.9,attempts=1,backoff=0 \
        > target/chaos/degraded-stdout.txt 2> target/chaos/degraded-report.txt
    chaos_exit=$?
    set -e
    [[ $chaos_exit -eq 3 ]] || {
        echo "expected degraded exit 3, got $chaos_exit" >&2
        exit 1
    }
    grep -q "DEGRADED PASS" target/chaos/degraded-report.txt
    grep -q "quarantined \[wire" target/chaos/degraded-report.txt
    grep -q "\[degraded:" target/chaos/degraded-stdout.txt

    echo "==> chaos smoke: audited zero-chaos run stays clean"
    ./target/release/lockdown figures --fidelity test --wire --audit \
        --chaos seed=0 > /dev/null 2> target/chaos/audited-stderr.txt

    echo "==> checkpoint/resume: a killed archived pass resumes"
    # The journal IS a partial manifest (same encoding), so renaming the
    # manifest and dropping segments reconstructs the kill -9 state.
    mv "$arch/manifest.lks" "$arch/journal.lks"
    for seg in $(ls "$arch/segments" | sort | sed 3q); do
        rm "$arch/segments/$seg"
    done
    resumed=$(mktemp)
    ./target/release/lockdown figures --fidelity test --archive "$arch" \
        --chaos seed=0 > "$resumed" 2> target/chaos/resume-stderr.txt
    diff -u "$plain" "$resumed"
    grep -q "3 cells generated once" target/chaos/resume-stderr.txt
    grep -Eq "[0-9]+ resumed" target/chaos/resume-stderr.txt
    rm -f "$resumed"

    echo "==> store gc on a manifest-less archive (--dry-run first)"
    mv "$arch/manifest.lks" "$arch/journal.lks"
    cp "$arch/segments/$(ls "$arch/segments" | sort | sed 1q)" \
        "$arch/segments/seg-99-99999-23.lks"
    # grep files, not pipes: grep -q closing the pipe mid-print would
    # EPIPE-panic the CLI under pipefail.
    ./target/release/lockdown store gc --archive "$arch" --dry-run \
        > target/chaos/gc-dry-run.txt
    grep -q "would remove 1" target/chaos/gc-dry-run.txt
    test -f "$arch/segments/seg-99-99999-23.lks"
    ./target/release/lockdown store gc --archive "$arch" \
        > target/chaos/gc-live.txt
    grep -q "removed 1" target/chaos/gc-live.txt
    test ! -f "$arch/segments/seg-99-99999-23.lks"

    echo "==> collectd smoke: stdin-EOF drain accounts a datagram"
    mkdir -p target/collectd
    coproc COLLECTD { ./target/release/lockdown collectd --sockets 1 \
        2> target/collectd/metrics.txt; }
    # Bash drops COLLECTD_PID once the coproc exits — save it while the
    # daemon is still alive so the wait below can collect its status.
    collectd_pid=$COLLECTD_PID
    read -r listen_line <&"${COLLECTD[0]}"
    caddr=${listen_line#listening on }
    # Nudge one garbage datagram at the bound port (bash /dev/udp),
    # then close stdin: the drain must account it as malformed.
    echo -n "not a flow export" > "/dev/udp/${caddr%:*}/${caddr#*:}"
    sleep 0.3
    exec {COLLECTD[1]}>&-
    summary=$(cat <&"${COLLECTD[0]}")
    wait "$collectd_pid"
    grep -q "1 datagrams received" <<< "$summary"
    grep -q "1 malformed" <<< "$summary"
    grep -q "socket_datagrams_received_total 1" target/collectd/metrics.txt

    echo "==> collectd soak numbers (BENCH_collect.json)"
    cargo run --release -q -p lockdown-bench --bin collect_json > BENCH_collect.json
    cat BENCH_collect.json
    grep -q '"audit_clean": true' BENCH_collect.json
    # Throughput floor: the localhost soak must sustain a million flow
    # records per second end-to-end (release build).
    fps=$(grep -oE '"flows_per_sec": [0-9]+' BENCH_collect.json | grep -oE "[0-9]+$")
    [[ "$fps" -ge 1000000 ]] || {
        echo "collectd soak at ${fps} flows/s, below the 1M floor" >&2
        exit 1
    }

    echo "==> shard smoke: 3-worker coordinate is byte-identical (+ one manifest)"
    mkdir -p target/shard
    sharch=$(mktemp -d)
    sharded=$(mktemp)
    ./target/release/lockdown coordinate --fidelity test --workers 3 \
        --archive "$sharch" > "$sharded" 2> target/shard/cold-stderr.txt
    diff -u "$plain" "$sharded"
    grep -q "coordinated 3 workers" target/shard/cold-stderr.txt
    grep -q "0 ranges quarantined" target/shard/cold-stderr.txt
    test -f "$sharch/manifest.lks"
    # The coordinator adopted every worker's segments into ONE manifest:
    # a single-process warm replay regenerates nothing and still matches.
    shwarm=$(mktemp)
    ./target/release/lockdown figures --fidelity test --archive "$sharch" \
        > "$shwarm" 2> target/shard/warm-stderr.txt
    diff -u "$plain" "$shwarm"
    grep -q "0 cells generated once" target/shard/warm-stderr.txt

    echo "==> shard smoke: seeded worker-kill reassigns, still byte-identical"
    killed=$(mktemp)
    ./target/release/lockdown coordinate --fidelity test --workers 3 \
        --chaos seed=0,wkill=0.2 > "$killed" 2> target/shard/kill-stderr.txt
    diff -u "$plain" "$killed"
    grep -Eq "[1-9][0-9]* reassigned" target/shard/kill-stderr.txt
    grep -q "0 ranges quarantined" target/shard/kill-stderr.txt

    echo "==> shard smoke: a quarantined range degrades (exit 3)"
    set +e
    ./target/release/lockdown coordinate --fidelity test --workers 3 \
        --chaos seed=3,wkill=0.08,attempts=1 \
        > target/shard/degraded-stdout.txt 2> target/shard/degraded-report.txt
    shard_exit=$?
    set -e
    [[ $shard_exit -eq 3 ]] || {
        echo "expected degraded exit 3, got $shard_exit" >&2
        exit 1
    }
    grep -q "DEGRADED PASS" target/shard/degraded-report.txt
    grep -Eq "[1-9][0-9]* ranges quarantined" target/shard/degraded-report.txt

    echo "==> shard bench numbers (BENCH_shard.json)"
    cargo run --release -q -p lockdown-bench --bin shard_json > BENCH_shard.json
    cat BENCH_shard.json

    echo "==> wire-chaos gate: mid-frame cut resumes over reconnect (byte-identical)"
    mkdir -p target/proxy
    # One real worker process; a seeded chaos proxy in front of it that
    # severs the first bulk result frame halfway. The coordinator must
    # reconnect and re-adopt the worker's retained slice: byte-identical
    # figures, >=1 resumed range, zero recomputed (reassigned) ranges.
    ./target/release/lockdown worker --listen 127.0.0.1:0 --fidelity test \
        < /dev/null > target/proxy/worker-stdout.txt \
        2> target/proxy/worker-stderr.txt &
    wc_worker_pid=$!
    for _ in $(seq 1 100); do
        grep -q "listening on" target/proxy/worker-stdout.txt 2> /dev/null && break
        sleep 0.1
    done
    waddr=$(grep -m1 -oE "[0-9.]+:[0-9]+" target/proxy/worker-stdout.txt)
    pctl=$(mktemp -u)
    mkfifo "$pctl"
    # The FIFO keeps the proxy's stdin open; closing fd 8 (stdin EOF)
    # shuts it down and flushes its fault tallies to stderr.
    ./target/release/lockdown chaosproxy --listen 127.0.0.1:0 \
        --upstream "$waddr" --chaos seed=1,cut-payload=512 < "$pctl" \
        > target/proxy/cut-proxy-stdout.txt \
        2> target/proxy/cut-proxy-metrics.txt &
    wc_proxy_pid=$!
    exec 8> "$pctl"
    for _ in $(seq 1 100); do
        grep -q "listening on" target/proxy/cut-proxy-stdout.txt 2> /dev/null && break
        sleep 0.1
    done
    paddr=$(grep -m1 -oE "[0-9.]+:[0-9]+" target/proxy/cut-proxy-stdout.txt)
    resumed_wire=$(mktemp)
    ./target/release/lockdown coordinate --fidelity test --attach "$paddr" \
        > "$resumed_wire" 2> target/proxy/cut-coord-stderr.txt
    diff -u "$plain" "$resumed_wire"
    grep -Eq "[1-9][0-9]* reconnects" target/proxy/cut-coord-stderr.txt
    grep -Eq "[1-9][0-9]* ranges resumed" target/proxy/cut-coord-stderr.txt
    grep -q " 0 reassigned" target/proxy/cut-coord-stderr.txt
    grep -q " 0 ranges quarantined" target/proxy/cut-coord-stderr.txt
    exec 8>&-
    wait "$wc_proxy_pid"
    wc_proxy_pid=
    wait "$wc_worker_pid"
    wc_worker_pid=
    # The one-shot cut is accounted as a truncation in the fault ledger.
    grep -q "wirechaos_truncated 1" target/proxy/cut-proxy-metrics.txt
    rm -f "$pctl" "$resumed_wire"

    echo "==> wire-chaos gate: certain corruption degrades (exit 3), no flip merges"
    # corrupt=1 with min-len=512 flips a byte in every bulk frame and
    # leaves the small control frames alone: the handshake succeeds,
    # every result is rejected by the frame CRC, and the run must end
    # in the named degraded outcome — never a hang, never wrong bytes.
    ./target/release/lockdown worker --listen 127.0.0.1:0 --fidelity test \
        < /dev/null > target/proxy/corrupt-worker-stdout.txt \
        2> target/proxy/corrupt-worker-stderr.txt &
    wc_worker_pid=$!
    for _ in $(seq 1 100); do
        grep -q "listening on" target/proxy/corrupt-worker-stdout.txt 2> /dev/null && break
        sleep 0.1
    done
    waddr=$(grep -m1 -oE "[0-9.]+:[0-9]+" target/proxy/corrupt-worker-stdout.txt)
    mkfifo "$pctl"
    ./target/release/lockdown chaosproxy --listen 127.0.0.1:0 \
        --upstream "$waddr" --chaos seed=3,corrupt=1,min-len=512 < "$pctl" \
        > target/proxy/corrupt-proxy-stdout.txt \
        2> target/proxy/corrupt-proxy-metrics.txt &
    wc_proxy_pid=$!
    exec 8> "$pctl"
    for _ in $(seq 1 100); do
        grep -q "listening on" target/proxy/corrupt-proxy-stdout.txt 2> /dev/null && break
        sleep 0.1
    done
    paddr=$(grep -m1 -oE "[0-9.]+:[0-9]+" target/proxy/corrupt-proxy-stdout.txt)
    set +e
    ./target/release/lockdown coordinate --fidelity test --attach "$paddr" \
        > target/proxy/corrupt-stdout.txt 2> target/proxy/corrupt-stderr.txt
    wc_exit=$?
    set -e
    [[ $wc_exit -eq 3 ]] || {
        echo "expected degraded exit 3 under certain corruption, got $wc_exit" >&2
        exit 1
    }
    grep -q "DEGRADED" target/proxy/corrupt-stderr.txt
    exec 8>&-
    wait "$wc_proxy_pid"
    wc_proxy_pid=
    # The worker lingers in its reconnect window; the gate owns its end.
    kill "$wc_worker_pid" 2> /dev/null || true
    wait "$wc_worker_pid" 2> /dev/null || true
    wc_worker_pid=
    grep -Eq "wirechaos_corrupted [1-9]" target/proxy/corrupt-proxy-metrics.txt
    rm -f "$pctl"

    echo "==> proxy overhead numbers (BENCH_proxy.json)"
    cargo run --release -q -p lockdown-bench --bin proxy_json > BENCH_proxy.json
    cat BENCH_proxy.json
    cp BENCH_proxy.json target/proxy/BENCH_proxy.json

    rm -rf "$arch" "$cold" "$warm" "$sharch" "$sharded" "$shwarm" "$killed"
fi

echo "verify: OK"
