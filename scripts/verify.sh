#!/usr/bin/env bash
# Tier-1 verification gate: everything CI runs, runnable locally.
#
#   scripts/verify.sh          # full gate
#   scripts/verify.sh --quick  # said-once and pub-item gates, tests, fmt, clippy, doc
#
# What is asserted lives in Rust tests (byte-identity of every path:
# tests/equivalence.rs; the CLI and its daemons as processes: tests/cli.rs).
# This script holds only what a test cannot: greps over the source tree,
# the build, the lints, and the three socket-plane numbers lockbench leaves
# to it (lockbench/README.md, "What is not a workload").
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
said_once "the splitmix64 finalizer" '>> 30)).wrapping_mul' crates/base/src/hash.rs
said_once "the CRC-32 polynomial" 'EDB8_8320' crates/base/src/
said_once "the metrics exposition format" '"# TYPE' crates/base/src/
# One service-port rule, and calendar facts per hour run: a consumer that
# restates the ephemeral cut, or turns a record's timestamp into a civil
# date by itself, is back on a per-flow path.
said_once "the ephemeral-port cut" '>= EPHEMERAL_START' crates/analysis/src/ports.rs
said_once "a record's civil date" 'start.date()' crates/flow/src/
# One element <-> FlowRecord mapping per direction, shared by v9 and IPFIX: a
# codec that restates it (ipfix.rs did, minus the uptime pair) drifts.
said_once "the element-to-record mapping" 'IPV4_SRC_ADDR =>' crates/flow/src/netflow/v9.rs
# Generation per cell: endpoint pools are resolved once per generator. A
# registry probe by ASN, or a hash map, under crates/traffic/src is a
# per-flow lookup back on a per-flow path.
said_once "a per-flow registry probe" '.host_addr(' crates/topology/src/
# One wire form of a cell and a segment entry, the archive index's: the
# shard protocol carries a worker's segments and quarantined cells in it
# through store::archive::{put_entry, read_entry} instead of a second
# encoding of its own.
said_once "the segment-entry wire form" '"segment pack tag"' crates/store/src/
# One column unpacker: every segment column is a frame of reference read
# by the fixed-width unpack in store::segment; a second bit reader beside
# it would be a second segment format.
said_once "the segment column unpacker" 'fn unpack_bits' crates/store/src/segment.rs
if grep -rn --include='*.rs' 'HashMap' crates/traffic/src >&2; then
    echo "said-once: a hash map is back under crates/traffic/src (resolve pools in Picker::new)" >&2
    exit 1
fi
# One fault schedule: every fault kind's salt is spelled in base::fault,
# and the datagram planes decide by key, never from a sequential stream
# whose draws shift with every earlier fate.
salts=$(grep -rnE --include='*.rs' 'const [A-Z0-9_]*_SALT: u64' crates src |
    grep -v '^crates/base/src/fault.rs:' || true)
if [[ -n "$salts" ]]; then
    echo "said-once: a fault salt outside crates/base/src/fault.rs:" >&2
    echo "$salts" >&2
    exit 1
fi
if grep -rn 'SplitMix' crates/collect/src/transport.rs src/wirechaos.rs >&2; then
    echo "said-once: a sequential stream decides datagram faults again (key them in base::fault)" >&2
    exit 1
fi
# One socket lifecycle: the poll tick, the stop flag, the only
# non-blocking listener and the one accept loop live in base::net. Test
# code (a `#[cfg(test)]` tail, crates/*/tests) may stand up its own.
net=$(for f in $(find crates src -path 'crates/*/tests' -prune -o -name '*.rs' -print); do
    sed '/^#\[cfg(test)\]/,$d' "$f" |
        grep -nF -e 'const POLL' -e 'AtomicBool' -e 'set_nonblocking(true)' -e '.incoming()' |
        sed "s|^|$f:|"
done | grep -v '^crates/base/src/net.rs:' || true)
if [[ -n "$net" ]]; then
    echo "said-once: a poll tick, stop flag, non-blocking listener or accept loop outside crates/base/src/net.rs:" >&2
    echo "$net" >&2
    exit 1
fi
# The engine has one scheduler: one scope its workers run in, one loop
# that runs a cell, one panic boundary around a cell attempt. A second of
# any is a fork of the pass core.
exactly_once() { # <what> <fixed-string pattern>
    local hits
    hits=$(grep -rnF --include='*.rs' -e "$2" crates/core/src || true)
    if [[ $(grep -c . <<< "$hits") -ne 1 ]]; then
        echo "said-once: $1 must occur exactly once under crates/core/src, found:" >&2
        echo "${hits:-(nowhere)}" >&2
        exit 1
    fi
}
exactly_once "the engine's worker scope" 'thread::scope('
exactly_once "the call that runs a cell" '.process('
exactly_once "the panic boundary around a cell attempt" 'catch_unwind('
# One merge and one queue: every partial, a thread's column or a worker
# process's slice, merges through the engine's one codec `absorb`, and the
# engine's driver is the one work queue for thread and process links, so
# neither a typed merge beside the codec nor a second queue in the shard
# crate (a condition variable outside its tests) comes back.
said_once "the partial merge through the state codec" 'merge_frame(' crates/core/src/engine.rs crates/analysis/
if grep -rnF --include='*.rs' 'fn merge_box' crates src tests examples lockbench/src >&2; then
    echo "said-once: a typed partial merge (fn merge_box) is back beside the codec merge" >&2
    exit 1
fi
# One way in and one way out: a FlowConsumer observes hour runs
# (`observe_run`) and merges only through its state codec (`merge_state`),
# which every consumer carries. A per-record `fn observe` or a typed
# `fn merge(&mut self, ... Self)` in the trait or an impl of it, a
# codec-less default tag, or an engine trait erasing consumers beside
# `dyn FlowConsumer` is a second way in or out again.
contract=$(for f in $(find crates src tests examples -name '*.rs'); do
    awk -v f="$f" '
        /trait FlowConsumer[: {]/ || /impl.* FlowConsumer for / || /impl.*::FlowConsumer for / {
            inside = 1
            match($0, /^ */)
            close_at = "^" sprintf("%" RLENGTH "s", "") "}"
            next
        }
        inside && $0 ~ close_at { inside = 0 }
        inside && (/fn observe\(&mut self/ || /fn merge\(&mut self, [^)]*Self\)/) { print f ":" FNR ": " $0 }
    ' "$f"
done)
if [[ -n "$contract" ]]; then
    echo "said-once: a FlowConsumer has a second way in or out beside observe_run and merge_state:" >&2
    echo "$contract" >&2
    exit 1
fi
if grep -rnF --include='*.rs' -e 'TAG_UNSUPPORTED' -e 'trait AnyConsumer' crates src tests examples >&2; then
    echo "said-once: a consumer without the state codec, or a second erasure of consumers, is back" >&2
    exit 1
fi
condvar=$(for f in $(find crates/shard/src -name '*.rs'); do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nF 'Condvar' | sed "s|^|$f:|"
done || true)
if [[ -n "$condvar" ]]; then
    echo "said-once: a work queue under crates/shard/src (the engine's driver is the one queue):" >&2
    echo "$condvar" >&2
    exit 1
fi
# One consumer body per flow: the engine splits each cell into hour runs
# once and hands every covering consumer `observe_run`; `observe_all` is
# the FlowConsumer trait's walk over `hour_runs`. A second `fn observe_all`
# is a consumer re-splitting its batch on its own again.
observe_all=$(grep -rnF --include='*.rs' 'fn observe_all' crates src || true)
if [[ $(grep -c . <<< "$observe_all") -ne 1 ]] ||
    ! grep -q '^crates/analysis/src/consumer.rs:' <<< "$observe_all"; then
    echo "said-once: fn observe_all must occur exactly once, in the FlowConsumer trait, found:" >&2
    echo "${observe_all:-(nowhere)}" >&2
    exit 1
fi
# Warm replay reads a claimed day with one positioned read per pack and
# decodes each cell into the worker's reused buffer: a `read_cell(` under
# crates/core/src is a fresh row vector per replayed cell again, and a
# `read_cell_into(` one positioned read per cell again.
if grep -rnF --include='*.rs' -e 'read_cell(' -e 'read_cell_into(' crates/core/src >&2; then
    echo "said-once: the engine reads a cell at a time again (use read_run and decode_run)" >&2
    exit 1
fi
# One way in for an archived cell: a resuming pass reads what it adopted
# through the ArchiveReader create_or_resume returns, a claimed day at a
# time like a warm pass. A `read_adopted` is a second read path again.
if grep -rnF --include='*.rs' 'read_adopted' crates src tests examples lockbench/src >&2; then
    echo "said-once: a resumed cell has its own read path again (read it through read_run)" >&2
    exit 1
fi
# One way out: a cell's retries, quarantine and wire audit travel in its
# link's column, so neither the supervisor nor the wire plane keeps books
# of its own. A lock in either, outside its tests, is a second ledger of a
# cell's fate again.
for f in crates/core/src/supervisor.rs crates/collect/src/audit.rs crates/collect/src/stages.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nF 'Mutex' >&2; then
        echo "said-once: $f holds a lock (a cell's fate and audit go in its column)" >&2
        exit 1
    fi
done
# Docs at a budget: a CHANGES.md entry from PR 51 on keeps to 1,536 bytes.
long=$(LC_ALL=C awk '/^PR [0-9]+:/ && $2 + 0 >= 51 && length($0) > 1536 {
    print "CHANGES.md:" NR ": the PR " $2 + 0 " entry is " length($0) " bytes" }' CHANGES.md)
if [[ -n "$long" ]]; then
    echo "$long" >&2
    echo "docs: a CHANGES.md entry is over its 1,536-byte cap" >&2
    exit 1
fi
# The default calibration is the shipped scenarios/covid-spring-2020.toml:
# the parser builds the one ScenarioSpec literal, and any other is a
# calibration written as code again.
literals=$(grep -rnE --include='*.rs' 'ScenarioSpec \{' crates/*/src src |
    grep -vE '(struct|impl|for|->) ScenarioSpec \{' |
    grep -vx 'crates/scenario/src/measures.rs:[0-9]*: *Ok(ScenarioSpec {' || true)
if [[ -n "$literals" ]]; then
    echo "said-once: a ScenarioSpec literal outside parse_toml (write a scenario file):" >&2
    echo "$literals" >&2
    exit 1
fi
for manifest in crates/store/Cargo.toml crates/query/Cargo.toml; do
    if grep -n "lockdown-collect" "$manifest" >&2; then
        echo "said-once: $manifest depends on the collection plane again" >&2
        exit 1
    fi
done
# The shard protocol reads its payloads with flow's Cursor and its cells
# with store::archive::read_cell: neither the analysis codec nor topology.
if grep -nE "lockdown-(analysis|topology)" crates/shard/Cargo.toml >&2; then
    echo "said-once: crates/shard/Cargo.toml depends on lockdown-analysis or lockdown-topology again" >&2
    exit 1
fi
# No crate outside the workspace: every entry of every dependency table
# is a lockdown-* path or the umbrella crate, so tier-1 builds with no
# registry and no network, and every draw comes from base::hash::SplitMix.
external=$(awk '
    /^\[/ {
        deps = /dependencies/
        if (deps && !/^\[(workspace\.|dev-)?dependencies\]$/) print FILENAME ":" FNR ": " $0
        next
    }
    deps && NF && !/^#/ &&
        !/^lockdown(-[a-z]+)?\.workspace = true$/ &&
        !/^lockdown-[a-z]+ = \{ path = "crates\/[a-z]+" \}$/ && !/^lockdown = \{ path = "\." \}$/ {
        print FILENAME ":" FNR ": " $0
    }
' Cargo.toml crates/*/Cargo.toml)
if [[ -n "$external" ]]; then
    echo "said-once: a dependency that is not a lockdown-* path:" >&2
    echo "$external" >&2
    exit 1
fi
if grep -rnE 'rand::|StdRng|proptest' crates src tests examples >&2; then
    echo "said-once: an external generator or case driver is back (base::hash, base::prop)" >&2
    exit 1
fi

# The audit ledger knows only counts, so every pipeline layer can post to
# it without a cycle: outside its tests it imports nothing but std.
if sed '/^#\[cfg(test)\]/,$d' crates/collect/src/audit.rs |
    grep -nE 'use (crate|super)::|lockdown_' >&2; then
    echo "said-once: crates/collect/src/audit.rs imports from the pipeline (it takes only counts)" >&2
    exit 1
fi

# `pub` means "crosses a crate boundary": every crate root warns on
# unreachable_pub, so each `pub` is reachable, and this gate holds each
# reachable item to a caller. A `pub` item under crates/<c>/src must be
# named on a code line (not a comment) of a .rs file outside that
# directory, crates/<c>/tests included, or in something else its crate
# exposes — a `pub` fn's signature, a `pub` field, a `pub` enum's
# variants, a `pub` trait's methods, an associated type — which rustc's
# private_interfaces lint needs to stay `pub` too. A `$crate::` path in an
# exported macro is spelled for the crate that expands it. One awk pass
# reads every file once; rustc's dead_code then reports what only tests
# called.
echo "==> pub-item gate (a pub item has a caller outside its crate)"
# ROADMAP item 4's claim accessors (Fig. 5's right shift among them) and
# item 13's model oracle: pub ahead of the callers those items add.
pub_allow='volume_diff working_hours_growth workdays_turned_weekend week_mean shifted_right_of daily_volume_gbps'
awk -v allow="$pub_allow" '
    BEGIN {
        split(allow, a, " ")
        for (i in a) allowed[a[i]] = 1
        item = "^ *pub ((const |async |unsafe )*fn|struct|enum|const|static|type|trait|union) [A-Za-z_][A-Za-z0-9_]*"
    }
    FNR == 1 {
        split(FILENAME, p, "/")
        scope = (p[1] == "crates" && p[3] == "src") ? p[2] : "-"
        impl = ""; body = ""; sig = 0
    }
    /^ *\/\// { next }  # a mention in a comment is not a caller
    {
        name = ""
        if (scope != "-" && match($0, item)) {
            name = substr($0, RSTART, RLENGTH)
            sub(/.* /, "", name)
            decl[++n] = FILENAME ":" FNR ": " name; dscope[n] = scope; dname[n] = name
        }
        # Does this line expose its names to other crates?
        if (scope == "-") expose = 0
        else if (body != "") expose = body_pub && (kind != "struct" || $0 ~ /^ *pub /)
        else expose = sig || $0 ~ /^ *type [A-Za-z_].* = / ||
            ($0 ~ /^ *pub / && $0 !~ /^ *pub (use|mod) /)
        s = $0
        while (match(s, /[$]crate::[A-Za-z0-9_:]+|[A-Za-z_][A-Za-z0-9_]*/)) {
            t = substr(s, RSTART, RLENGTH)
            s = substr(s, RSTART + RLENGTH)
            here = scope
            if (sub(/^[$]crate::([A-Za-z0-9_]+::)*/, "", t)) here = "-"
            if (!(t in seen)) seen[t] = here
            else if (seen[t] != here) seen[t] = "*"
            if (expose && t != name && t != impl) exposed[scope, t] = 1
        }
        # A `pub fn` signature that wraps; the body of a type; the type a
        # top-level impl block is for (its constructors do not expose it).
        if (name != "" && $0 ~ /fn / && $0 !~ /[{;]$/) sig = 1
        else if (sig && $0 ~ /[{;]$/) sig = 0
        if (body == "" && $0 ~ /^ *pub(\(crate\))? (struct|enum|trait|union) .*\{$/) {
            body = kind = $0
            sub(/[^ ].*/, "}", body)
            body_pub = $0 ~ /^ *pub /
            sub(/^ *pub(\(crate\))? /, "", kind)
            sub(/ .*/, "", kind)
        } else if ($0 == body) body = ""
        if ($0 ~ /^impl.*\{$/) {
            impl = $0
            sub(/ *\{$/, "", impl); sub(/.* /, "", impl); sub(/<.*/, "", impl)
        } else if ($0 == "}") impl = ""
    }
    END {
        for (i = 1; i <= n; i++) {
            t = dname[i]
            if (!(t in allowed) && seen[t] == dscope[i] && !((dscope[i], t) in exposed)) {
                print "pub-item: " decl[i] " is named nowhere outside its crate" > "/dev/stderr"
                bad = 1
            }
        }
        exit bad
    }' $(find crates src tests examples lockbench/src -name '*.rs' | LC_ALL=C sort)

if [[ $quick -eq 1 ]]; then
    echo "==> cargo test --workspace"
    cargo test --workspace --quiet
else
    echo "==> cargo build --release --workspace"
    cargo build --release --workspace
    # Release tests, so tests/cli.rs drives an optimised binary, with
    # integer overflow trapping instead of wrapping. Their own target
    # directory keeps the checked build apart from the one measured below.
    echo "==> cargo test --workspace --release (overflow checks on)"
    CARGO_PROFILE_RELEASE_OVERFLOW_CHECKS=true CARGO_TARGET_DIR=target/checked \
        cargo test --workspace --release --quiet
fi

# The benchmark is a package of its own, outside the workspace: its tests
# drive every workload once and byte-compare all 22 sections against the
# suite.
echo "==> lockbench plumbing and byte-identity check"
cargo test --manifest-path lockbench/Cargo.toml --quiet

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# A public doc that links to an item narrowed to pub(crate) is a warning.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

if [[ $quick -eq 0 ]]; then
    # Each needs more runnable threads than a small box has cores, and
    # kernel UDP drops do not repeat, so these are recorded, not gated.
    echo "==> collectd soak numbers (BENCH_collect.json)"
    # Exits 1 (and set -e fails us) unless the soak's audit closed.
    ./target/release/lockdown collectd --soak > BENCH_collect.json
    cat BENCH_collect.json

    echo "==> shard bench numbers (BENCH_shard.json)"
    cargo run --release -q -p lockdown-bench --bin shard_json > BENCH_shard.json
    cat BENCH_shard.json

    echo "==> proxy overhead numbers (BENCH_proxy.json)"
    cargo run --release -q -p lockdown-bench --bin proxy_json > BENCH_proxy.json
    cat BENCH_proxy.json
fi

echo "verify: OK"
