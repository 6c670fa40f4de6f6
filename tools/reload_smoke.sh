#!/usr/bin/env bash
# Hot-swap reload smoke: live model deployment end to end.
#
# Exercises the versioned model registry on the real-socket daemon:
#
#   (0) a serve with an unwritable --postmortem-dir must fail AT STARTUP with
#       engine.spool-unwritable naming the path (JSON envelope, engine exit
#       code) -- in both sim and os transports,
#   (a) the daemon starts serving a --models-dir export (registry v1),
#   (b) a lint-clean model update + SIGHUP mid-traffic hot-swaps to v2 with
#       zero uncoded aborts and the version bump visible in /metrics,
#   (c) a lint-BROKEN update + SIGHUP is rejected (bridge.deploy-rejected in
#       the log, reload_failures_total in /metrics) while the old version
#       keeps serving live sessions,
#   (d) SIGTERM shutdown stays clean and coded across all of it,
#   (e) on a fresh daemon, a SIGHUP under four overlapping probes that never
#       re-send: v2 serves a session within 1 s while the probes still run,
#       and every lookup of every probe succeeds (the swap is hitless).
#
# Skips (exit 77) when the kernel does not deliver multicast on loopback
# (some CI sandboxes); retries a few port bases to dodge EADDRINUSE races.
#
# Usage: reload_smoke.sh <path-to-starlinkd> <path-to-starlink_probe> <work-dir>
#        [sessions-per-batch (default 40)]
set -uo pipefail

starlinkd="$1"
probe="$2"
workdir="$3"
sessions="${4:-40}"

rm -rf "$workdir"
mkdir -p "$workdir"
log="$workdir/daemon.log"
models="$workdir/models"

cleanup() {
    if [ -n "${daemon_pid:-}" ] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill -KILL "$daemon_pid" 2>/dev/null || true
    fi
    for pid in "${probe_pids[@]}"; do
        kill -KILL "$pid" 2>/dev/null || true
    done
}
probe_pids=()
trap cleanup EXIT

# (0) Unwritable spool dir: a regular file where the directory path needs to
# go makes create_directories fail portably, even when running as root.
blocker="$workdir/blocker"
: > "$blocker"
for mode in "--shards 1 --sessions 1" "--transport=os --case slp-to-upnp --max-seconds 1"; do
    # shellcheck disable=SC2086
    err=$("$starlinkd" serve $mode --postmortem-dir "$blocker/spool" 2>&1)
    rc=$?
    if [ "$rc" -eq 0 ]; then
        echo "FAIL: serve ($mode) accepted an unwritable postmortem dir" >&2
        exit 1
    fi
    if ! echo "$err" | grep -q "engine.spool-unwritable"; then
        echo "FAIL: serve ($mode) did not report engine.spool-unwritable:" >&2
        echo "$err" >&2
        exit 1
    fi
    if ! echo "$err" | grep -q "$blocker/spool"; then
        echo "FAIL: envelope does not name the offending path:" >&2
        echo "$err" >&2
        exit 1
    fi
done
echo "unwritable spool dir refused at startup (engine.spool-unwritable)"

# (a) Export the builtin fleet and serve it through the registry.
"$starlinkd" export "$models" > /dev/null || {
    echo "FAIL: model export failed" >&2
    exit 1
}

# Starts a daemon serving the models in $1 on a free port base; sets
# daemon_pid, port_base and metrics_port.
start_daemon() {
    daemon_pid=""
    local started=0
    for attempt in 1 2 3 4 5; do
        port_base=$((20000 + RANDOM % 20000))
        metrics_port=$((port_base + 99))
        : > "$log"
        "$starlinkd" serve --transport=os --case slp-to-upnp --with-peers \
            --port-base "$port_base" --metrics-port "$metrics_port" \
            --models-dir "$1" \
            --processing-ms 1 --max-seconds 180 > "$log" 2>&1 &
        daemon_pid=$!

        for _ in $(seq 1 50); do
            if grep -q "starlinkd\[os\]: ready" "$log"; then
                started=1
                break
            fi
            if ! kill -0 "$daemon_pid" 2>/dev/null; then
                break
            fi
            sleep 0.1
        done
        [ "$started" -eq 1 ] && break

        wait "$daemon_pid" 2>/dev/null
        rc=$?
        daemon_pid=""
        if [ "$rc" -eq 17 ] && grep -q "net.bind-conflict" "$log"; then
            echo "port base $port_base in use (attempt $attempt), retrying"
            continue
        fi
        echo "FAIL: daemon did not start (exit $rc):" >&2
        cat "$log" >&2
        exit 1
    done

    if [ "$started" -ne 1 ]; then
        echo "FAIL: no free port base after 5 attempts" >&2
        exit 1
    fi
}

start_daemon "$models"
if ! grep -q "starlinkd\[os\]: models v1" "$log"; then
    echo "FAIL: daemon did not announce registry v1" >&2
    cat "$log" >&2
    exit 1
fi
echo "daemon up (pid $daemon_pid, port base $port_base, models v1)"

run_probe() {
    probe_out=$("$probe" lookup --proto slp --port-base "$port_base" \
                --sessions "$sessions" --timeout-ms 5000 --retransmit-ms 500 2>&1)
    probe_rc=$?
    if [ "$probe_rc" -eq 77 ]; then
        echo "SKIP: loopback multicast unusable in this sandbox" >&2
        exit 77
    fi
    if [ "$probe_rc" -ne 0 ] ||
        ! echo "$probe_out" | grep -q "probe: $sessions/$sessions lookups discovered"; then
        echo "$probe_out"
        echo "FAIL: probe batch did not discover on every lookup" >&2
        tail -10 "$log" >&2
        exit 1
    fi
}

scrape() {
    "$probe" scrape --port "$metrics_port"
}

run_probe
echo "batch 1: $sessions/$sessions on v1"
metrics_now=$(scrape)
if ! echo "$metrics_now" | grep -q "starlink_registry_active_version 1"; then
    echo "FAIL: /metrics does not show registry v1 active" >&2
    echo "$metrics_now" | grep starlink_registry >&2
    exit 1
fi

# (b) Lint-clean update: identical semantics, different bytes -- a trailing
# XML comment changes the fingerprint, so the reload publishes v2. SIGHUP
# lands while the next probe batch is in flight: the swap must not abort
# any session.
printf '\n<!-- fleet update %s -->\n' "$$" >> "$models/slp.mdl.xml"
# --retransmit-ms: the client re-asks after a lost datagram, as OpenSLP
# multicast convergence does (batch 4 below runs without it).
"$probe" lookup --proto slp --port-base "$port_base" \
    --sessions "$sessions" --timeout-ms 5000 --retransmit-ms 500 \
    > "$workdir/batch2.log" 2>&1 &
probe_pid=$!
sleep 0.3
kill -HUP "$daemon_pid"
wait "$probe_pid"
batch2_rc=$?
if [ "$batch2_rc" -eq 77 ]; then
    echo "SKIP: loopback multicast unusable in this sandbox" >&2
    exit 77
fi
if [ "$batch2_rc" -ne 0 ] ||
    ! grep -q "probe: $sessions/$sessions lookups discovered" "$workdir/batch2.log"; then
    cat "$workdir/batch2.log"
    echo "FAIL: probe batch across the hot swap lost sessions" >&2
    tail -10 "$log" >&2
    exit 1
fi
# The swap applies at the poll loop's next pass; give it a beat, then confirm.
deadline=$((SECONDS + 10))
until grep -q "starlinkd\[os\]: serving v1 -> v2" "$log"; do
    if [ "$SECONDS" -ge "$deadline" ]; then
        echo "FAIL: SIGHUP did not hot-swap to v2" >&2
        tail -20 "$log" >&2
        exit 1
    fi
    sleep 0.2
done
metrics_now=$(scrape)
if ! echo "$metrics_now" | grep -q "starlink_registry_active_version 2"; then
    echo "FAIL: /metrics does not show the version bump to v2" >&2
    echo "$metrics_now" | grep starlink_registry >&2
    exit 1
fi
echo "batch 2: $sessions/$sessions across SIGHUP hot-swap v1 -> v2"

# (c) Lint-broken update: the candidate must be rejected and v2 keep serving.
echo "<mdl>this document is torn mid-wri" > "$models/slp.mdl.xml"
kill -HUP "$daemon_pid"
deadline=$((SECONDS + 10))
until grep -q "reload rejected \[bridge.deploy-rejected\]" "$log"; do
    if [ "$SECONDS" -ge "$deadline" ]; then
        echo "FAIL: broken candidate was not rejected" >&2
        tail -20 "$log" >&2
        exit 1
    fi
    sleep 0.2
done
run_probe
echo "batch 3: $sessions/$sessions on v2 after rejected reload"
metrics_now=$(scrape)
if ! echo "$metrics_now" | grep -q "starlink_registry_active_version 2"; then
    echo "FAIL: rejected reload disturbed the active version" >&2
    exit 1
fi
if ! echo "$metrics_now" | grep -q "starlink_registry_reload_failures_total 1"; then
    echo "FAIL: reload failure not counted in /metrics" >&2
    echo "$metrics_now" | grep starlink_registry >&2
    exit 1
fi

# (d) Clean coded shutdown across all three batches and both versions.
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_rc=$?
daemon_pid=""
if [ "$daemon_rc" -ne 0 ]; then
    echo "FAIL: daemon exit code $daemon_rc after SIGTERM" >&2
    tail -20 "$log" >&2
    exit 1
fi
total=$((sessions * 3))
if ! grep -q "starlinkd\[os\]: shutdown after .* uncoded=0" "$log"; then
    echo "FAIL: shutdown summary missing or reported uncoded aborts" >&2
    tail -20 "$log" >&2
    exit 1
fi
recorded=$(grep -c "^session #" "$log")
if [ "$recorded" -lt "$total" ]; then
    echo "FAIL: daemon recorded $recorded/$total session outcomes" >&2
    exit 1
fi

summary="$recorded live sessions across v1 -> v2 -> rejected reload, clean shutdown"

# (e) Hitless swap under load. Four probes run closed loop without --retransmit-ms
# (the SLP default: a lost request is never re-sent), so a request that a
# swap dropped would fail its lookup. SIGHUP comes about 1 s in.
models_e="$workdir/models-e"
"$starlinkd" export "$models_e" > /dev/null || {
    echo "FAIL: model export failed" >&2
    exit 1
}
log="$workdir/daemon-e.log"
start_daemon "$models_e"
probes=4
per_probe=$((sessions * 2))
for i in $(seq 1 "$probes"); do
    "$probe" lookup --proto slp --port-base "$port_base" \
        --sessions "$per_probe" --timeout-ms 5000 > "$workdir/probe-e$i.log" 2>&1 &
    probe_pids+=($!)
done
sleep 1
printf '\n<!-- fleet update %s under load -->\n' "$$" >> "$models_e/slp.mdl.xml"
hup_at=$(date +%s.%N)
kill -HUP "$daemon_pid"
v2_at=""
probes_running=0
until [ -n "$v2_at" ]; do
    if grep -q "^session #.* model=v2" "$log"; then
        v2_at=$(date +%s.%N)
        for pid in "${probe_pids[@]}"; do
            kill -0 "$pid" 2>/dev/null && probes_running=1
        done
        break
    fi
    if awk -v a="$hup_at" -v b="$(date +%s.%N)" 'BEGIN { exit !(b - a > 5) }'; then
        echo "FAIL: no session ran on v2 within 5 s of SIGHUP" >&2
        tail -20 "$log" >&2
        exit 1
    fi
    sleep 0.02
done
for i in $(seq 1 "$probes"); do
    wait "${probe_pids[$((i - 1))]}"
    rc=$?
    if [ "$rc" -eq 77 ]; then
        echo "SKIP: loopback multicast unusable in this sandbox" >&2
        exit 77
    fi
    if [ "$rc" -ne 0 ] ||
        ! grep -q "probe: $per_probe/$per_probe lookups discovered" "$workdir/probe-e$i.log"; then
        tail -5 "$workdir/probe-e$i.log"
        echo "FAIL: probe $i lost lookups across the swap" >&2
        tail -10 "$log" >&2
        exit 1
    fi
done
delay=$(awk -v a="$hup_at" -v b="$v2_at" 'BEGIN { printf "%.3f", b - a }')
if awk -v d="$delay" 'BEGIN { exit !(d > 1.0) }'; then
    echo "FAIL: the first v2 session came ${delay} s after SIGHUP (limit 1 s)" >&2
    exit 1
fi
if [ "$probes_running" -ne 1 ]; then
    echo "FAIL: v2 served its first session only after the probes had finished" >&2
    exit 1
fi
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_rc=$?
daemon_pid=""
if [ "$daemon_rc" -ne 0 ] || ! grep -q "starlinkd\[os\]: shutdown after .* uncoded=0" "$log"; then
    echo "FAIL: daemon exit code $daemon_rc or uncoded aborts after the loaded swap" >&2
    tail -20 "$log" >&2
    exit 1
fi
echo "batch 4: $probes x $per_probe lookups without re-send, first v2 session ${delay} s after SIGHUP"

echo "reload smoke: $summary"
