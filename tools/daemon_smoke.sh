#!/usr/bin/env bash
# Live-daemon smoke: real loopback sockets end to end.
#
# Starts `starlinkd serve --transport=os` on a random port base, drives real
# UDP sessions through it with the scripted starlink_probe client (a separate
# process -- this exercises the cross-process port mapping, not an in-memory
# shortcut), scrapes /metrics over plain HTTP, then SIGTERMs the daemon and
# requires a clean, coded shutdown:
#
#   (a) every probe lookup discovers the bridged service URL,
#   (b) the /metrics scrape returns a non-empty Prometheus exposition in
#       which, summed over all series, every message the network engine
#       handed up was accepted into a session or dropped for a counted
#       reason: starlink_net_messages_in_total =
#       starlink_engine_messages_in_total + starlink_engine_datagrams_dropped_total,
#   (c) the daemon's stdout carries a terminal record for every session,
#   (d) the daemon exits 0 == zero aborts escaped the error taxonomy.
#
# Skips (exit 77) when the kernel does not deliver multicast on loopback
# (some CI sandboxes); retries a few port bases to dodge EADDRINUSE races.
#
# Usage: daemon_smoke.sh <path-to-starlinkd> <path-to-starlink_probe> <work-dir>
#        [sessions (default 100)]
set -uo pipefail

starlinkd="$1"
probe="$2"
workdir="$3"
sessions="${4:-100}"

rm -rf "$workdir"
mkdir -p "$workdir"
log="$workdir/daemon.log"

cleanup() {
    if [ -n "${daemon_pid:-}" ] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill -KILL "$daemon_pid" 2>/dev/null || true
    fi
}
trap cleanup EXIT

# The probe's OS backend skips itself in sandboxes without loopback
# multicast; probing one throwaway lookup against a dead base detects the
# same condition here. net.* bind failures exit with the Net layer code 17.
daemon_pid=""
started=0
for attempt in 1 2 3 4 5; do
    # Random base in [20000, 40000): logical ports (427, 1900, 5353, ...)
    # stay well under 65535, and parallel ctest runs rarely collide.
    port_base=$((20000 + RANDOM % 20000))
    metrics_port=$((port_base + 99))
    : > "$log"
    "$starlinkd" serve --transport=os --case slp-to-upnp --with-peers \
        --port-base "$port_base" --metrics-port "$metrics_port" \
        --processing-ms 1 --max-seconds 120 > "$log" 2>&1 &
    daemon_pid=$!

    # Wait for the ready line (or early death on a port clash).
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
echo "daemon up (pid $daemon_pid, port base $port_base)"

# (a) live sessions: scripted client in its own process, same port base.
probe_out=$("$probe" lookup --proto slp --port-base "$port_base" \
            --sessions "$sessions" --timeout-ms 5000 2>&1)
probe_rc=$?
if [ "$probe_rc" -eq 77 ]; then
    echo "SKIP: loopback multicast unusable in this sandbox" >&2
    exit 77
fi
if [ "$probe_rc" -ne 0 ]; then
    echo "$probe_out"
    echo "FAIL: probe lookups did not all discover the service" >&2
    tail -5 "$log" >&2
    exit 1
fi
echo "$probe_out" | tail -1

if ! echo "$probe_out" | grep -q "probe: $sessions/$sessions lookups discovered"; then
    echo "FAIL: probe summary mismatch" >&2
    exit 1
fi

# (b) metrics scrape over plain HTTP.
metrics=$("$probe" scrape --port "$metrics_port") || {
    echo "FAIL: /metrics scrape failed" >&2
    exit 1
}
if ! echo "$metrics" | grep -q "# TYPE"; then
    echo "FAIL: scrape returned no Prometheus exposition" >&2
    echo "$metrics" >&2
    exit 1
fi
echo "scraped $(echo "$metrics" | grep -c '^# TYPE') metric families"

# Sum of every series of one counter family; fails when the family is absent.
family_sum() {
    if ! echo "$metrics" | grep -q "^# TYPE $1 counter"; then
        echo "FAIL: /metrics lacks the $1 family" >&2
        exit 1
    fi
    echo "$metrics" | awk -v name="$1" \
        'index($1, name "{") == 1 || $1 == name { sum += $NF } END { printf "%.0f", sum }'
}
net_in=$(family_sum starlink_net_messages_in_total) || exit 1
engine_in=$(family_sum starlink_engine_messages_in_total) || exit 1
dropped=$(family_sum starlink_engine_datagrams_dropped_total) || exit 1
if [ "$net_in" -lt "$sessions" ] || [ "$net_in" -ne $((engine_in + dropped)) ]; then
    echo "FAIL: accounting identity: net in $net_in != engine in $engine_in + dropped $dropped" >&2
    exit 1
fi
echo "accounting: net in $net_in = engine in $engine_in + dropped $dropped"

# (c)+(d) clean signal-driven shutdown with a terminal record per session.
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_rc=$?
daemon_pid=""
if [ "$daemon_rc" -ne 0 ]; then
    echo "FAIL: daemon exit code $daemon_rc after SIGTERM" >&2
    tail -20 "$log" >&2
    exit 1
fi

recorded=$(grep -c "^session #" "$log")
if [ "$recorded" -lt "$sessions" ]; then
    echo "FAIL: daemon recorded $recorded/$sessions session outcomes" >&2
    tail -20 "$log" >&2
    exit 1
fi
if ! grep -q "starlinkd\[os\]: shutdown after .* uncoded=0" "$log"; then
    echo "FAIL: shutdown summary missing or reported uncoded aborts" >&2
    tail -20 "$log" >&2
    exit 1
fi

echo "daemon smoke: $recorded live sessions, clean coded shutdown"
