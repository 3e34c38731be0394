#!/bin/sh
# check-timing.sh — keep ad-hoc stopwatch code out of the instrumented layers.
#
# Latency measurements in the instrumented layers must go through
# internal/obs (obs.StartTimer / Stopwatch.ObserveInto): a raw
# time.Now()/time.Since pair produces a number nothing scrapes, invisible to
# METRICS and the debug listeners. This check counts such calls per layer in
# non-test files and fails when a package exceeds its frozen baseline.
#
# The baselines are the pre-telemetry remainder: supervisor and repair stamp
# *domain* times (event timestamps, recovery deadlines, flight-dump mirror
# times, report.Elapsed fields served over their own wire protocols), which
# are data, not metrics. internal/obs is the measuring instrument itself —
# the Stopwatch implementation plus the span/flight recorder's and history
# ring's sample stamps are the one place raw clock reads belong, and its
# baseline keeps that set from growing unreviewed. internal/health stamps
# Alert.Since (when a breach streak began — domain data on the alert). Lowering a baseline after a cleanup is
# encouraged; raising one needs a reason in the commit that does it.
set -eu
cd "$(dirname "$0")/.."

fail=0
check() {
    pkg=$1
    baseline=$2
    count=$(grep -rn 'time\.Now()\|time\.Since(' --include='*.go' "$pkg" 2>/dev/null \
        | grep -v '_test\.go:' | wc -l)
    if [ "$count" -gt "$baseline" ]; then
        echo "FAIL: $pkg has $count time.Now()/time.Since calls (baseline $baseline)." >&2
        echo "      New latency measurements there must use obs.StartTimer +" >&2
        echo "      Stopwatch.ObserveInto so they land in the metrics registry." >&2
        grep -rn 'time\.Now()\|time\.Since(' --include='*.go' "$pkg" | grep -v '_test\.go:' >&2
        fail=1
    fi
}

check internal/transport  0
check internal/blobseer   0
check internal/mirror     0
check internal/proxy      0
check internal/chunkstore 0
check internal/seglog     0
check internal/localtier  0
check internal/obs        8
check internal/health     1
check internal/supervisor 13
check internal/repair     9

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "timing check OK: instrumented layers measure through internal/obs"
