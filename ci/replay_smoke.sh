#!/usr/bin/env sh
# Workload-trace smoke test.
#
# Exercises the trace frontend end to end and checks the invariants
# DESIGN.md §2.12 promises:
#
#   1. byte-identity  - `lb-replay selftest` on every checked-in corpus
#                       file: replaying while re-capturing must re-encode
#                       to the exact file bytes (canonical encoding);
#   2. fresh capture  - a capture made here and now round-trips the same
#                       way, so the property isn't an artifact of the
#                       committed files;
#   3. import         - the handcrafted Accel-Sim-style text traces (a
#                       straight-line kernel and a loop with a lineless
#                       memory op) import, and each imported .lbw1 passes
#                       the same selftest;
#   4. harness        - `--workload trace:PATH` runs end to end on both
#                       binaries and the trace_replay experiment renders
#                       its corpus table;
#   5. transparency   - loading a trace must not perturb synthetic runs:
#                       suite output with and without a trace registered is
#                       byte-identical;
#   6. hardening      - truncated, corrupted and version-1 trace files
#                       are rejected with a clean nonzero exit, never a
#                       panic;
#   7. info           - `lb-replay info` counts memory ops by instruction
#                       kind, lineless sparse stores included, and one run
#                       per captured stream.
#
#   usage: ci/replay_smoke.sh [lb-replay-binary] [lb-experiments-binary] [sanity-binary]
set -eu

LBR=${1:-target/release/lb-replay}
LBX=${2:-target/release/lb-experiments}
SAN=${3:-target/release/sanity}
CORPUS=crates/lb-replay/testdata

T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

echo "replay_smoke: corpus selftest (replay re-capture == file bytes)"
for f in "$CORPUS"/*.lbw1; do
    "$LBR" selftest "$f" --sms 2
done

echo "replay_smoke: info counts every Load/Store op and run"
# S1's result store is sparse: 512 of its 2304 memory ops carry no line.
# Its 128 captured streams are one run each.
"$LBR" info "$CORPUS/s1-reuse.lbw1" > "$T/info.txt"
grep -qx "memory ops    2304 (512 without lines)" "$T/info.txt" || {
    echo "replay_smoke: FAIL - info miscounts memory ops" >&2
    cat "$T/info.txt" >&2
    exit 1
}
grep -qx "runs          128" "$T/info.txt" || {
    echo "replay_smoke: FAIL - info miscounts runs" >&2
    cat "$T/info.txt" >&2
    exit 1
}

echo "replay_smoke: fresh capture round-trips"
"$LBR" capture GE "$T/ge.lbw1" --sms 2 --iterations 4
"$LBR" selftest "$T/ge.lbw1" --sms 2

echo "replay_smoke: text-trace import + selftest"
for t in sample loop; do
    "$LBR" import "$CORPUS/$t.traceg" "$T/$t.lbw1"
    "$LBR" info "$T/$t.lbw1" > /dev/null
    "$LBR" selftest "$T/$t.lbw1" --sms 2
done

echo "replay_smoke: harness --workload runs end to end"
"$LBX" --scale quick --jobs 1 --workload "trace:$T/ge.lbw1" \
    --out "$T/replay.txt" 2> /dev/null
grep -q "trace corpus replayed" "$T/replay.txt" || {
    echo "replay_smoke: trace_replay table missing" >&2
    exit 1
}
grep -q "^ *ge " "$T/replay.txt" || {
    echo "replay_smoke: loaded workload missing from trace_replay table" >&2
    exit 1
}
"$SAN" --quick --workload "trace:$T/ge.lbw1" GE > "$T/sanity.txt" 2> /dev/null
grep -q "^ge " "$T/sanity.txt" || {
    echo "replay_smoke: sanity trace row missing" >&2
    exit 1
}

echo "replay_smoke: registered traces leave synthetic output untouched"
# --workload appends the trace_replay table after the requested ids, so
# the synthetic-only output must be an exact byte prefix.
"$LBX" --scale quick --jobs 1 --out "$T/plain.txt" fig01 table2 2> /dev/null
"$LBX" --scale quick --jobs 1 --workload "trace:$T/ge.lbw1" \
    --out "$T/with_trace.txt" fig01 table2 2> /dev/null
head -c "$(wc -c < "$T/plain.txt")" "$T/with_trace.txt" > "$T/with_trace_prefix.txt"
cmp "$T/plain.txt" "$T/with_trace_prefix.txt" || {
    echo "replay_smoke: FAIL - loading a trace changed synthetic output" >&2
    exit 1
}

echo "replay_smoke: malformed files are rejected cleanly"
head -c 40 "$T/ge.lbw1" > "$T/truncated.lbw1"
printf 'NOPE' > "$T/badmagic.lbw1"
# Version 1 listed every op; it has no reader.
printf 'LBW1\001\002v1\001\001' > "$T/version1.lbw1"
for bad in "$T/truncated.lbw1" "$T/badmagic.lbw1" "$T/version1.lbw1"; do
    if "$LBR" info "$bad" > /dev/null 2> "$T/err.txt"; then
        echo "replay_smoke: FAIL - $bad was accepted" >&2
        exit 1
    fi
    grep -qi "panic" "$T/err.txt" && {
        echo "replay_smoke: FAIL - $bad caused a panic" >&2
        exit 1
    }
done

"$LBR" info "$T/version1.lbw1" 2>&1 | grep -q "unsupported LBW1 version 1" || {
    echo "replay_smoke: FAIL - a version-1 file is not reported as one" >&2
    exit 1
}

echo "replay_smoke: OK"
