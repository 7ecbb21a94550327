#!/usr/bin/env sh
# Workload-trace smoke test.
#
# Exercises the trace frontend end to end and checks the invariants
# DESIGN.md §2.12 promises:
#
#   1. byte-identity  - `lb-replay selftest` on every checked-in corpus
#                       file: replaying while re-capturing must re-encode
#                       to the exact file bytes (canonical encoding);
#   2. fresh capture  - captures of S1, GE and BI made here and now
#                       (`--sms 2 --iterations 6`) equal the checked-in
#                       files byte for byte, so the recorders still code
#                       what the corpus pins; a fresh GE capture
#                       round-trips as in 1, so the property isn't an
#                       artifact of the committed files; S1 is also
#                       captured and selftested at 64 SMs, so many-SM
#                       capture and capture during replay run here;
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
#   6. hardening      - truncated, corrupted, version-1 and version-2 trace
#                       files, a trace declaring more streams than its
#                       bytes can hold, a text trace declaring more warps
#                       than it can list, zero --sms/--iterations counts,
#                       an SM count past the 65,536 a GPU may have
#                       (`capture GE ... --sms 70000` and `selftest ...
#                       --sms 70000`) and an option the subcommand does
#                       not take (`capture GE ... --bogus`) are rejected
#                       with a clean error exit, never a panic or an abort;
#   7. info           - `lb-replay info` counts memory ops by instruction
#                       kind, lineless sparse stores included, one run per
#                       captured stream, the kernel's line pool, the
#                       records that repeat a slice of it and the bytes the
#                       decoded kernel's arrays hold (its record bytes as
#                       the file codes them, pool, runs, stream starts).
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

echo "replay_smoke: info counts every Load/Store op, run and pool line"
# S1's result store is sparse: 512 of its 2304 memory ops carry no line.
# Its 128 captured streams are one run each. Warps re-read each other's
# lines: 522 records repeat a slice of the 1270-line kernel pool. Decoded,
# the kernel keeps the file's 5270 record bytes as they are (the 5722-byte
# file less its header and runs), each pool line and run takes 8 bytes,
# and each stream start (first run, first record byte, first fresh pool
# line) 12 bytes, for each stream and one more:
# 5270 + 1270 * 8 + 128 * 8 + 129 * 12 = 18002.
"$LBR" info "$CORPUS/s1-reuse.lbw1" > "$T/info.txt"
for want in "memory ops    2304 (512 without lines)" "runs          128" \
    "line pool     1270 entries" "repeats       522 records" \
    "decoded       18002 bytes"; do
    grep -qx "$want" "$T/info.txt" || {
        echo "replay_smoke: FAIL - info does not print '$want'" >&2
        cat "$T/info.txt" >&2
        exit 1
    }
done

echo "replay_smoke: fresh captures equal the corpus"
for pair in S1:s1-reuse GE:ge-stream BI:bi-mixed; do
    app=${pair%%:*}
    name=${pair#*:}
    "$LBR" capture "$app" "$T/$name.lbw1" --sms 2 --iterations 6 > /dev/null
    cmp "$T/$name.lbw1" "$CORPUS/$name.lbw1" || {
        echo "replay_smoke: FAIL - a fresh $app capture differs from $name.lbw1" >&2
        exit 1
    }
done

echo "replay_smoke: fresh capture round-trips"
"$LBR" capture GE "$T/ge.lbw1" --sms 2 --iterations 4
"$LBR" selftest "$T/ge.lbw1" --sms 2

echo "replay_smoke: 64-SM capture round-trips"
"$LBR" capture S1 "$T/s1-64.lbw1" --sms 64
"$LBR" selftest "$T/s1-64.lbw1" --sms 64

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

echo "replay_smoke: malformed inputs, bad counts and options are rejected cleanly"
head -c 40 "$T/ge.lbw1" > "$T/truncated.lbw1"
printf 'NOPE' > "$T/badmagic.lbw1"
# Version 1 listed every op and version 2 kept a pool per stream; neither
# has a reader.
printf 'LBW1\001\002v1\001\001' > "$T/version1.lbw1"
printf 'LBW1\002\002v2\001\001' > "$T/version2.lbw1"
# A 2^20 x 2^20-warp grid declaring its 2^40 streams, then one valid
# stream: the count must be checked against the input, not allocated for.
printf 'LBW1\003\001h\200\200\100\200\200\100\001\000\001\000\001\000\000\001\000\200\200\200\200\200\040\001\000\001' \
    > "$T/hugecount.lbw1"
# 65536 x 65536 threads per block: more warps than three lines can list.
printf -- '-grid dim = (1,1,1)\n-block dim = (65536,65536,1)\n#BEGIN_TB\n' > "$T/huge.traceg"
# lb-replay exits 1 on a reported error; a panic exits 101 and an abort 134.
rejects() {
    status=0
    "$@" > /dev/null 2> "$T/err.txt" || status=$?
    if [ "$status" -ne 1 ] || grep -qi "panic" "$T/err.txt"; then
        echo "replay_smoke: FAIL - '$*' exited $status instead of a clean error" >&2
        cat "$T/err.txt" >&2
        exit 1
    fi
}
for bad in truncated badmagic version1 version2 hugecount; do
    rejects "$LBR" info "$T/$bad.lbw1"
done
rejects "$LBR" import "$T/huge.traceg" "$T/huge.lbw1"
grep -q "more than the file's 3 lines can list" "$T/err.txt" || {
    echo "replay_smoke: FAIL - the huge block is not reported as unlistable" >&2
    exit 1
}
rejects "$LBR" capture GE "$T/zero.lbw1" --sms 0
rejects "$LBR" capture GE "$T/zero.lbw1" --iterations 0
rejects "$LBR" selftest "$CORPUS/s1-reuse.lbw1" --sms 0
rejects "$LBR" capture GE "$T/many.lbw1" --sms 70000
rejects "$LBR" selftest "$CORPUS/s1-reuse.lbw1" --sms 70000
rejects "$LBR" capture GE "$T/bogus.lbw1" --sms 1 --iterations 1 --bogus

for v in 1 2; do
    "$LBR" info "$T/version$v.lbw1" 2>&1 | grep -q "unsupported LBW1 version $v" || {
        echo "replay_smoke: FAIL - a version-$v file is not reported as one" >&2
        exit 1
    }
done

echo "replay_smoke: OK"
