#!/usr/bin/env sh
# Greedy-run burst execution smoke test (DESIGN.md §2.11).
#
# Bursting batches multi-cycle SM work between memory rendezvous points;
# it is a pure speed optimization and must be architecturally invisible.
# `ci/identity.sh` checks that `--no-burst` leaves rendered output
# byte-identical in both harness binaries; this script checks the rest at
# quick scale:
#
#   1. trace parity - a traced burst-on run self-diffs identical against a
#                     traced `--no-burst` run (tracing suspends bursting,
#                     so both sides are lockstep and the event streams
#                     must match byte for byte);
#   2. engagement   - the burst-on profile reports spans covering more
#                     cycles than there are spans (mean length > 1), so
#                     the output identity is not vacuous.
#
#   usage: ci/burst_smoke.sh [sanity-binary] [lb-trace-binary]
set -eu

SANITY=${1:-target/release/sanity}
LBT=${2:-target/release/lb-trace}

T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

echo "burst_smoke: traced burst-on vs traced --no-burst (zero divergence)"
"$SANITY" --quick --trace "$T/tr_on" GA > /dev/null
"$SANITY" --quick --no-burst --trace "$T/tr_off" GA > /dev/null
for f in "$T"/tr_on/*.lbt; do
    base=$(basename "$f")
    "$LBT" diff "$f" "$T/tr_off/$base" > "$T/diff.txt" || {
        echo "burst_smoke: FAIL - trace $base diverges between burst on/off" >&2
        cat "$T/diff.txt" >&2
        exit 1
    }
done

echo "burst_smoke: burst-on profile reports spans (identity must not be vacuous)"
"$SANITY" --quick --profile GA > "$T/profile.json" 2> /dev/null
# Key-based, whitespace-tolerant extraction (same approach as
# ci/throughput_gate.sh): "bursts" and "burst_cycles" appear only in the
# sm_phases burst block.
bursts=$(grep -o '"bursts": *[0-9]*' "$T/profile.json" | head -1 | grep -o '[0-9]*$')
bcycles=$(grep -o '"burst_cycles": *[0-9]*' "$T/profile.json" | head -1 | grep -o '[0-9]*$')
[ -n "$bursts" ] || { echo "burst_smoke: no burst block in profile" >&2; exit 2; }
[ "$bursts" -gt 0 ] || {
    echo "burst_smoke: FAIL - burst-on run recorded zero spans" >&2
    exit 1
}
[ "$bcycles" -gt "$bursts" ] || {
    echo "burst_smoke: FAIL - mean burst length is not above 1 ($bcycles cycles / $bursts spans)" >&2
    exit 1
}
echo "burst_smoke: $bursts spans covering $bcycles SM-cycles"

echo "burst_smoke: OK"
