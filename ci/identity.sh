#!/usr/bin/env sh
# Output-identity checks at quick scale.
#
# Each row of the table at the bottom names a binary, the arguments of its
# default run and the knobs that must leave that run's output
# byte-identical. The default run happens once per row; each knob is then
# appended to the same arguments (a later flag overrides an earlier one)
# and its stdout `cmp`ed against the default's:
#
#   - worker count: `--jobs 4` against `--jobs 1` over ids that plan
#     L1-override, detailed-stats and window keys;
#   - one explicit memory partition: the partitioned path with P=1 is the
#     monolithic memory subsystem;
#   - `--no-burst`: greedy-run bursts and SM local clocks are a speed
#     optimization only, in both harness binaries.
#
#   usage: ci/identity.sh [lb-experiments-binary] [sanity-binary]
set -eu

LBX=${1:-target/release/lb-experiments}
SANITY=${2:-target/release/sanity}

T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

# identity BINARY ARGS KNOB... : runs BINARY with ARGS, then once per KNOB
# with KNOB appended, and fails unless every output equals the first.
identity() {
    bin=$1
    args=$2
    shift 2
    # ARGS and KNOB are word lists, so they stay unquoted.
    "$bin" $args > "$T/default.txt" 2> /dev/null
    [ -s "$T/default.txt" ] || { echo "identity: empty output from '$args'" >&2; exit 1; }
    for knob in "$@"; do
        echo "identity: $(basename "$bin") $args | $knob"
        "$bin" $args $knob > "$T/knob.txt" 2> /dev/null
        cmp "$T/default.txt" "$T/knob.txt" || {
            echo "identity: FAIL - '$knob' changed the output of '$args'" >&2
            exit 1
        }
    done
}

identity "$LBX" "--scale quick --jobs 1 fig01 fig02 table2 ablation" "--jobs 4"
identity "$LBX" "--scale quick --jobs 1 fig01 table2" "--partitions 1" "--no-burst"
identity "$SANITY" "--quick GA" "--no-burst"

echo "identity: OK"
