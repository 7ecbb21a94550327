#!/usr/bin/env sh
# Partitioned-memory smoke test.
#
# Exercises the partition layer end to end at quick scale. That
# `--partitions 1` output is byte-identical to the default (the
# partitioned path with one partition IS the monolithic memory subsystem)
# is checked by `ci/identity.sh`; this script checks the rest:
#
#   1. functionality - a 4-partition run of `fig01 table2` completes with
#                      exit code 0;
#   2. conservation  - the `partition` sensitivity sweep renders its full
#                      table and every P=1 row reports conserved totals;
#   3. validation    - non-power-of-two partition counts, and a power of
#                      two the 16 DRAM banks cannot split across, are
#                      rejected with exit code 2.
#
#   usage: ci/partition_smoke.sh [lb-experiments-binary]
set -eu

LBX=${1:-target/release/lb-experiments}

T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

echo "partition_smoke: 4-partition run of fig01 table2"
"$LBX" --scale quick --jobs 1 --partitions 4 --out "$T/p4.txt" fig01 table2 2> /dev/null
[ -s "$T/p4.txt" ] || { echo "partition_smoke: empty 4-partition output" >&2; exit 1; }

echo "partition_smoke: sensitivity sweep renders and P=1 rows conserve"
"$LBX" --scale quick --jobs 1 --out "$T/sweep.txt" partition 2> /dev/null
grep -q "memory-partition sensitivity" "$T/sweep.txt" || {
    echo "partition_smoke: sweep table missing" >&2
    exit 1
}
# Every P=1 row is its own conservation baseline and must say "yes".
bad=$(awk '$2 == 1 && $NF != "yes"' "$T/sweep.txt")
[ -z "$bad" ] || {
    echo "partition_smoke: FAIL - P=1 rows not conserved:" >&2
    echo "$bad" >&2
    exit 1
}

echo "partition_smoke: invalid partition counts are rejected"
for n in 0 3 64; do
    if "$LBX" --scale quick --partitions "$n" fig01 > /dev/null 2>&1; then
        echo "partition_smoke: FAIL - --partitions $n was accepted" >&2
        exit 1
    else
        code=$?
        [ "$code" -eq 2 ] || {
            echo "partition_smoke: FAIL - --partitions $n exited $code, want 2" >&2
            exit 1
        }
    fi
done

echo "partition_smoke: OK"
