#!/usr/bin/env bash
# Prints the verdicts and observation sets of the 14 quick Fig. 10
# pairs (internal/bench's -quick rows) on sc, tso, pso and relaxed:
#
#   go build -o checkfence-bin ./cmd/checkfence
#   bash testdata/show_spec_quick.sh ./checkfence-bin | diff testdata/show_spec_quick.txt -
#
# Counterexample traces are left out: each is one valid witness among
# many, so a deliberate change to the search may pick another.
set -euo pipefail
bin=$1
out=$(mktemp)
trap 'rm -f "$out"' EXIT
for pair in ms2/T0 ms2/T1 ms2/Ti2 ms2/Tpc2 msn/T0 msn/Ti2 msn/Tpc2 \
	lazylist/Sac lazylist/Sar lazylist/Saa harris/Sac harris/Saa snark/D0 snark/Da; do
	rc=0
	"$bin" -impl "${pair%/*}" -test "${pair#*/}" -model sc,tso,pso,relaxed -show-spec > "$out" || rc=$?
	echo "== $pair exit $rc"
	grep -E '^(PASS|FAIL|UNKNOWN|observation set|  [-0-9a-z,]+$)' "$out"
done
