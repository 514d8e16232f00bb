#!/usr/bin/env sh
# Regenerate the committed golden experiment outputs in testdata/:
#
#   scripts/regen-golden.sh          # quick golden only (~1 min)
#   scripts/regen-golden.sh -full    # also the full-scale goldens (~10 min)
#
# testdata/figures_quick.txt  every experiment at reduced scale (-quick)
# testdata/plans_quick.txt    the plan library at reduced scale (no wall
#                             lines: plan reports are fully deterministic)
# testdata/figures_full.txt   Figures 2-7 at paper scale
# testdata/extras_full.txt    the sci, failover, avail, clients and
#                             ablations extensions at paper scale
#
# All runs use seed 1 and the default fixed network model; with those
# held, output is bit-identical across machines, so a diff against the
# committed files is a real behaviour change, not noise (the "(wall
# time ...)" lines are the one exception — real time varies run to run).
set -eu
cd "$(dirname "$0")/.."

go build ./cmd/mdsim

./mdsim -plan figures -quick > testdata/figures_quick.txt
echo "wrote testdata/figures_quick.txt"

./mdsim -plan library -quick > testdata/plans_quick.txt
echo "wrote testdata/plans_quick.txt"

if [ "${1:-}" = "-full" ]; then
	: > testdata/figures_full.txt
	for f in fig2 fig3 fig4 fig5 fig6 fig7; do
		./mdsim -plan "$f" >> testdata/figures_full.txt
	done
	echo "wrote testdata/figures_full.txt"
	: > testdata/extras_full.txt
	for x in sci failover avail clients ablations; do
		./mdsim -plan "$x" >> testdata/extras_full.txt
	done
	echo "wrote testdata/extras_full.txt"
fi
