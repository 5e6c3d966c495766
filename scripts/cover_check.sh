#!/bin/sh
# cover_check.sh — statement-coverage floor for the hot-path solver packages.
# The workspace/active-set refactor (DESIGN.md §10) leans on its test layer —
# the dpsched property suite, the game identity/invariance tests, the ceopt
# workspace tests and the fleet determinism suite (§12) — and every command
# shares internal/cli's signal/obs/exit path — so this gate fails
# the build if any of those packages
# drops below the floor, before a coverage regression can silently erode the
# bitwise-identity contract.
#
# Run from the repository root: scripts/cover_check.sh
set -eu

FLOOR=${COVER_FLOOR:-70}
PKGS="internal/dpsched internal/game internal/ceopt internal/meterstate internal/fleet internal/supervise internal/serve internal/attack internal/cli"
PROFILE=${COVER_PROFILE:-coverage.out}

fail=0
for pkg in $PKGS; do
    go test -coverprofile "$PROFILE" "./$pkg" >/dev/null
    pct=$(go tool cover -func "$PROFILE" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
    ok=$(awk -v p="$pct" -v f="$FLOOR" 'BEGIN {print (p >= f) ? 1 : 0}')
    if [ "$ok" -eq 1 ]; then
        echo "cover_check: $pkg ${pct}% (floor ${FLOOR}%)"
    else
        echo "cover_check: $pkg ${pct}% is below the ${FLOOR}% floor" >&2
        fail=1
    fi
done
rm -f "$PROFILE"

exit $fail
