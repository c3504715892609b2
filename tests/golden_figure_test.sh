#!/bin/sh
# Golden-output check for one figure/table program: its stdout must
# be byte-identical to tests/golden/figures/<name>.txt.  The outputs
# are deterministic and independent of the job count, so any
# difference is a change in the reproduced numbers or their layout.
# To accept an intended change, regenerate the golden from the new
# program and review the diff.
#
# usage: golden_figure_test.sh /path/to/program /path/to/golden.txt
set -eu

PROG="$1"
GOLDEN="$2"
TMP="${TMPDIR:-/tmp}/golden_figure_$$"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

"$PROG" > "$TMP/out.txt"
if ! cmp -s "$GOLDEN" "$TMP/out.txt"; then
    echo "golden_figure_test: $(basename "$PROG") output differs" \
         "from $GOLDEN:" >&2
    diff "$GOLDEN" "$TMP/out.txt" >&2 || true
    exit 1
fi
