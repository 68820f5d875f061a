#!/bin/sh
# Check that a delpoly command reproduces the committed reference outputs:
# the verifier suite, the five route hashes, the two golden scans, the
# golden table, and the README's verify and scan blocks.  The arguments are
# the command to run, for example
#
#     sh tests/reference_outputs.sh delpoly
#     sh tests/reference_outputs.sh python -W error -m delpoly.cli
#
# Run it from the root of the repository.  It stops at the first mismatch.
set -eu

if [ "$#" -eq 0 ]; then
  echo "usage: $0 COMMAND [ARG...]" >&2
  exit 2
fi

echo "suite output against perfbench/reference/suite.jsonl"
"$@" verify --format json | cmp - perfbench/reference/suite.jsonl

for spec in direct:22 newform:28 series:22 three-term:90 two-term:72; do
  route=${spec%%:*}
  n=${spec##*:}
  echo "route $route at n=$n against perfbench/reference/routes.json"
  got=$("$@" poly -n "$n" --route "$route" | sha256sum | cut -d' ' -f1)
  want=$(python3 -c 'import json, sys; print(json.load(open("perfbench/reference/routes.json"))[sys.argv[1]])' "$route")
  if [ "$got" != "$want" ]; then
    echo "$route at n=$n: sha256 $got, reference $want" >&2
    exit 1
  fi
done

echo "default-grid scan against tests/golden/scan_default.jsonl"
"$@" scan --format json | cmp - tests/golden/scan_default.jsonl

echo "deep scan against tests/golden/scan_deep.jsonl"
"$@" scan --grid-file tests/golden/scan_deep.grid --format json | cmp - tests/golden/scan_deep.jsonl

for fmt in csv json; do
  echo "table against tests/golden/table_r7_3.$fmt"
  "$@" table --n-max 30 -r 7/3 -x -1,1/2,-5/7 --format "$fmt" | cmp - "tests/golden/table_r7_3.$fmt"
done

block=$(mktemp)
trap 'rm -f "$block"' EXIT
for command in verify scan; do
  echo "$command text output against its block in README.md"
  # The fenced block after the line <!-- delpoly COMMAND -->.
  awk -v tag="<!-- delpoly $command -->" '
    inside && /^```/ { exit }
    found && /^```/ { inside = 1; next }
    inside { print }
    $0 == tag { found = 1 }' README.md > "$block"
  if [ ! -s "$block" ]; then
    echo "README.md has no <!-- delpoly $command --> block" >&2
    exit 1
  fi
  "$@" "$command" | cmp - "$block"
done
