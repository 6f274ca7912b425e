#!/usr/bin/env bash
# Compare the benchmark's reference records at a revision and in the working tree.
#
#     tools/same_records.sh [REV]        # REV defaults to HEAD
#
# Unpacks REV and the working tree's tracked files into two directories under
# a temporary directory, runs `python3 perfbench/record.py` in each, prints
# the diff of the two stdouts and exits 1 if they differ.  record.py rewrites
# perfbench/reference.json, so it runs only in the copies: nothing inside the
# repository is written.
set -euo pipefail

rev=${1:-HEAD}
cd "$(git rev-parse --show-toplevel)"
git rev-parse --quiet --verify "$rev^{commit}" > /dev/null \
    || { echo "same_records: unknown revision $rev" >&2; exit 2; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev" "$tmp/tree"

git archive "$rev" | tar -x -C "$tmp/rev"
# tracked files as they are on disk; one deleted but not yet staged is left out
git ls-files -z | while IFS= read -r -d '' f; do
    if [ -e "$f" ] || [ -L "$f" ]; then printf '%s\0' "$f"; fi
done | tar --null -T - -c -f - | tar -x -C "$tmp/tree"

for side in rev tree; do
    (cd "$tmp/$side" && python3 perfbench/record.py) > "$tmp/$side.out"
done
if diff -u --label "$rev" --label "working tree" "$tmp/rev.out" "$tmp/tree.out"; then
    echo "same_records: identical records at $rev and in the working tree" >&2
else
    exit 1
fi
