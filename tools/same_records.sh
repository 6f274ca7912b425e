#!/usr/bin/env bash
# Compare the benchmark's reference records at a revision and in the working tree.
#
#     tools/same_records.sh [REV]        # REV defaults to HEAD
#
# Unpacks REV and the working tree's tracked files into two directories under
# a temporary directory, runs `python3 perfbench/record.py` in each, prints
# the diff of the two stdouts and exits 1 if they differ.  When they differ it
# then prints one line per record: the iteration count and the converged flag
# at REV -> in the working tree, and the relative change of delta, e_q and e_u
# (of the terminal norm, for forward-1d).  record.py rewrites
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
    python3 - "$tmp/rev.out" "$tmp/tree.out" <<'PY' || true
import json
import sys


def records(path):
    """{label: record} from record.py's 'WORKLOAD data seed S: JSON' lines."""
    out = {}
    for line in open(path):
        head, _, body = line.partition(": ")
        value = json.loads(body)
        if isinstance(value, dict):  # forward-1d: the terminal norm per alpha
            value = [{"alpha": float(a), "norm": v} for a, v in value.items()]
        for rec in value:
            keys = " ".join(f"{k}={rec[k]:g}" for k in ("alpha", "eps") if k in rec)
            out[f"{head} {keys}"] = rec
    return out


def change(before, after):
    if before == after:
        return "0"
    return f"{(after - before) / abs(before):+.2e}" if before else f"{before} -> {after}"


before, after = (records(path) for path in sys.argv[1:])
for label in dict.fromkeys([*before, *after]):
    old, new = before.get(label), after.get(label)
    if old is None or new is None:
        print(f"{label}: only {'in the working tree' if old is None else 'at the revision'}")
    elif "norm" in old:
        print(f"{label}: norm {change(old['norm'], new['norm'])}")
    else:
        print(f"{label}: iters {old['iters']} -> {new['iters']}, converged "
              f"{old['converged']} -> {new['converged']}, "
              + ", ".join(f"{k} {change(old[k], new[k])}" for k in ("delta", "e_q", "e_u")))
PY
    exit 1
fi
