#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload — the
# choosing-metrics §8 procedure every host-time claim needs.
#
#   ci/pairs.sh WORKLOAD [PAIRS=10] [SEED=42] [REV=HEAD~]
#
# Builds REV's benchmark/ (a `git archive` snapshot, so the repository's
# git state is untouched) and the working tree's, each into its own target
# directory under $PAIRS_DIR (default target/pairs), then runs the
# driver's single run (`--workload W --seed S --seconds <run_seconds>
# --trace 0`) PAIRS times per side, alternating which side goes first.
# Prints, per end-to-end metric of BENCHMARK.json: both medians, both
# quartile pairs, wins/pairs and a verdict:
#
#   GAIN        change wins >= 9/10 of the pairs (ties count for neither)
#               and the medians differ by more than the parent's
#               inter-quartile distance
#   WORSE       change's median is worse than the parent's by more than
#               the metric's bound
#   unresolved  the parent's own spread is wider than the bound and the
#               two sides' runs overlap
#   same        otherwise (no worse than the bound)
#
# Reads benchmark/ and BENCHMARK.json, writes only under $PAIRS_DIR. Host
# time cannot be gated on shared CI runners, so no job calls this; run it
# on a quiet box and paste the table into the PR.
set -euo pipefail

if [ "$#" -lt 1 ]; then
  echo "usage: $0 WORKLOAD [PAIRS=10] [SEED=42] [REV=HEAD~]" >&2
  exit 2
fi
workload=$1
pairs=${2:-10}
seed=${3:-42}
rev=${4:-HEAD~}

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
dir="${PAIRS_DIR:-$root/target/pairs}"
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")

sha=$(git -C "$root" rev-parse --short "$rev")
src="$dir/parent-src-$sha"
if [ ! -d "$src" ]; then
  mkdir -p "$src"
  git -C "$root" archive "$rev" | tar -x -C "$src"
fi
echo "building parent ($rev = $sha) and change (working tree)" >&2
CARGO_TARGET_DIR="$dir/parent-target" \
  cargo build --release --offline --quiet --manifest-path "$src/benchmark/Cargo.toml"
CARGO_TARGET_DIR="$dir/change-target" \
  cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"

runs="$dir/runs-$workload-$seed"
rm -rf "$runs"
mkdir -p "$runs"
one_run() { # side
  "$dir/$1-target/release/kona-benchmark" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 --out-dir "$runs/out-$1" | tail -n 1 >>"$runs/$1.jsonl"
}
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    one_run "$side"
  done
  echo "pair $i/$pairs done" >&2
done

python3 - "$root/BENCHMARK.json" "$runs" "$workload" "$seed" "$sha" <<'EOF'
import json, statistics, sys

contract, runs, workload, seed, sha = sys.argv[1:]
load = lambda side: [json.loads(l) for l in open(f"{runs}/{side}.jsonl")]
parent, change = load("parent"), load("change")

quartiles = lambda xs: statistics.quantiles(xs, n=4, method="inclusive")

print(f"{workload}, seed {seed}, {len(parent)} pairs, parent {sha} vs working tree")
for side, rs in (("parent", parent), ("change", change)):
    bad = [r for r in rs if not r["correct"] or r["failed"]]
    print(f"  {side}: {len(bad)} of {len(rs)} runs incorrect or with failed operations")
print(f"  {'metric':<16}{'parent med [q1, q3]':>34}{'change med [q1, q3]':>34}"
      f"{'change/parent':>15}{'wins':>7}  verdict")
for m in json.load(open(contract))["end_to_end"]:
    name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    wins = sum(better(ci, pi) for pi, ci in zip(p, c))
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(p), quartiles(c)
    worse_by = ((pmed - cmed) if higher else (cmed - pmed)) / pmed
    clear_of = all(better(ci, pi) for ci in c for pi in p)
    if wins * 10 >= 9 * len(p) and better(cmed, pmed) and abs(cmed - pmed) > pq3 - pq1:
        verdict = "GAIN"
    elif p == c:
        verdict = "same (identical)"
    elif worse_by > bound:
        verdict = "WORSE"
    elif (pq3 - pq1) / pmed > bound and not clear_of:
        verdict = "unresolved"
    else:
        verdict = "same"
    cell = lambda q1, med, q3: f"{med:.4g} [{q1:.4g}, {q3:.4g}]"
    print(f"  {name:<16}{cell(pq1, pmed, pq3):>34}{cell(cq1, cmed, cq3):>34}"
          f"{cmed / pmed:>14.3f}x{wins:>4}/{len(p)}  {verdict}")
EOF
