#!/usr/bin/env bash
# Paired base-vs-head comparison on the pipeline benchmark (BENCHMARK.json).
#
#   scripts/bench_compare.sh BASE_REV [WORKLOAD] [PAIRS]
#
# Extracts BASE_REV (any git revision) under benchmark/out/compare/ and
# alternates single untraced `benchmark/run.sh` runs of it and of this
# working tree: base first in even pairs, head first in odd ones
# (A B B A …), seed = pair number + 1, so both sides meet both of the
# host's speed regimes. Each side builds into its own target directory.
# WORKLOAD defaults to every workload of BENCHMARK.json, PAIRS to 10.
#
# Per workload and end-to-end metric it prints each side's median and
# quartiles (as Python's statistics.quantiles(n=4) cuts them), head ÷ base,
# in how many pairs head beat base, and whether the medians differ by more
# than base's interquartile distance. It exits 1 when a head median is
# worse than base's by more than the metric's bound in BENCHMARK.json, or
# when head failed more ops than base. Raw run logs and a TSV of every
# value stay in benchmark/out/compare/.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
base_rev="${1:?usage: scripts/bench_compare.sh BASE_REV [WORKLOAD] [PAIRS]}"
workloads="${2:-}"
pairs="${3:-10}"

sha="$(git -C "$root" rev-parse --verify --short "$base_rev^{commit}")"
out="$root/benchmark/out/compare"
base="$out/base-$sha"
mkdir -p "$out"
if [ ! -f "$base/benchmark/run.sh" ]; then
  rm -rf "$base.tmp"
  mkdir -p "$base.tmp"
  git -C "$root" archive "$sha" | tar -x -C "$base.tmp"
  mv "$base.tmp" "$base"
fi
if [ -z "$workloads" ]; then
  workloads="$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")"
fi

side_dir() { if [ "$1" = base ]; then echo "$base"; else echo "$root"; fi; }

# `run.sh --manifest` builds the benchmark package, then prints BENCHMARK.json.
for side in base head; do
  dir="$(side_dir "$side")"
  echo "building $side ($dir)" >&2
  CARGO_TARGET_DIR="$dir/benchmark/target" bash "$dir/benchmark/run.sh" --manifest > /dev/null
done

runs="$out/runs-$sha-$(date +%Y%m%d-%H%M%S).tsv"
: > "$runs"
# One untraced run; appends `workload side pair metric value` rows to $runs.
run_one() {
  local side=$1 w=$2 pair=$3 dir log
  dir="$(side_dir "$side")"
  log="$out/$side-$w-$pair.log"
  echo "$w pair $pair: $side" >&2
  CARGO_TARGET_DIR="$dir/benchmark/target" \
    bash "$dir/benchmark/run.sh" --workload "$w" --seed "$((pair + 1))" --trace 0 > "$log"
  awk -v w="$w" -v s="$side" -v p="$pair" '
    $1 == w && NF == 4 { print w "\t" s "\t" p "\t" $2 "\t" $3 }
    $1 == "#" && $2 == w && $3 == "attempted" { print w "\t" s "\t" p "\tfailed\t" $6 }
  ' "$log" >> "$runs"
}

for w in $workloads; do
  for ((pair = 0; pair < pairs; pair++)); do
    if ((pair % 2 == 0)); then order="base head"; else order="head base"; fi
    for side in $order; do
      run_one "$side" "$w" "$pair"
    done
  done
done

echo "runs: $runs" >&2
python3 - "$root/BENCHMARK.json" "$runs" <<'EOF'
import json
import statistics
import sys

bench = json.load(open(sys.argv[1]))
values = {}  # (workload, metric) -> side -> pair -> value
for line in open(sys.argv[2]):
    w, side, pair, metric, value = line.rstrip("\n").split("\t")
    values.setdefault((w, metric), {}).setdefault(side, {})[int(pair)] = float(value)


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, _, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


worse = []
order = [w["name"] for w in bench["workloads"]]
for w in sorted({w for w, _ in values}, key=order.index):
    failed = values.get((w, "failed"), {})
    print(f"{w}: failed base {sum(failed.get('base', {}).values()):g}"
          f" head {sum(failed.get('head', {}).values()):g}")
    if sum(failed.get("head", {}).values()) > sum(failed.get("base", {}).values()):
        worse.append(f"{w} failed")
    for m in bench["end_to_end"]:
        sides = values.get((w, m["name"]))
        if not sides or "base" not in sides or "head" not in sides:
            continue
        base, head = sides["base"], sides["head"]
        b1, bm, b3 = quartiles(list(base.values()))
        h1, hm, h3 = quartiles(list(head.values()))
        higher = m["better"] == "higher"
        paired = sorted(base.keys() & head.keys())
        wins = sum((head[p] > base[p]) if higher else (head[p] < base[p]) for p in paired)
        bad = hm < bm * (1 - m["bound"]) if higher else hm > bm * (1 + m["bound"])
        if bad:
            worse.append(f"{w} {m['name']}")
        ratio = f"{hm / bm:6.3f}" if bm else "     -"
        print(f"  {m['name']:13} base {bm:10.4g} [{b1:.4g}, {b3:.4g}]"
              f"  head {hm:10.4g} [{h1:.4g}, {h3:.4g}]  head/base {ratio}"
              f"  head wins {wins}/{len(paired)}"
              f"  |Δmedian| > base IQR: {'yes' if abs(hm - bm) > b3 - b1 else 'no'}"
              f"{'  WORSE than bound ' + str(m['bound']) if bad else ''}")
if worse:
    print("worse than bound: " + ", ".join(worse))
    sys.exit(1)
EOF
