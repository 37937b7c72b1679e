#!/usr/bin/env bash
# Paired base-vs-head comparison on the pipeline benchmark (BENCHMARK.json).
#
#   scripts/bench_compare.sh BASE_REV [WORKLOAD] [PAIRS] [--layers]
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
# than base's interquartile distance. A metric whose base interquartile
# distance exceeds its bound (as a fraction of base's median) is marked
# `unresolved` unless every head run beats every base run; that mark is a
# report only and never changes the exit status. It exits 1 when a head
# median is worse than base's by more than the metric's bound in
# BENCHMARK.json, or when head failed more ops than base. Raw run logs and a TSV of every
# value stay in benchmark/out/compare/.
#
# With --layers, after the pairs it also makes two traced runs
# (`--trace 1`, seed 1) per side and workload, alternating base, head,
# head, base, and prints every per-layer metric of BENCHMARK.json whose
# value is not the same in all four runs: both base readings, both head
# readings, and head ÷ base of the two-run means. Two runs per side show
# how far a reading moves between runs of the same code, but are no
# statistic, so only work counts gate: it exits 1 when a per-layer metric
# with unit `count` is not the same in all four traced runs on a workload
# in COUNT_GATED below, except the metrics in COUNT_UNGATED. Those counts
# repeat exactly per seed on a single-client workload, so any difference
# is a change in the work done. serve-churn is left out because its two
# clients interleave differently on every run, and
# minhash.signatures_per_table because it grows with the passes a window
# fits.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
layers=0
positional=()
for arg in "$@"; do
  if [ "$arg" = --layers ]; then layers=1; else positional+=("$arg"); fi
done
set -- "${positional[@]}"
base_rev="${1:?usage: scripts/bench_compare.sh BASE_REV [WORKLOAD] [PAIRS] [--layers]}"
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

stamp="$(date +%Y%m%d-%H%M%S)"
runs="$out/runs-$sha-$stamp.tsv"
traced="$out/layers-$sha-$stamp.tsv"
: > "$runs"
: > "$traced"
# One run at `--trace TRACE`; appends `workload side pair metric value`
# rows to TSV (pair is -1 or -2 for the traced runs).
run_one() {
  local side=$1 w=$2 pair=$3 trace=$4 tsv=$5 dir log seed
  dir="$(side_dir "$side")"
  if [ "$trace" = 1 ]; then
    seed=1
    log="$out/$side-$w-traced$((-pair)).log"
  else
    seed=$((pair + 1))
    log="$out/$side-$w-$pair.log"
  fi
  echo "$w pair $pair trace $trace: $side" >&2
  CARGO_TARGET_DIR="$dir/benchmark/target" \
    bash "$dir/benchmark/run.sh" --workload "$w" --seed "$seed" --trace "$trace" > "$log"
  awk -v w="$w" -v s="$side" -v p="$pair" '
    $1 == w && NF == 4 { print w "\t" s "\t" p "\t" $2 "\t" $3 }
    $1 == "#" && $2 == w && $3 == "attempted" { print w "\t" s "\t" p "\tfailed\t" $6 }
  ' "$log" >> "$tsv"
}

for w in $workloads; do
  for ((pair = 0; pair < pairs; pair++)); do
    if ((pair % 2 == 0)); then order="base head"; else order="head base"; fi
    for side in $order; do
      run_one "$side" "$w" "$pair" 0 "$runs"
    done
  done
done
if ((layers)); then
  sides=(base head head base)
  for w in $workloads; do
    for k in 0 1 2 3; do
      run_one "${sides[k]}" "$w" $((-1 - k / 2)) 1 "$traced"
    done
  done
fi

echo "runs: $runs" >&2
python3 - "$root/BENCHMARK.json" "$runs" "$traced" <<'EOF'
import json
import statistics
import sys

COUNT_GATED = ["pipeline-hetero", "discover-hetero", "ingest-restart"]
COUNT_UNGATED = ["minhash.signatures_per_table"]

bench = json.load(open(sys.argv[1]))
values = {}  # (workload, metric) -> side -> pair -> value
for line in open(sys.argv[2]):
    w, side, pair, metric, value = line.rstrip("\n").split("\t")
    values.setdefault((w, metric), {}).setdefault(side, {})[int(pair)] = float(value)
layers = {}  # (workload, metric) -> side -> [traced run -1, traced run -2]
for line in sorted(open(sys.argv[3]), key=lambda l: -int(l.split("\t")[2])):
    w, side, _, metric, value = line.rstrip("\n").split("\t")
    layers.setdefault((w, metric), {}).setdefault(side, []).append(float(value))


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
        # Base spread wider than the bound cannot tell a change from noise
        # unless head's runs all beat base's (choosing-metrics §6.5).
        spread = (b3 - b1) / bm if bm else 0.0
        clear = min(head.values()) > max(base.values()) if higher \
            else max(head.values()) < min(base.values())
        unresolved = spread > m["bound"] and not clear
        print(f"  {m['name']:13} base {bm:10.4g} [{b1:.4g}, {b3:.4g}]"
              f"  head {hm:10.4g} [{h1:.4g}, {h3:.4g}]  head/base {ratio}"
              f"  head wins {wins}/{len(paired)}"
              f"  |Δmedian| > base IQR: {'yes' if abs(hm - bm) > b3 - b1 else 'no'}"
              f"{f'  unresolved (base IQR/median {spread:.3f} > bound)' if unresolved else ''}"
              f"{'  WORSE than bound ' + str(m['bound']) if bad else ''}")
for w in [w for w in order if any(lw == w for lw, _ in layers)]:
    print(f"{w}: per-layer metrics that differ (two traced runs per side, seed 1)")
    for m in bench["per_layer"]:
        sides = layers.get((w, m["name"]), {})
        if "base" not in sides or "head" not in sides:
            continue
        b, h = sides["base"], sides["head"]
        if len(set(b + h)) == 1:
            continue
        bm, hm = statistics.mean(b), statistics.mean(h)
        ratio = f"{hm / bm:7.3f}" if bm else "      -"
        gated = (m["unit"] == "count" and w in COUNT_GATED
                 and m["name"] not in COUNT_UNGATED)
        if gated:
            worse.append(f"{w} {m['name']} count")
        runs = lambda v: " ".join(f"{x:10.4g}" for x in v)
        print(f"  {m['name']:34} base {runs(b)}  head {runs(h)}  head/base {ratio}"
              f"  ({m['unit']}, {m['better']} is better)"
              f"{'  COUNT CHANGED' if gated else ''}")
if worse:
    print("gates failed: " + ", ".join(worse))
    sys.exit(1)
EOF
