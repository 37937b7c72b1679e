#!/usr/bin/env bash
# Release-mode durability smoke: snapshot a small CSV lake into a durable
# data dir in one process, then reopen it from *separate* processes —
# discover and serve must recover the lake (snapshot + commitlog replay)
# and find the seeded join, proving the on-disk format round-trips across
# process boundaries, not just within one test binary. A fourth process
# reopens the dir and checkpoints one more joinable CSV into it; a
# discover after that must find both joinable tables. A last process
# serves the CSV lake in memory (`--lake`), the other path by which the
# pipeline hands its index to the service.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
csv="$workdir/csv"
data="$workdir/data"
mkdir -p "$csv"

cat > "$csv/cases_by_city.csv" <<'EOF'
city,cases
berlin,10
barcelona,20
boston,30
new delhi,40
EOF
cat > "$csv/populations.csv" <<'EOF'
city,pop
berlin,3
madrid,6
EOF
mkdir -p "$workdir/more"
cat > "$workdir/more/city_weather.csv" <<'EOF'
city,temp
berlin,1
barcelona,2
boston,3
lima,4
EOF
cat > "$workdir/q.csv" <<'EOF'
city,rate
berlin,0.5
barcelona,0.8
boston,0.6
EOF

run() { cargo run --release --quiet -- "$@"; }

echo "== snapshot (process 1: ingest + checkpoint) =="
run snapshot --data-dir "$data" --lake "$csv"
test -f "$data/snapshot.bin" || { echo "FAIL: no snapshot written"; exit 1; }

echo "== discover (process 2: reopen from disk) =="
out="$(run discover --data-dir "$data" --query "$workdir/q.csv" --column 0 --k 3)"
echo "$out" | grep -q "cases_by_city" \
  || { echo "FAIL: recovered lake lost the joinable table"; echo "$out"; exit 1; }

echo "== serve (process 3: reopen + serve under load) =="
out="$(run serve --data-dir "$data" --query "$workdir/q.csv" --column 0 \
        --clients 4 --requests 32 --shards 2)"
echo "$out" | grep -q "cases_by_city" \
  || { echo "FAIL: served results lost the joinable table"; echo "$out"; exit 1; }

echo "== snapshot (process 4: reopen, ingest one more CSV, checkpoint) =="
run snapshot --data-dir "$data" --lake "$workdir/more"

echo "== discover (process 5: reopen the reopened process's checkpoint) =="
out="$(run discover --data-dir "$data" --query "$workdir/q.csv" --column 0 --k 3)"
for table in cases_by_city city_weather; do
  echo "$out" | grep -q "$table" \
    || { echo "FAIL: checkpoint of a reopened lake lost $table"; echo "$out"; exit 1; }
done

echo "== serve (process 6: in-memory lake, no data dir) =="
out="$(run serve --lake "$csv" --query "$workdir/q.csv" --column 0 \
        --clients 4 --requests 32 --shards 2)"
echo "$out" | grep -q "cases_by_city" \
  || { echo "FAIL: in-memory serve lost the joinable table"; echo "$out"; exit 1; }

echo "durable smoke OK"
