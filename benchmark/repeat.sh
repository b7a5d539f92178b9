#!/usr/bin/env bash
# repeat.sh N [FIRST_SEED]        run every workload N times, each time
#                                 with another seed, and judge the
#                                 run-to-run spread the way the driver does
# TRACE=1 repeat.sh N [FIRST_SEED]  the same for the traced (per-layer) runs
# repeat.sh --same A.jsonl B.jsonl  check that two result files agree: on
#                                 every exact count, run by run, and on
#                                 every end-to-end median within its bound
#
# Prints, per metric x workload: the median, the quartiles (Python's
# statistics.quantiles(n=4)), (Q3 - Q1) / median, (max - min) / median and
# the metric's bound from BENCHMARK.json. Exits 1 when the spread
# (Q3 - Q1) / median of an end-to-end metric other than setup_s exceeds
# its bound, or a run was incorrect. Run from the repository root; the
# results land in benchmark/out/repeat-<pid>.jsonl.
set -euo pipefail
[ -f BENCHMARK.json ] || { echo "run from the repository root" >&2; exit 2; }

if [ "${1:-}" = "--same" ]; then
  python3 - "$2" "$3" <<'PY'
import json, statistics, sys
bench = json.load(open("BENCHMARK.json"))
def load(path):
    return [json.loads(line) for line in open(path)]
a, b = load(sys.argv[1]), load(sys.argv[2])
status = 0

# 1. Exact counts, run by run. Two counts are of what the host did, not of
# what the program computed: the backlog when the last request left, and
# the checkpoint's size (which jobs were running at the wall-clock instant
# the journal rotated).
host = {"serve.backlog_at_end", "serve.checkpoint.bytes"}
def counts(rows):
    return {(r["workload"], r["seed"]): {k: m["value"] for k, m in r["result"]["metrics"].items()
                                         if m["unit"] == "count" and k not in host} for r in rows}
ca, cb = counts(a), counts(b)
diff = [(k, m, ca[k][m], cb[k][m]) for k in sorted(ca) if k in cb for m in ca[k] if ca[k][m] != cb[k].get(m)]
for (w, seed), m, x, y in diff:
    print(f"{w} seed {seed}: {m} = {x} vs {y}")
print(f"{len(ca.keys() & cb.keys())} runs compared, {len(diff)} exact counts differ")
status |= bool(diff)

# 2. Medians of the second file against the first: not worse by more than
# the bound (end-to-end metrics; the driver's second test).
bound = {m["name"]: m for m in bench["end_to_end"]}
print(f'{"workload":<12} {"metric":<15} {"median A":>14} {"median B":>14} {"B worse by":>10} {"bound":>6}')
for w in [x["name"] for x in bench["workloads"]]:
    for name, m in bound.items():
        va = [r["result"]["metrics"][name]["value"] for r in a if r["workload"] == w and name in r["result"]["metrics"]]
        vb = [r["result"]["metrics"][name]["value"] for r in b if r["workload"] == w and name in r["result"]["metrics"]]
        if not va or not vb:
            continue
        ma, mb = statistics.median(va), statistics.median(vb)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        over = worse > m["bound"]
        status |= over
        print(f'{w:<12} {name:<15} {ma:>14.4f} {mb:>14.4f} {worse:>10.4f} {m["bound"]:>6}{"  OVER" if over else ""}')
sys.exit(status)
PY
  exit $?
fi

n="${1:?usage: benchmark/repeat.sh N [FIRST_SEED]}"
first="${2:-101}"
trace="${TRACE:-0}"
mkdir -p benchmark/out
out="benchmark/out/repeat-$$.jsonl"
: > "$out"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
for i in $(seq 0 $((n - 1))); do
  for w in $workloads; do
    seed=$((first + i))
    line=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
      --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1)
    echo "{\"workload\":\"$w\",\"seed\":$seed,\"result\":$line}" >> "$out"
    echo "set $((i + 1))/$n $w seed $seed done" >&2
  done
done
echo "results in $out" >&2
python3 - "$out" "$trace" <<'PY'
import json, statistics, sys
bench = json.load(open("BENCHMARK.json"))
traced = sys.argv[2] != "0"
metrics = bench["per_layer" if traced else "end_to_end"]
rows = [json.loads(l) for l in open(sys.argv[1])]
bad = [r for r in rows if not r["result"]["correct"] or r["result"]["failed"]]
status = 0
print(f'{"workload":<12} {"metric":<34} {"n":>2} {"median":>14} {"q1":>14} {"q3":>14} {"iqr/med":>8} {"range/med":>9} {"bound":>6}')
for w in [x["name"] for x in bench["workloads"]]:
    for m in metrics:
        v = [r["result"]["metrics"][m["name"]]["value"] for r in rows if r["workload"] == w]
        if len(v) < 2 or not any(v):
            continue  # a layer this workload does not exercise
        q1, med, q3 = statistics.quantiles(v, n=4)
        iqr, rng = ((q3 - q1) / med, (max(v) - min(v)) / med) if med else (0.0, 0.0)
        bound = m.get("bound", "-")
        over = not traced and m["name"] != "setup_s" and iqr > bound
        status |= over
        print(f'{w:<12} {m["name"]:<34} {len(v):>2} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {iqr:>8.4f} {rng:>9.4f} {bound:>6}{"  OVER" if over else ""}')
for r in bad:
    print(f'INCORRECT {r["workload"]} seed {r["seed"]}: {r["result"]["failed"]} failed of {r["result"]["attempted"]}')
sys.exit(1 if status or bad else 0)
PY
