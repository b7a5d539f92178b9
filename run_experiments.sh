#!/bin/sh
# Regenerates every table and figure of the paper at full scale, plus the
# ablations at reduced scale. Results land in results/ and results/*.log.
# Fails loudly: the first bin that exits non-zero aborts the whole run.
set -eux
cd "$(dirname "$0")"
# Every table and ablation is a study of the `experiment` bin; the bins
# live in dynp-sim, and a plain `cargo build --release` at the root builds
# only the umbrella crate.
cargo build --release -p dynp-sim --bins
mkdir -p results
experiment=./target/release/experiment
$experiment table1 > results/table1.log 2>&1
$experiment table2 --out results > results/table2.log 2>&1
$experiment table4 --out results > results/table4.log 2>&1
$experiment table5 --out results > results/table5.log 2>&1
$experiment ablation_preferred --jobs 3000 --sets 5 --out results > results/ablation_preferred.log 2>&1
$experiment ablation_threshold --jobs 3000 --sets 5 --trace CTC --trace KTH --out results > results/ablation_threshold.log 2>&1
$experiment ablation_step --jobs 3000 --sets 5 --trace CTC --trace SDSC --out results > results/ablation_step.log 2>&1
$experiment ablation_queue_vs_planning --jobs 3000 --sets 5 --trace CTC --trace SDSC --out results > results/ablation_queue_vs_planning.log 2>&1
$experiment ablation_reservations --jobs 3000 --sets 5 --out results > results/ablation_reservations.log 2>&1
$experiment ablation_faults --jobs 3000 --sets 5 --crash-prob 0.05 --out results > results/ablation_faults.log 2>&1
echo ALL_EXPERIMENTS_DONE
