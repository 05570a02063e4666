#!/usr/bin/env bash
# Two sets of runs of the same code must agree within the benchmark's
# own bounds: builds, runs every workload twice with one seed and once
# with another, and fails unless
#   - the same-seed runs print bit-identical simulated metrics,
#   - every end-to-end metric of both later runs is within its bound of
#     the first, and no operation failed.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/elbench"
mkdir -p out

"$bin" run --workload all --seed 1 --out out/selfcheck.a.json | tee out/selfcheck.a.txt
"$bin" run --workload all --seed 1 --out out/selfcheck.b.json | tee out/selfcheck.b.txt
"$bin" run --workload all --seed 2 --out out/selfcheck.c.json | tee out/selfcheck.c.txt

simulated='^[a-z_]+ (sim_cycles|sim_cpi_geomean|startup_cycles) '
diff <(grep -E "$simulated" out/selfcheck.a.txt) <(grep -E "$simulated" out/selfcheck.b.txt)
echo "selfcheck: simulated metrics identical across the same-seed runs"

"$bin" compare out/selfcheck.a.json out/selfcheck.b.json
"$bin" compare out/selfcheck.a.json out/selfcheck.c.json
echo "selfcheck: ok"
