#!/bin/bash
cd "$(dirname "$0")/.." || exit 1
R=results
mkdir -p $R/json
# One persistent evaluation cache shared by every binary: later runs
# warm-start from layer mappings the earlier ones already computed (see
# the `edse_core::diskcache` module docs). Delete the directory, or pass
# --no-disk-cache, for fully cold runs.
CACHE=$R/cache
mkdir -p $CACHE
# Every run also writes its machine-readable report (bench::report schema
# edse-bench-report/v1) to results/json/<name>.json, plus a Prometheus
# text-format metrics snapshot (counters + stage-timing quantiles) next
# to it for dashboard scraping.
run() { name=$1; shift; echo "### $name : $(date)" ; timeout 5400 ./target/release/$name "$@" --cache-dir $CACHE --json $R/json/$name.json --metrics-out $R/json/$name.prom ; echo; }
{
run fig08_bottleneck_graph                                   > $R/fig08.txt 2>&1
run fig04_toy_trace --iters 25                               > $R/fig04.txt 2>&1
run tab07_mapspace --trials 5000                             > $R/tab07.txt 2>&1
run fig15_mappers --trials 1000                              > $R/fig15.txt 2>&1
run fig03_effectiveness --iters 400                          > $R/fig03.txt 2>&1
run fig12_feasibility --iters 400                            > $R/fig12.txt 2>&1
run tab03_objective_reduction --iters 400                    > $R/tab03.txt 2>&1
run fig11_convergence --iters 400                            > $R/fig11.txt 2>&1
run fig10_search_time --iters 400 --trials 200               > $R/fig10.txt 2>&1
run ablation_dse --iters 300                                 > $R/ablation.txt 2>&1
run fig14_casestudy --iters 300 --trials 150                 > $R/fig14.txt 2>&1
run tab02_dynamic_dse --iters 100 --trials 150               > $R/tab02.txt 2>&1
run fig09_static_dse --iters 400 --trials 150                > $R/fig09.txt 2>&1
echo ALL_DONE
} > $R/progress.log 2>&1
