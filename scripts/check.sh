#!/usr/bin/env bash
# Repo verification: tier-1 build + tests, a -Werror configuration, a
# ThreadSanitizer build/run of the concurrent QueryService tests, an
# ASan+UBSan build/run of the fault-injection and service suites, a
# tracing smoke run of the CLI whose output is validated by the in-tree
# JSON parser (via the trace_smoke binary's file-validation mode), a
# byte-identity check of --trace across host threads and subplan caching, an
# EXPLAIN ANALYZE vs --metrics-json consistency diff (every query under
# each GPL-family mode, plus the fusion checks under --mode=fused, and
# under --shards=2 / --device=amd,nvidia the sharded report's exchange
# bytes against the charged ones), an
# --explain-analyze flag check (unsharded kbe/ocelot exit 2), a
# serve-mode telemetry smoke (JSONL snapshots + Prometheus textfile
# validated by scripts/validate_prom.py), a sharded serve smoke (--shards
# and a mixed --device list both shard the service), a metrics-overhead
# wall-clock gate (scripts/bench_diff.py, 3% + 50 ms slack), and the
# host-scaling / shard-scaling / shared-work / fault / fusion-ablation
# bench gates.
#
# Usage: scripts/check.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

echo "=== tier-1: configure + build + ctest ==="
cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j "$(nproc)"
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

echo
echo "=== strict: -Wall -Wextra -Werror configuration ==="
# -Wno-maybe-uninitialized: GCC 12 false positive on std::variant (as used by
# Result<T>) at -O2; see GCC PR 80635.
cmake -B "$BUILD-werror" -S . \
  -DCMAKE_CXX_FLAGS="-Wall -Wextra -Werror -Wno-maybe-uninitialized"
cmake --build "$BUILD-werror" -j "$(nproc)"

echo
echo "=== tsan: concurrency tests under ThreadSanitizer ==="
# The concurrent binaries only (the rest of the suite is single-threaded and
# already covered above): the QueryService worker pool, the work-stealing
# ThreadPool/ParallelFor, the shared TuningCache, the morsel-parallel
# engine paths at host_threads > 1, the sharded service (workers sharing
# one ShardedDatabase and per-device calibration map), the
# MetricsRegistry (service workers updating shared counters/histograms
# while a sampler thread collects snapshots), and the shared-work layer
# (SubplanCache acquire/publish/attach and its page budget, the bounded
# TuningCache, and the service-wide subplan cache under concurrent workers),
# copy-on-write column buffers (threads copying and reading one shared
# column while each mutates its own copy), dbgen (pool tasks writing
# disjoint row ranges of shared column buffers), and the row-batch layer
# (morsel-parallel gathers through sources shared across batches).
cmake -B "$BUILD-tsan" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -O1 -g" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "$BUILD-tsan" -j "$(nproc)" \
  --target service_test --target thread_pool_test --target host_parallel_test \
  --target fault_test --target shard_test --target obs_test \
  --target fused_engine_test --target pool_test --target subplan_cache_test \
  --target storage_test --target tpch_test --target late_materialization_test
ctest --test-dir "$BUILD-tsan" --output-on-failure \
  -R "QueryService|ThreadPool|TuningCache|HostParallel|ServiceChaos|ShardedService|MetricsRegistry|FusedBitIdentity|PagePool|SubplanCache|ColumnCow|Dbgen|LateMaterialization"

echo
echo "=== asan+ubsan: fault-injection and service suites ==="
# Fault paths unwind executions mid-flight (partial work, retry loops,
# degradation re-runs); ASan+UBSan guards those error paths against leaks,
# use-after-free and UB that the happy path never exercises. The pool
# suite covers the subplan cache's page budget, eviction and rejection
# paths. The storage suite covers copy-on-write buffer sharing and
# detaching. The expression,
# hash-table, primitives and partitioned-join suites cover the typed
# raw-pointer loops over column buffers and ProbeBatch's prefetch addresses.
# The core and engine suites cover GplExecutor's per-segment steps, which
# hand the subplan-cache compute ticket and the hash-state snapshot between
# functions. The tpch suite covers dbgen's raw writes at precomputed offsets.
# The late-materialization suite covers row batches: composed positions and
# gathers through them, where an out-of-range position would read past a
# buffer. The morsel suite covers ProbeAll's writes at prefix offsets. The
# simulator and trace suites cover RunPipeline's per-kernel and per-CU
# arrays, indexed by kernel, CU and tile.
cmake -B "$BUILD-asan" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -O1 -g" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build "$BUILD-asan" -j "$(nproc)" \
  --target fault_test --target service_test --target sim_channel_test \
  --target fusion_test --target pool_test --target subplan_cache_test \
  --target storage_test \
  --target expr_test --target expr_fuzz_test --target hash_table_test \
  --target primitives_test --target partitioned_join_test \
  --target core_test --target engine_test --target tpch_test \
  --target late_materialization_test \
  --target sim_engine_test --target sim_determinism_test --target trace_test
ctest --test-dir "$BUILD-asan" --output-on-failure \
  -R "SimEngine|PipelineStep|SimMonotonicity|Determinism|TraceCollector|Dbgen|Fault|ServiceChaos|QueryService|QueryHandle|Percentile|Channel|PlanFusion|ComposeFusedStage|PagePool|SubplanCache|Dictionary|Column|Table|Expr|Selectivity|FilterKernel|ProjectKernel|HashBuild|AggregateKernel|SortKernel|KbePrimitives|TimingDesc|PartitionedJoin|Tiling|GplFixture|PipelineTest|EngineTest|EngineComparison|EngineMetrics|ExplainAnalyze|EmptyAggregate|OcelotFlavor|OcelotHashTableCache|TunerQuality|AllModes|LateMaterialization|MorselWideTable"

echo
echo "=== trace smoke: gplcli --trace on Q5, JSON validated ==="
TRACE_OUT="$(mktemp /tmp/gpl_check_trace.XXXXXX.json)"
METRICS_OUT="$(mktemp /tmp/gpl_check_metrics.XXXXXX.json)"
trap 'rm -f "$TRACE_OUT" "$METRICS_OUT"' EXIT
"$BUILD/cli/gplcli" --query=Q5 --mode=gpl --sf=0.02 \
  --trace="$TRACE_OUT" --metrics-json="$METRICS_OUT"
"$BUILD/tests/trace_smoke" "$TRACE_OUT"
"$BUILD/tests/trace_smoke" "$METRICS_OUT"

echo
echo "=== trace determinism: --trace bytes across host threads and caching ==="
# The trace is simulated time only: how many host threads run the functional
# layer, and whether the subplan cache serves a result, must not change a
# byte of it.
TRACE_CMP_DIR="$(mktemp -d /tmp/gpl_check_trace_cmp.XXXXXX)"
trap 'rm -rf "$TRACE_OUT" "$METRICS_OUT" "$TRACE_CMP_DIR"' EXIT
for mode in gpl fused; do
  i=0
  for flag in --host-threads=1 --host-threads=4 --no-subplan-cache; do
    i=$((i + 1))
    "$BUILD/cli/gplcli" --query=all --mode="$mode" --sf=0.01 "$flag" \
      --trace="$TRACE_CMP_DIR/$mode.$i.json" > /dev/null
  done
  cmp "$TRACE_CMP_DIR/$mode.1.json" "$TRACE_CMP_DIR/$mode.2.json"
  cmp "$TRACE_CMP_DIR/$mode.1.json" "$TRACE_CMP_DIR/$mode.3.json"
  echo "trace determinism ($mode): OK"
done
rm -rf "$TRACE_CMP_DIR"

echo
echo "=== explain smoke: EXPLAIN ANALYZE actuals vs --metrics-json ==="
# One invocation per GPL-family mode emits both files from the same run over
# every query; the report's metrics object and the --metrics-json entry are
# written from the same QueryMetrics, so they must be equal key for key, and
# the per-segment actual cycles must sum to elapsed_cycles.
EXPLAIN_OUT="$(mktemp /tmp/gpl_check_explain.XXXXXX.json)"
EXPLAIN_METRICS_OUT="$(mktemp /tmp/gpl_check_explain_metrics.XXXXXX.json)"
trap 'rm -f "$TRACE_OUT" "$METRICS_OUT" "$EXPLAIN_OUT" "$EXPLAIN_METRICS_OUT"' EXIT
for mode in gpl noce fused; do
  "$BUILD/cli/gplcli" --query=all --mode="$mode" --sf=0.02 --explain-analyze \
    --explain-json="$EXPLAIN_OUT" --metrics-json="$EXPLAIN_METRICS_OUT" \
    > /dev/null
  "$BUILD/tests/trace_smoke" "$EXPLAIN_OUT"
  "$BUILD/tests/trace_smoke" "$EXPLAIN_METRICS_OUT"
  python3 - "$EXPLAIN_OUT" "$EXPLAIN_METRICS_OUT" "$mode" <<'PYEOF'
import json, sys
reports = {r["query"]: r for r in json.load(open(sys.argv[1]))}
entries = {e["query"]: e for e in json.load(open(sys.argv[2]))}
if reports.keys() != entries.keys():
    sys.exit(f"explain queries {sorted(reports)} != metrics-json queries "
             f"{sorted(entries)}")
checked = 0
for query, report in reports.items():
    entry = entries[query]
    if report["metrics"] != entry:
        diff = sorted(k for k in report["metrics"].keys() | entry.keys()
                      if report["metrics"].get(k) != entry.get(k))
        sys.exit(f"{query}: explain metrics != metrics-json on {diff}")
    checked += len(entry)
    seg_sum = sum(s["actual_cycles"] for s in report["segments"])
    total = entry["elapsed_cycles"]
    # %.9g serialization rounds each segment independently.
    if abs(seg_sum - total) > 1e-6 * max(total, 1.0):
        sys.exit(f"{query}: segment cycles {seg_sum} != total {total}")
print(f"explain smoke ({sys.argv[3]}): OK ({len(reports)} queries, "
      f"{checked} keys match)")
PYEOF
done

echo
echo "=== fused explain smoke: EXPLAIN ANALYZE under --mode=fused ==="
# The fused engine's report must stay consistent with --metrics-json from the
# same run, name each segment's engine, show fusion firing on Q5 (a segment
# with engine fused or fused-pipelined), and keep the per-segment fusion
# counters summing to the run totals.
FUSED_EXPLAIN_OUT="$(mktemp /tmp/gpl_check_fused_explain.XXXXXX.json)"
FUSED_METRICS_OUT="$(mktemp /tmp/gpl_check_fused_metrics.XXXXXX.json)"
trap 'rm -f "$TRACE_OUT" "$METRICS_OUT" "$EXPLAIN_OUT" "$EXPLAIN_METRICS_OUT" "$FUSED_EXPLAIN_OUT" "$FUSED_METRICS_OUT"' EXIT
"$BUILD/cli/gplcli" --query=Q5 --mode=fused --sf=0.02 --explain-analyze \
  --explain-json="$FUSED_EXPLAIN_OUT" --metrics-json="$FUSED_METRICS_OUT" \
  > /dev/null
"$BUILD/tests/trace_smoke" "$FUSED_EXPLAIN_OUT"
python3 - "$FUSED_EXPLAIN_OUT" "$FUSED_METRICS_OUT" <<'PYEOF'
import json, sys
reports = {r["query"]: r for r in json.load(open(sys.argv[1]))}
entries = {e["query"]: e for e in json.load(open(sys.argv[2]))}
if reports.keys() != entries.keys():
    sys.exit(f"explain queries {sorted(reports)} != metrics-json queries "
             f"{sorted(entries)}")
for query, report in reports.items():
    entry = entries[query]
    if report["metrics"] != entry:
        diff = sorted(k for k in report["metrics"].keys() | entry.keys()
                      if report["metrics"].get(k) != entry.get(k))
        sys.exit(f"{query}: explain metrics != metrics-json on {diff}")
    if entry["fused_segments"] < 1:
        sys.exit(f"{query}: fusion did not fire under --mode=fused")
    segments = report["segments"]
    if not {"fused", "fused-pipelined"} & {s["engine"] for s in segments}:
        sys.exit(f"{query}: no segment reports engine=fused or "
                 f"fused-pipelined")
    saved = sum(s["launches_saved"] for s in segments)
    if saved != entry["fused_launches_saved"]:
        sys.exit(f"{query}: segment launches_saved {saved} != total "
                 f"{entry['fused_launches_saved']}")
    avoided = sum(s["fused_bytes_avoided"] for s in segments)
    if avoided != entry["fused_bytes_avoided"]:
        sys.exit(f"{query}: segment fused_bytes_avoided {avoided} != total "
                 f"{entry['fused_bytes_avoided']}")
print(f"fused explain smoke: OK ({len(reports)} queries, "
      f"{entries['Q5']['fused_launches_saved']} launches saved)")
PYEOF

echo
echo "=== sharded explain smoke: EXPLAIN ANALYZE under --shards / --device ==="
# A sharded report renders the very plan that ran: its metrics object must
# equal the --metrics-json entry key for key, the relation exchanges' predicted
# bytes must sum to the broadcast bytes charged, and every query combines
# across both devices.
SHARD_EXPLAIN_DIR="$(mktemp -d /tmp/gpl_check_shard_explain.XXXXXX)"
trap 'rm -rf "$TRACE_OUT" "$METRICS_OUT" "$EXPLAIN_OUT" "$EXPLAIN_METRICS_OUT" "$FUSED_EXPLAIN_OUT" "$FUSED_METRICS_OUT" "$SHARD_EXPLAIN_DIR"' EXIT
for shape in "--shards=2 --mode=gpl" "--shards=2 --mode=kbe" \
    "--device=amd,nvidia"; do
  # shellcheck disable=SC2086  # $shape is two flags or one
  "$BUILD/cli/gplcli" --query=all --sf=0.02 $shape --explain-analyze \
    --explain-json="$SHARD_EXPLAIN_DIR/explain.json" \
    --metrics-json="$SHARD_EXPLAIN_DIR/metrics.json" > /dev/null
  python3 - "$SHARD_EXPLAIN_DIR/explain.json" \
    "$SHARD_EXPLAIN_DIR/metrics.json" "$shape" <<'PYEOF'
import json, sys
reports = {r["query"]: r for r in json.load(open(sys.argv[1]))}
entries = {e["query"]: e for e in json.load(open(sys.argv[2]))}
shape = sys.argv[3]
if reports.keys() != entries.keys():
    sys.exit(f"{shape}: explain queries {sorted(reports)} != metrics-json "
             f"queries {sorted(entries)}")
for query, report in reports.items():
    entry = entries[query]
    if report["metrics"] != entry:
        diff = sorted(k for k in report["metrics"].keys() | entry.keys()
                      if report["metrics"].get(k) != entry.get(k))
        sys.exit(f"{shape} {query}: explain metrics != metrics-json on {diff}")
    predicted = sum(x["predicted_bytes"] for x in report["exchanges"]
                    if x["kind"] != "gather")
    if predicted != entry["broadcast_bytes"]:
        sys.exit(f"{shape} {query}: predicted exchange bytes {predicted} != "
                 f"broadcast_bytes {entry['broadcast_bytes']}")
    if entry["exchange_bytes"] != entry["broadcast_bytes"] + entry["shuffle_bytes"]:
        sys.exit(f"{shape} {query}: exchange_bytes != broadcast + shuffle")
    if len(entry["device_elapsed_ms"]) != 2 or not entry["partial_combine"]:
        sys.exit(f"{shape} {query}: want 2 device times and a combine, got "
                 f"{entry['device_elapsed_ms']}, "
                 f"partial_combine={entry['partial_combine']}")
print(f"sharded explain smoke ({shape}): OK ({len(reports)} queries)")
PYEOF
done
rm -rf "$SHARD_EXPLAIN_DIR"

echo
echo "=== explain flag smoke: --explain-analyze rejects unsharded kbe/ocelot ==="
# Unsharded kbe and ocelot plans have no segments to annotate: the CLI must
# exit 2 at flag validation and write neither output file.
for mode in kbe ocelot; do
  REJECT_DIR="$(mktemp -d /tmp/gpl_check_explain_reject.XXXXXX)"
  rc=0
  "$BUILD/cli/gplcli" --query=all --mode="$mode" --sf=0.02 --explain-analyze \
    --explain-json="$REJECT_DIR/explain.json" \
    --metrics-json="$REJECT_DIR/metrics.json" > /dev/null 2>&1 || rc=$?
  written="$(ls -A "$REJECT_DIR")"
  rm -rf "$REJECT_DIR"
  if [ "$rc" -ne 2 ] || [ -n "$written" ]; then
    echo "--explain-analyze --mode=$mode: exit $rc (want 2), wrote:" \
      "${written:-nothing}" >&2
    exit 1
  fi
done
echo "explain flag smoke: OK (kbe and ocelot exit 2, no files written)"

echo
echo "=== serve telemetry smoke: periodic snapshots + Prometheus export ==="
# A short serve run with the sampler enabled must produce >= 2 JSONL
# snapshots (each line valid JSON per the in-tree parser) and a textfile
# that passes the Prometheus 0.0.4 validator with the core service and
# simulator families present.
STATS_OUT="$(mktemp /tmp/gpl_check_stats.XXXXXX.jsonl)"
PROM_OUT="$(mktemp /tmp/gpl_check_prom.XXXXXX.prom)"
trap 'rm -f "$TRACE_OUT" "$METRICS_OUT" "$EXPLAIN_OUT" "$EXPLAIN_METRICS_OUT" "$FUSED_EXPLAIN_OUT" "$FUSED_METRICS_OUT" "$STATS_OUT" "$PROM_OUT"' EXIT
# The closed-loop client keeps at most --serve-queue queries in flight, so
# with a queue of 2 every one of the 24 submissions is admitted and none is
# rejected.
"$BUILD/cli/gplcli" --query=all --mode=gpl --sf=0.02 \
  --serve-workers=2 --serve-queries=24 --serve-queue=2 --stats-interval-ms=50 \
  --stats-jsonl="$STATS_OUT" --prom-textfile="$PROM_OUT" > /dev/null
"$BUILD/tests/trace_smoke" --jsonl "$STATS_OUT" 2
python3 scripts/validate_prom.py "$PROM_OUT" \
  --require-metric gpl_service_latency_ms \
  --require-metric gpl_service_queries_total \
  --require-metric gpl_sim_kernel_launches_total
python3 - "$PROM_OUT" 24 <<'PYEOF'
import re, sys
text = open(sys.argv[1]).read()
def admission(result):
    m = re.search(r'^gpl_service_admission_total\{result="%s"\} (\S+)$' % result,
                  text, re.M)
    return float(m.group(1)) if m else 0.0
admitted, rejected = admission("admitted"), admission("rejected")
if rejected != 0 or admitted != int(sys.argv[2]):
    sys.exit(f"serve admission: admitted={admitted:g} rejected={rejected:g}, "
             f"want admitted={sys.argv[2]} rejected=0")
print(f"serve admission: OK ({admitted:g} admitted, 0 rejected)")
PYEOF

echo
echo "=== sharded serve smoke: the service shards exactly as its engine options ==="
# --shards and a mixed --device list reach the service only through its
# engine options; its own stats must then count the exchange traffic and
# the busy time of both device slots.
for shape in --shards=2 --device=amd,nvidia; do
  stats="$("$BUILD/cli/gplcli" --query=all --sf=0.01 --serve-workers=2 \
    --serve-queries=22 "$shape" | grep '^submitted=')"
  python3 - "$shape" "$stats" <<'PYEOF'
import re, sys
shape, line = sys.argv[1], sys.argv[2]
fields = dict(re.findall(r"(\w+)=(\[[^]]*\]|\S+)", line))
busy = [float(x) for x in fields.get("device_busy_ms", "[]").strip("[]").split(",") if x]
exchange = int(fields.get("exchange_bytes", "0"))
if (fields.get("completed") != "22" or fields.get("failed") != "0"
        or exchange <= 0 or len(busy) != 2 or min(busy) <= 0):
    sys.exit(f"sharded serve {shape}: bad stats line: {line}")
print(f"sharded serve {shape}: OK (exchange_bytes={exchange}, "
      f"device_busy_ms={busy})")
PYEOF
done

echo
echo "=== metrics overhead: serve wall-clock, sampler + exposition on vs. off ==="
# The service counts into its own registry in both runs, so this bounds what
# --serve-metrics and --stats-interval-ms add on top: the sampler thread and
# the exposition. The sampled run may not exceed the plain one by more than
# 3% AND 50 ms (the absolute slack absorbs scheduler noise on short CI runs).
OVERHEAD_OFF="$(mktemp /tmp/gpl_check_overhead_off.XXXXXX.json)"
OVERHEAD_ON="$(mktemp /tmp/gpl_check_overhead_on.XXXXXX.json)"
trap 'rm -f "$TRACE_OUT" "$METRICS_OUT" "$EXPLAIN_OUT" "$EXPLAIN_METRICS_OUT" "$FUSED_EXPLAIN_OUT" "$FUSED_METRICS_OUT" "$STATS_OUT" "$PROM_OUT" "$OVERHEAD_OFF" "$OVERHEAD_ON"' EXIT
serve_wall() {
  "$BUILD/cli/gplcli" --query=all --mode=gpl --sf=0.02 \
    --serve-workers=2 --serve-queries=48 "$@" \
    | sed -n 's/^host wall time \([0-9.]*\) s.*/\1/p'
}
printf '{"query":"serve","wall_s":%s}\n' "$(serve_wall)" > "$OVERHEAD_OFF"
printf '{"query":"serve","wall_s":%s}\n' \
  "$(serve_wall --serve-metrics --stats-interval-ms=100)" > "$OVERHEAD_ON"
python3 scripts/bench_diff.py "$OVERHEAD_OFF" "$OVERHEAD_ON" \
  --field wall_s --threshold-pct 3 --abs-slack 0.05

echo
echo "=== perf smoke: host-scaling bench, bit-identity + cache gates ==="
# The main tree builds RelWithDebInfo (-O2), so this is a release-grade run.
# --quick exits non-zero if parallel results are not bit-identical to
# serial, if the warm 8-thread batch exceeds 1.3x the serial warm batch
# (tolerance for single-core runners), or if the warm tuning-cache hit rate
# drops below 90%. The warm reps alternate serial and 8-thread batches, so a
# phase of CPU steal on a shared host does not land on one side only.
HOST_SCALING_OUT="$(mktemp /tmp/gpl_check_host_scaling.XXXXXX.jsonl)"
trap 'rm -f "$TRACE_OUT" "$METRICS_OUT" "$EXPLAIN_OUT" "$EXPLAIN_METRICS_OUT" "$FUSED_EXPLAIN_OUT" "$FUSED_METRICS_OUT" "$STATS_OUT" "$PROM_OUT" "$OVERHEAD_OFF" "$OVERHEAD_ON" "$HOST_SCALING_OUT"' EXIT
"$BUILD/bench/bench_host_scaling" --quick --out="$HOST_SCALING_OUT"

echo
echo "=== shard smoke: shard-scaling bench, bit-identity + speedup gates ==="
# --quick exits non-zero if any sharded result differs by a single bit from
# the single-device run, if a query's speedup degrades going 1 -> 2 -> 4
# shards, if no query reaches 1.5x at 4 shards, if Q9 fails to beat the
# single device at 4 shards, if any query at any sharded point runs on one
# device instead of combining partial aggregates (a fallback means the
# classifier lost a partitioning proof, e.g. Q5's compound key), if Q9 at 4
# shards fails to undercut the all-broadcast exchange baseline, or if the
# 1-shard point deviates from the unsharded engine. The JSONL is then
# diffed per (query, shard count) against the committed baseline: simulated
# elapsed, 1/speedup, and relation-exchange bytes may not regress (all
# higher-is-worse; simulated time is deterministic, so the 5% default
# threshold only absorbs serialization rounding).
SHARD_SCALING_OUT="$(mktemp /tmp/gpl_check_shard_scaling.XXXXXX.jsonl)"
trap 'rm -f "$TRACE_OUT" "$METRICS_OUT" "$EXPLAIN_OUT" "$EXPLAIN_METRICS_OUT" "$FUSED_EXPLAIN_OUT" "$FUSED_METRICS_OUT" "$STATS_OUT" "$PROM_OUT" "$OVERHEAD_OFF" "$OVERHEAD_ON" "$HOST_SCALING_OUT" "$SHARD_SCALING_OUT"' EXIT
"$BUILD/bench/bench_shard_scaling" --quick --out="$SHARD_SCALING_OUT"
python3 scripts/bench_diff.py bench/baselines/shard_scaling_quick.jsonl \
  "$SHARD_SCALING_OUT" --key case \
  --field elapsed_ms --field inv_speedup --field broadcast_bytes

echo
echo "=== shared-work smoke: subplan-cache bench, hit-rate + identity gates ==="
# --quick exits non-zero if the warm subplan hit rate drops below 80%, if the
# best cache-on p95 speedup over cache-off falls below 1.3x, or if any cached
# result deviates by a single bit from an isolated cache-less engine. The
# deterministic workers=1 rows are then diffed against the committed
# baseline: subplan misses may not regress (higher-is-worse and
# machine-independent).
SHARED_WORK_OUT="$(mktemp /tmp/gpl_check_shared_work.XXXXXX.jsonl)"
trap 'rm -f "$TRACE_OUT" "$METRICS_OUT" "$EXPLAIN_OUT" "$EXPLAIN_METRICS_OUT" "$FUSED_EXPLAIN_OUT" "$FUSED_METRICS_OUT" "$STATS_OUT" "$PROM_OUT" "$OVERHEAD_OFF" "$OVERHEAD_ON" "$HOST_SCALING_OUT" "$SHARD_SCALING_OUT" "$SHARED_WORK_OUT"' EXIT
"$BUILD/bench/bench_shared_work" --quick --out="$SHARED_WORK_OUT"
python3 scripts/bench_diff.py bench/baselines/shared_work_quick.jsonl \
  "$SHARED_WORK_OUT" --key key \
  --field subplan_misses

echo
echo "=== fault smoke: availability bench, completion-rate gates ==="
# --quick exits non-zero if the fault-free run completes < 100% or if the
# retry policy fails to push completion above 90% at fault rate 0.01.
FAULT_OUT="$(mktemp /tmp/gpl_check_fault.XXXXXX.jsonl)"
trap 'rm -f "$TRACE_OUT" "$METRICS_OUT" "$EXPLAIN_OUT" "$EXPLAIN_METRICS_OUT" "$FUSED_EXPLAIN_OUT" "$FUSED_METRICS_OUT" "$STATS_OUT" "$PROM_OUT" "$OVERHEAD_OFF" "$OVERHEAD_ON" "$HOST_SCALING_OUT" "$SHARD_SCALING_OUT" "$SHARED_WORK_OUT" "$FAULT_OUT"' EXIT
"$BUILD/bench/bench_fault_availability" --quick --out="$FAULT_OUT"

echo
echo "=== fusion smoke: kbe/gpl/fused ablation bench, win-rate + identity gates ==="
# --quick exits non-zero if any fused result deviates from the KBE oracle by
# a single bit, if the fused mode fails to beat the pure GPL pipeline on any
# of the 5 queries (with fusion firing on each), or if no kernel launches
# were saved anywhere. The JSONL is then diffed per query
# against the committed baseline: fused elapsed and the fused/gpl ratio may
# not regress (both higher-is-worse; simulated time is deterministic).
FUSION_OUT="$(mktemp /tmp/gpl_check_fusion.XXXXXX.jsonl)"
trap 'rm -f "$TRACE_OUT" "$METRICS_OUT" "$EXPLAIN_OUT" "$EXPLAIN_METRICS_OUT" "$FUSED_EXPLAIN_OUT" "$FUSED_METRICS_OUT" "$STATS_OUT" "$PROM_OUT" "$OVERHEAD_OFF" "$OVERHEAD_ON" "$HOST_SCALING_OUT" "$SHARD_SCALING_OUT" "$SHARED_WORK_OUT" "$FAULT_OUT" "$FUSION_OUT"' EXIT
"$BUILD/bench/bench_fusion_ablation" --quick --out="$FUSION_OUT"
python3 scripts/bench_diff.py bench/baselines/fusion_ablation_quick.jsonl \
  "$FUSION_OUT" --key case \
  --field fused_ms --field fused_over_gpl

echo
echo "check.sh: all checks passed"
