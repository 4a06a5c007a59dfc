/// gplcli: command-line driver for the GPL reproduction.
///
///   gplcli --query=Q14 --mode=gpl --sf=0.1
///   gplcli --query=all --mode=kbe --device=nvidia
///   gplcli --query=Q8 --explain
///   gplcli --dump-tbl=/tmp/tpch --sf=0.01
///   gplcli --query=Q5 --tbl-dir=/tmp/tpch
///   gplcli --query=all --serve-workers=4 --serve-queries=64
///
/// Flags:
///   --query=<Q1|Q3|Q5|Q6|Q7|Q8|Q9|Q10|Q12|Q14|Q19|all|extended|example>
///   --mode=<gpl|kbe|noce|ocelot|fused> execution strategy (default gpl);
///                                     "fused" adds kernel fusion on top of
///                                     GPL with per-segment engine selection
///   --engine=<...>                    alias for --mode
///   --device=<amd|nvidia|list>        simulated device (default amd); a
///                                     comma-separated list ("amd,amd,nvidia")
///                                     defines a multi-device group for
///                                     sharded execution
///   --sf=<float>                      TPC-H scale factor (default 0.05)
///   --seed=<int>                      dbgen seed
///   --tile=<KB>                       pin the tile size (disables tuning)
///   --wg=<int>                        pin wg_Ki (disables tuning)
///   --partitioned                     enable radix-partitioned hash joins
///   --explain                         print the physical plan and exit
///   --explain-analyze                 execute the query and print the plan
///                                     annotated with actual rows, simulated
///                                     cycles, prediction error, host wall
///                                     time, channel bytes, cache/degradation
///                                     flags per segment (gpl, noce, fused;
///                                     kbe and ocelot need --shards);
///                                     with --shards, prints the distributed
///                                     plan with Exchange operators inline and
///                                     predicted vs actual exchanged bytes
///   --explain-json=<file>             with --explain-analyze, also write the
///                                     report(s) as a JSON array
///   --rows=<int>                      result rows to print (default 10)
///   --verify                          check results against the CPU reference
///   --dump-tbl=<dir>                  write the generated data as .tbl files
///   --tbl-dir=<dir>                   load the database from .tbl files
///   --trace=<file>                    write a Chrome trace-event JSON of the
///                                     run (open in Perfetto / chrome://tracing)
///   --metrics-json=<file>             write QueryMetrics/HwCounters as JSON
///   --breakdown                       print the per-kernel phase breakdown
///                                     (compute/mem/DC/delay, Figures 20/29)
///   --host-threads=<N>                host threads for the functional kernel
///                                     bodies and tuner search (0 = hardware
///                                     concurrency, 1 = serial); results and
///                                     simulated timing are identical at any N
///   --no-tuning-cache                 disable TuneSegment memoization (the
///                                     grid search reruns for every segment)
///   --subplan-cache-mb=<N>            capacity of the shared-work subplan
///                                     cache in MiB (default 64; 0 keeps
///                                     in-flight attach but retains nothing)
///   --no-subplan-cache                disable subplan-result caching and
///                                     in-flight attach entirely
///
/// Sharded execution (routed through Engine::Execute via ExecOptions):
///   --shards=<N>                      hash-partition lineitem and orders N
///                                     ways by orderkey and run each shard on
///                                     its own simulated device; results stay
///                                     bit-identical to N=1. A query whose
///                                     per-shard partial aggregates cannot be
///                                     proven to combine exactly runs on
///                                     device 0 instead. With a multi-device
///                                     --device list, N must match the list
///                                     length (or be omitted)
///   --link-gbps=<G>                   inter-device link bandwidth override in
///                                     GB/s (default 16, PCIe 3.0-class)
///   With --explain, sharded runs print the per-shard plan with Exchange
///   operators inline (broadcast vs repartition vs co-partitioned per table,
///   modeled bytes and link time) and the merge: "combine", or
///   "single-device (<reason>)" when the query runs on device 0.
///
/// Serve mode (concurrent multi-query execution via service::QueryService):
///   --serve-workers=<N>               run N worker engines concurrently; the
///                                     selected --query (or suite) becomes the
///                                     workload mix
///   --serve-queries=<M>               total queries to push through the
///                                     service, closed-loop (default 32)
///   --serve-queue=<C>                 admission-queue capacity (default 8);
///                                     the driver retries rejected submissions
///                                     after draining one in-flight query
///   --timeout-ms=<T>                  per-query deadline, host wall-clock
///                                     (default off)
///   --fault-rate=<p>                  inject faults: each kernel launch
///                                     aborts with probability p and each
///                                     channel reservation fails with
///                                     probability p (degrading that segment
///                                     to kernel-at-a-time)
///   --fault-seed=<int>                fault-injection seed (default fixed);
///                                     the same seed reproduces the same
///                                     per-query fault outcomes
///   --max-retries=<R>                 retry transient device errors up to R
///                                     times (R+1 attempts total) with
///                                     exponential backoff (default 0)
///   With --trace, serve mode writes the service timeline of the newest
///   16384 records (per-worker queue/exec spans, retry attempts, concurrency
///   counter, rejection instants) instead of the simulator timeline.
///
/// Live telemetry (serve mode, obs::MetricsRegistry):
///   --serve-metrics                   print the final Prometheus exposition
///                                     of the service's registry (service,
///                                     engine and simulator metrics)
///   --stats-interval-ms=<T>           sample the registry every T ms while
///                                     serving (implies --serve-metrics); one
///                                     snapshot is always taken at start and
///                                     one after shutdown, so every run emits
///                                     at least two
///   --stats-jsonl=<file>              append each snapshot as one JSON line
///                                     {"seq", "elapsed_ms", "snapshot"}
///   --prom-textfile=<file>            rewrite a Prometheus textfile
///                                     (write-to-temp + rename) per snapshot
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "engine/engine.h"
#include "engine/explain_analyze.h"
#include "engine/metrics_json.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "pool/subplan_cache.h"
#include "trace/json.h"
#include "queries/tpch_queries.h"
#include "ref/reference_executor.h"
#include "service/query_service.h"
#include "shard/sharded_executor.h"
#include "tpch/tbl_io.h"
#include "trace/trace.h"

namespace {

using namespace gpl;

struct CliOptions {
  std::string query = "Q14";
  std::string mode = "gpl";
  std::string device = "amd";
  double sf = 0.05;
  uint64_t seed = 20160626;
  int64_t tile_kb = 0;
  int wg = 0;
  bool partitioned = false;
  bool explain = false;
  bool explain_analyze = false;
  std::string explain_json_path;
  bool verify = false;
  bool breakdown = false;
  int host_threads = 0;          ///< 0 = hardware concurrency
  bool no_tuning_cache = false;  ///< re-run the grid search every segment
  bool no_subplan_cache = false; ///< disable subplan caching + attach
  int64_t subplan_cache_mb = 64; ///< subplan-cache capacity (MiB)
  int64_t rows = 10;
  std::string dump_tbl;
  std::string tbl_dir;
  std::string trace_path;
  std::string metrics_json_path;

  // Sharded execution.
  int shards = 1;                 ///< 1 = single-device mode
  double link_gbps = 0.0;         ///< 0 = LinkSpec default

  // Serve mode.
  int serve_workers = 0;  ///< 0 = single-query mode
  int serve_queries = 32;
  int serve_queue = 8;
  double timeout_ms = 0.0;

  // Fault injection / retry (serve mode).
  double fault_rate = 0.0;
  uint64_t fault_seed = 0x9e3779b97f4a7c15ULL;
  int max_retries = 0;

  // Live telemetry (serve mode).
  bool serve_metrics = false;
  double stats_interval_ms = 0.0;
  std::string stats_jsonl_path;
  std::string prom_textfile_path;
};

/// Per-run accumulators shared across queries (one timeline, one report).
struct RunState {
  trace::TraceCollector* trace = nullptr;
  std::vector<MetricsJsonEntry> metrics;
  std::vector<std::string> explain_jsons;
  double total_elapsed_ms = 0.0;
};

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--query=Q14|all|extended|example] [--mode=gpl|kbe|"
               "noce|ocelot|fused]\n"
               "          [--device=amd|nvidia] [--sf=0.05] [--seed=N] "
               "[--tile=KB] [--wg=N]\n"
               "          [--partitioned] [--explain] [--explain-analyze "
               "[--explain-json=FILE]]\n"
               "          [--verify] [--rows=N]\n"
               "          [--dump-tbl=DIR] [--tbl-dir=DIR]\n"
               "          [--trace=FILE.json] [--metrics-json=FILE.json] "
               "[--breakdown]\n"
               "          [--host-threads=N] [--no-tuning-cache]\n"
               "          [--subplan-cache-mb=N] [--no-subplan-cache]\n"
               "          [--shards=N] [--link-gbps=G]\n"
               "          [--serve-workers=N [--serve-queries=M] "
               "[--serve-queue=C] [--timeout-ms=T]\n"
               "           [--fault-rate=P] [--fault-seed=N] "
               "[--max-retries=R]\n"
               "           [--serve-metrics] [--stats-interval-ms=T "
               "[--stats-jsonl=FILE] [--prom-textfile=FILE]]]\n",
               argv0);
  return 2;
}

Result<LogicalQuery> FindQuery(const std::string& name) {
  for (auto& [n, q] : queries::EvaluationSuite()) {
    if (n == name) return q;
  }
  for (auto& [n, q] : queries::ExtendedSuite()) {
    if (n == name) return q;
  }
  if (name == "example") return queries::ExampleQuery();
  return Status::NotFound("unknown query: " + name);
}

/// The workload selected by --query: a single query or a whole suite.
Result<std::vector<std::pair<std::string, LogicalQuery>>> SelectWorkload(
    const std::string& name) {
  if (name == "all") return queries::EvaluationSuite();
  if (name == "extended") return queries::ExtendedSuite();
  GPL_ASSIGN_OR_RETURN(LogicalQuery q, FindQuery(name));
  std::vector<std::pair<std::string, LogicalQuery>> workload;
  workload.emplace_back(name, std::move(q));
  return workload;
}

/// Why a sharded run of `query` fell back to one device. QueryMetrics only
/// carries the partial_combine flag, so the reason is re-derived by planning.
std::string FallbackReason(Engine& engine, const LogicalQuery& query) {
  Result<shard::ShardedExecutor*> sharded =
      engine.ShardedFor(engine.options().exec);
  if (!sharded.ok()) return sharded.status().ToString();
  Result<shard::DistributedExplain> dist = (*sharded)->Explain(query);
  return dist.ok() ? dist->fallback_reason : dist.status().ToString();
}

int RunQuery(Engine& engine, const tpch::Database& db, const CliOptions& cli,
             const std::string& device_label, const std::string& name,
             const LogicalQuery& query, RunState* state) {
  if (cli.explain_analyze) {
    Result<ExplainAnalyzeReport> report = ExplainAnalyze(engine, query);
    if (!report.ok()) {
      std::fprintf(stderr, "EXPLAIN ANALYZE %s failed: %s\n", name.c_str(),
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("=== %s ===\n%s\n", name.c_str(), report->ToString().c_str());
    // The report's metrics ARE the QueryMetrics of this execution, so the
    // same invocation can emit a consistent --metrics-json for it.
    state->total_elapsed_ms += report->metrics.elapsed_ms;
    MetricsJsonEntry entry;
    entry.query = name;
    entry.mode = EngineModeName(engine.options().mode);
    entry.device = report->device;
    entry.metrics = report->metrics;
    state->metrics.push_back(std::move(entry));
    state->explain_jsons.push_back(report->ToJson());
    return 0;
  }

  if (cli.explain) {
    if (cli.shards > 1) {
      // Sharded EXPLAIN: the per-shard plan with Exchange operators inline,
      // plus the cost model's per-exchange predictions.
      Result<shard::ShardedExecutor*> sharded =
          engine.ShardedFor(engine.options().exec);
      Result<shard::DistributedExplain> dist =
          sharded.ok() ? (*sharded)->Explain(query)
                       : Result<shard::DistributedExplain>(sharded.status());
      if (!dist.ok()) {
        std::fprintf(stderr, "planning %s failed: %s\n", name.c_str(),
                     dist.status().ToString().c_str());
        return 1;
      }
      std::printf("=== %s (%d shards, merge=%s) ===\n%s", name.c_str(),
                  dist->num_shards,
                  shard::MergeLabel(dist->fallback_reason).c_str(),
                  dist->plan_text.c_str());
      std::printf("exchanges over %s:\n",
                  (*sharded)->group().link.name.c_str());
      for (const shard::ExchangeOpReport& ex : dist->exchanges) {
        std::printf("  %-12s %-14s %10lld bytes  %.4f ms\n", ex.table.c_str(),
                    std::string(ExchangeKindName(ex.kind)).c_str(),
                    static_cast<long long>(ex.predicted_bytes),
                    ex.predicted_ms);
      }
      std::printf("\n");
      return 0;
    }
    Result<PhysicalOpPtr> plan = engine.Plan(query);
    if (!plan.ok()) {
      std::fprintf(stderr, "planning %s failed: %s\n", name.c_str(),
                   plan.status().ToString().c_str());
      return 1;
    }
    std::printf("=== %s ===\n%s\n", name.c_str(), PlanToString(**plan).c_str());
    return 0;
  }

  Result<QueryResult> result = engine.Execute(query);
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                 result.status().ToString().c_str());
    return 1;
  }
  const QueryMetrics& m = result->metrics;
  state->total_elapsed_ms += m.elapsed_ms;
  MetricsJsonEntry entry;
  entry.query = name;
  entry.mode = EngineModeName(engine.options().mode);
  entry.device = device_label;
  entry.metrics = m;
  state->metrics.push_back(std::move(entry));
  std::printf("=== %s (%s, %s) ===\n", name.c_str(),
              EngineModeName(engine.options().mode), device_label.c_str());
  std::printf("%s", result->table.ToString(cli.rows).c_str());
  std::string predicted;
  if (m.predicted_ms > 0) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), " [model predicted %.3f ms]",
                  m.predicted_ms);
    predicted = buf;
  }
  std::printf(
      "elapsed %.3f ms (simulated)%s, optimize %.2f ms (host), VALU %.1f%%, "
      "MemUnit %.1f%%, cache-hit %.1f%%\n",
      m.elapsed_ms, predicted.c_str(), m.OptimizeWallMs(), 100.0 * m.valu_busy,
      100.0 * m.mem_unit_busy, 100.0 * m.cache_hit_ratio);
  if (m.num_shards > 0) {
    std::printf("sharded x%lld: exchange %.4f ms (%lld bytes), merge %.4f ms "
                "(%s), device utilization [",
                static_cast<long long>(m.num_shards), m.exchange_ms,
                static_cast<long long>(m.exchange_bytes), m.merge_ms,
                shard::MergeLabel(
                    m.partial_combine ? "" : FallbackReason(engine, query))
                    .c_str());
    for (size_t i = 0; i < m.device_utilization.size(); ++i) {
      std::printf("%s%.0f%%", i > 0 ? " " : "",
                  100.0 * m.device_utilization[i]);
    }
    std::printf("]\n");
  }

  if (cli.verify) {
    Result<PhysicalOpPtr> plan = engine.Plan(query);
    Result<Table> expected = ref::ExecutePlan(db, *plan);
    if (!expected.ok()) {
      std::fprintf(stderr, "reference failed: %s\n",
                   expected.status().ToString().c_str());
      return 1;
    }
    std::string diff;
    if (!ref::TablesEqual(result->table, *expected, &diff)) {
      std::fprintf(stderr, "VERIFICATION FAILED: %s\n", diff.c_str());
      return 1;
    }
    std::printf("verified against the CPU reference executor\n");
  }
  std::printf("\n");
  return 0;
}

/// Writes one telemetry snapshot: a JSONL line to `jsonl` (when open) and an
/// atomic rewrite of the Prometheus textfile at `prom_path` (when set). The
/// registry is collected once and both outputs render the same snapshot.
bool EmitSnapshot(const obs::MetricsRegistry& registry, int seq,
                  double elapsed_ms, std::ofstream* jsonl,
                  const std::string& prom_path) {
  const std::vector<obs::FamilySnapshot> families = registry.Collect();
  if (jsonl != nullptr && jsonl->is_open()) {
    *jsonl << "{\"seq\":" << seq
           << ",\"elapsed_ms\":" << trace::JsonNumber(elapsed_ms)
           << ",\"snapshot\":" << obs::JsonSnapshot(families) << "}\n";
    jsonl->flush();
  }
  if (!prom_path.empty()) {
    const std::string tmp = prom_path + ".tmp";
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) return false;
    out << obs::PrometheusText(families);
    out.close();
    if (std::rename(tmp.c_str(), prom_path.c_str()) != 0) return false;
  }
  return true;
}

/// Closed-loop serve driver: pushes --serve-queries queries (round-robin over
/// the workload) through a QueryService. When the admission queue rejects a
/// submission, the driver drains the oldest in-flight query and retries —
/// the closed loop keeps the service saturated without overrunning it.
int RunServe(const tpch::Database& db, const CliOptions& cli,
             const EngineOptions& engine_options) {
  Result<std::vector<std::pair<std::string, LogicalQuery>>> workload_or =
      SelectWorkload(cli.query);
  if (!workload_or.ok()) {
    std::fprintf(stderr, "%s\n", workload_or.status().ToString().c_str());
    return 2;
  }
  const std::vector<std::pair<std::string, LogicalQuery>>& workload =
      *workload_or;

  service::ServiceOptions sopts;
  sopts.num_workers = cli.serve_workers;
  sopts.queue_capacity = static_cast<size_t>(cli.serve_queue);
  sopts.default_timeout_ms = cli.timeout_ms;
  sopts.engine = engine_options;
  sopts.subplan_cache = !cli.no_subplan_cache;
  sopts.subplan_cache_mb = cli.subplan_cache_mb;
  if (cli.fault_rate > 0.0) {
    sopts.fault.seed = cli.fault_seed;
    sopts.fault.kernel_abort_rate = cli.fault_rate;
    sopts.fault.channel_alloc_fail_rate = cli.fault_rate;
  }
  sopts.retry.max_attempts = cli.max_retries + 1;

  std::printf("serving %d queries (%s mix) on %d workers, queue capacity %d"
              "%s%s...\n",
              cli.serve_queries, cli.query.c_str(), sopts.num_workers,
              cli.serve_queue,
              cli.timeout_ms > 0 ? ", per-query deadline" : "",
              cli.shards > 1 ? (", " + std::to_string(cli.shards) +
                                "-way sharded").c_str()
                             : "");
  if (cli.fault_rate > 0.0) {
    std::printf("fault injection: rate %.4f, seed %llu, max retries %d\n",
                cli.fault_rate,
                static_cast<unsigned long long>(cli.fault_seed),
                cli.max_retries);
  }

  service::QueryService svc(&db, sopts);
  const auto wall_start = std::chrono::steady_clock::now();

  // Periodic telemetry sampler. One snapshot is taken up front and one after
  // shutdown, so every sampled run produces at least two even if the
  // workload drains faster than the interval.
  std::ofstream stats_jsonl;
  if (!cli.stats_jsonl_path.empty()) {
    stats_jsonl.open(cli.stats_jsonl_path, std::ios::trunc);
    if (!stats_jsonl.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", cli.stats_jsonl_path.c_str());
      return 1;
    }
  }
  int snapshot_seq = 0;
  std::mutex sampler_mu;
  std::condition_variable sampler_cv;
  bool sampler_stop = false;
  std::thread sampler;
  const auto elapsed_ms = [&wall_start] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - wall_start)
        .count();
  };
  if (cli.stats_interval_ms > 0) {
    EmitSnapshot(svc.metrics(), snapshot_seq++, elapsed_ms(), &stats_jsonl,
                 cli.prom_textfile_path);
    sampler = std::thread([&] {
      const auto interval =
          std::chrono::duration<double, std::milli>(cli.stats_interval_ms);
      std::unique_lock<std::mutex> lock(sampler_mu);
      while (!sampler_cv.wait_for(lock, interval,
                                  [&] { return sampler_stop; })) {
        // snapshot_seq is only touched here until the thread is joined.
        EmitSnapshot(svc.metrics(), snapshot_seq++, elapsed_ms(), &stats_jsonl,
                     cli.prom_textfile_path);
      }
    });
  }

  // Closed loop: at most --serve-queue queries in flight, so the client
  // never fills the admission queue and every submission is admitted. Each
  // awaited result, whether awaited to make room or at the end, goes through
  // one classifier.
  std::deque<service::QueryHandle> inflight;
  int failures = 0;
  const auto await_oldest = [&] {
    const Result<QueryResult>& result = inflight.front().Await();
    // Deadline misses are an expected outcome under load, not a failure;
    // under fault injection so are transient errors that exhausted their
    // retries (reported in the stats as gave_up).
    if (!result.ok() &&
        result.status().code() != StatusCode::kDeadlineExceeded &&
        result.status().code() != StatusCode::kCancelled &&
        !(cli.fault_rate > 0.0 &&
          result.status().code() == StatusCode::kTransientDeviceError)) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      failures++;
    }
    inflight.pop_front();
  };
  for (int i = 0; i < cli.serve_queries; ++i) {
    const auto& [name, query] =
        workload[static_cast<size_t>(i) % workload.size()];
    if (inflight.size() >= static_cast<size_t>(cli.serve_queue)) {
      await_oldest();
    }
    Result<service::QueryHandle> submitted =
        svc.Submit(name + "#" + std::to_string(i), query);
    if (!submitted.ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   submitted.status().ToString().c_str());
      return 1;
    }
    inflight.push_back(submitted.take());
  }
  while (!inflight.empty()) await_oldest();
  // Final snapshot and exposition before Shutdown(): every in-flight query
  // has been awaited above, so the numbers are final.
  if (cli.stats_interval_ms > 0) {
    {
      std::lock_guard<std::mutex> lock(sampler_mu);
      sampler_stop = true;
    }
    sampler_cv.notify_all();
    sampler.join();
    if (!EmitSnapshot(svc.metrics(), snapshot_seq++, elapsed_ms(), &stats_jsonl,
                      cli.prom_textfile_path)) {
      std::fprintf(stderr, "writing %s failed\n",
                   cli.prom_textfile_path.c_str());
      return 1;
    }
  }
  std::string final_exposition;
  if (cli.serve_metrics) final_exposition = obs::PrometheusText(svc.metrics());
  svc.Shutdown();

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  service::ServiceStats stats = svc.Stats();
  std::printf("--- service stats ---\n%s\n", stats.ToString().c_str());
  std::printf("host wall time %.3f s, %.1f queries/s (completed)\n", wall_s,
              wall_s > 0 ? static_cast<double>(stats.completed) / wall_s : 0.0);
  if (cli.stats_interval_ms > 0) {
    std::printf("wrote %d metric snapshots%s%s%s%s\n", snapshot_seq,
                cli.stats_jsonl_path.empty() ? "" : " to ",
                cli.stats_jsonl_path.c_str(),
                cli.prom_textfile_path.empty() ? "" : ", prom textfile ",
                cli.prom_textfile_path.c_str());
  }
  if (cli.serve_metrics) {
    std::printf("--- metrics (prometheus exposition) ---\n%s",
                final_exposition.c_str());
  }

  if (!cli.trace_path.empty()) {
    trace::TraceCollector collector;
    svc.ExportTrace(&collector);
    Status status = collector.WriteChromeJson(cli.trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "writing trace failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("wrote service timeline (%zu spans) to %s\n",
                collector.spans().size(), cli.trace_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "query", &value)) {
      cli.query = value;
    } else if (ParseFlag(argv[i], "mode", &value) ||
               ParseFlag(argv[i], "engine", &value)) {
      cli.mode = value;
    } else if (ParseFlag(argv[i], "device", &value)) {
      cli.device = value;
    } else if (ParseFlag(argv[i], "sf", &value)) {
      cli.sf = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "seed", &value)) {
      cli.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "tile", &value)) {
      cli.tile_kb = std::atoll(value.c_str());
    } else if (ParseFlag(argv[i], "wg", &value)) {
      cli.wg = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "rows", &value)) {
      cli.rows = std::atoll(value.c_str());
    } else if (ParseFlag(argv[i], "dump-tbl", &value)) {
      cli.dump_tbl = value;
    } else if (ParseFlag(argv[i], "tbl-dir", &value)) {
      cli.tbl_dir = value;
    } else if (ParseFlag(argv[i], "trace", &value)) {
      cli.trace_path = value;
    } else if (ParseFlag(argv[i], "metrics-json", &value)) {
      cli.metrics_json_path = value;
    } else if (ParseFlag(argv[i], "shards", &value)) {
      cli.shards = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "link-gbps", &value)) {
      cli.link_gbps = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "serve-workers", &value)) {
      cli.serve_workers = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "serve-queries", &value)) {
      cli.serve_queries = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "serve-queue", &value)) {
      cli.serve_queue = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "timeout-ms", &value)) {
      cli.timeout_ms = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "fault-rate", &value)) {
      cli.fault_rate = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "fault-seed", &value)) {
      cli.fault_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "max-retries", &value)) {
      cli.max_retries = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "explain-json", &value)) {
      cli.explain_json_path = value;
    } else if (ParseFlag(argv[i], "stats-interval-ms", &value)) {
      cli.stats_interval_ms = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "stats-jsonl", &value)) {
      cli.stats_jsonl_path = value;
    } else if (ParseFlag(argv[i], "prom-textfile", &value)) {
      cli.prom_textfile_path = value;
    } else if (ParseFlag(argv[i], "host-threads", &value)) {
      cli.host_threads = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "subplan-cache-mb", &value)) {
      cli.subplan_cache_mb = std::atoll(value.c_str());
    } else if (std::strcmp(argv[i], "--no-subplan-cache") == 0) {
      cli.no_subplan_cache = true;
    } else if (std::strcmp(argv[i], "--no-tuning-cache") == 0) {
      cli.no_tuning_cache = true;
    } else if (std::strcmp(argv[i], "--breakdown") == 0) {
      cli.breakdown = true;
    } else if (std::strcmp(argv[i], "--partitioned") == 0) {
      cli.partitioned = true;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      cli.explain = true;
    } else if (std::strcmp(argv[i], "--explain-analyze") == 0) {
      cli.explain_analyze = true;
    } else if (std::strcmp(argv[i], "--serve-metrics") == 0) {
      cli.serve_metrics = true;
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      cli.verify = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      return Usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return Usage(argv[0]);
    }
  }

  if (cli.sf <= 0.0) {
    std::fprintf(stderr, "--sf must be positive\n");
    return 2;
  }
  if (cli.serve_workers > 0 && (cli.serve_queries < 1 || cli.serve_queue < 1)) {
    std::fprintf(stderr, "--serve-queries and --serve-queue must be >= 1\n");
    return 2;
  }
  if (cli.fault_rate < 0.0 || cli.fault_rate > 1.0 || cli.max_retries < 0) {
    std::fprintf(stderr,
                 "--fault-rate must be in [0, 1] and --max-retries >= 0\n");
    return 2;
  }
  if (cli.fault_rate > 0.0 && cli.serve_workers <= 0) {
    std::fprintf(stderr, "--fault-rate requires serve mode "
                         "(--serve-workers=N)\n");
    return 2;
  }
  if (cli.explain && cli.explain_analyze) {
    std::fprintf(stderr, "--explain and --explain-analyze are exclusive\n");
    return 2;
  }
  if (!cli.explain_json_path.empty() && !cli.explain_analyze) {
    std::fprintf(stderr, "--explain-json requires --explain-analyze\n");
    return 2;
  }
  if (cli.explain_analyze && cli.serve_workers > 0) {
    std::fprintf(stderr, "--explain-analyze is a single-query mode\n");
    return 2;
  }
  if (cli.subplan_cache_mb < 0) {
    std::fprintf(stderr, "--subplan-cache-mb must be >= 0\n");
    return 2;
  }
  if (cli.stats_interval_ms < 0.0) {
    std::fprintf(stderr, "--stats-interval-ms must be positive\n");
    return 2;
  }
  if ((cli.serve_metrics || cli.stats_interval_ms > 0) &&
      cli.serve_workers <= 0) {
    std::fprintf(stderr, "--serve-metrics/--stats-interval-ms require serve "
                         "mode (--serve-workers=N)\n");
    return 2;
  }
  if ((!cli.stats_jsonl_path.empty() || !cli.prom_textfile_path.empty()) &&
      cli.stats_interval_ms <= 0) {
    std::fprintf(stderr,
                 "--stats-jsonl/--prom-textfile require --stats-interval-ms\n");
    return 2;
  }

  // ---- Engine ----
  EngineOptions options;
  std::vector<sim::DeviceSpec> devices;
  {
    Result<EngineMode> mode = ParseEngineMode(cli.mode);
    if (!mode.ok()) {
      std::fprintf(stderr, "%s\n", mode.status().ToString().c_str());
      return Usage(argv[0]);
    }
    options.mode = *mode;
    Result<std::vector<sim::DeviceSpec>> parsed = ParseDeviceList(cli.device);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return Usage(argv[0]);
    }
    devices = parsed.take();
    options.device = devices.front();
  }
  // A multi-device --device list defines the shard group; an explicit
  // --shards must agree with it, and with a single device it sizes a
  // homogeneous group.
  if (cli.shards < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 2;
  }
  if (devices.size() > 1) {
    if (cli.shards != 1 && cli.shards != static_cast<int>(devices.size())) {
      std::fprintf(stderr,
                   "--shards=%d conflicts with a %zu-device --device list\n",
                   cli.shards, devices.size());
      return 2;
    }
    cli.shards = static_cast<int>(devices.size());
  }
  if (cli.link_gbps < 0.0) {
    std::fprintf(stderr, "--link-gbps must be positive\n");
    return 2;
  }
  if (cli.tile_kb > 0) {
    options.exec.use_cost_model = false;
    options.exec.overrides.tile_bytes = cli.tile_kb * 1024;
  }
  if (cli.wg > 0) {
    options.exec.use_cost_model = false;
    options.exec.overrides.workgroups_per_kernel = cli.wg;
  }
  options.partitioned_joins = cli.partitioned;
  options.exec.host_threads = cli.host_threads;
  options.exec.use_tuning_cache = !cli.no_tuning_cache;
  // Sharded execution is routed through Engine::Execute: ExecOptions carries
  // the shard count, device group and link bandwidth.
  options.exec.shards = cli.shards;
  if (devices.size() > 1) options.exec.device_list = devices;
  options.exec.link_gbps = cli.link_gbps;

  // Without --shards, EXPLAIN ANALYZE annotates the segments of a GPL-family
  // plan; kbe and ocelot have none.
  if (cli.explain_analyze && cli.shards == 1 &&
      (options.mode == EngineMode::kKbe ||
       options.mode == EngineMode::kOcelot)) {
    std::fprintf(stderr,
                 "--explain-analyze needs a GPL-family mode (gpl, noce, "
                 "fused) or --shards\n");
    return 2;
  }

  // ---- Data ----
  tpch::DbgenConfig config;
  config.scale_factor = cli.sf;
  config.seed = cli.seed;
  tpch::Database db = tpch::Generate(config);
  if (!cli.tbl_dir.empty()) {
    Result<tpch::Database> loaded = tpch::LoadTbl(cli.tbl_dir, db);
    if (!loaded.ok()) {
      std::fprintf(stderr, "loading %s failed: %s\n", cli.tbl_dir.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    db = loaded.take();
    std::printf("loaded database from %s (%lld lineitem rows)\n",
                cli.tbl_dir.c_str(),
                static_cast<long long>(db.lineitem.num_rows()));
  }
  if (!cli.dump_tbl.empty()) {
    Status status = tpch::WriteTbl(db, cli.dump_tbl);
    if (!status.ok()) {
      std::fprintf(stderr, "dump failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote .tbl files to %s\n", cli.dump_tbl.c_str());
    if (cli.query.empty()) return 0;
  }

  // ---- Serve mode ----
  if (cli.serve_workers > 0) {
    return RunServe(db, cli, options);
  }

  // ---- Tracing / profiling ----
  trace::TraceCollector collector;
  RunState state;
  const bool tracing =
      !cli.trace_path.empty() || cli.breakdown;
  if (tracing) {
    state.trace = &collector;
    options.exec.trace = &collector;
  }
  // Single-query subplan cache: lets repeated queries in a suite run (or the
  // build sides repeated across queries) share work, mirroring the
  // service-owned cache in serve mode. Declared before the engine so it
  // outlives every executor that touches it.
  pool::SubplanCacheOptions pool_options;
  pool_options.capacity_bytes =
      std::max<int64_t>(0, cli.subplan_cache_mb) * 1024 * 1024;
  pool::SubplanCache subplan_cache(pool_options);
  if (!cli.no_subplan_cache) options.subplan_cache = &subplan_cache;
  Engine engine(&db, options);

  // ---- Sharded execution ----
  // The engine routes sharded ExecOptions itself; partition eagerly here so
  // the banner (and any partitioning error) lands before the first query.
  std::string device_label = options.device.name;
  if (cli.shards > 1) {
    Result<shard::ShardedExecutor*> sharded = engine.ShardedFor(options.exec);
    if (!sharded.ok()) {
      std::fprintf(stderr, "partitioning failed: %s\n",
                   sharded.status().ToString().c_str());
      return 1;
    }
    device_label = (*sharded)->group().ToString();
    std::printf("sharded execution: %d shards on %s\n", cli.shards,
                device_label.c_str());
  }

  // ---- Queries ----
  Result<std::vector<std::pair<std::string, LogicalQuery>>> workload =
      SelectWorkload(cli.query);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  int failures = 0;
  for (const auto& [name, q] : *workload) {
    failures += RunQuery(engine, db, cli, device_label, name, q, &state);
  }

  // ---- Reports ----
  if (cli.breakdown && !cli.explain) {
    std::printf("--- per-kernel phase breakdown (ms, scaled to elapsed; "
                "Figures 20/29) ---\n%s\n",
                collector.BreakdownReport(state.total_elapsed_ms).c_str());
  }
  if (!cli.trace_path.empty()) {
    Status status = collector.WriteChromeJson(cli.trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "writing trace failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("wrote Chrome trace (%zu spans, %zu counter samples, %zu "
                "instants) to %s — load it in Perfetto or chrome://tracing\n",
                collector.spans().size(), collector.counters().size(),
                collector.instants().size(), cli.trace_path.c_str());
  }
  if (!cli.explain_json_path.empty()) {
    std::ofstream file(cli.explain_json_path);
    if (!file.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", cli.explain_json_path.c_str());
      return 1;
    }
    file << "[";
    for (size_t i = 0; i < state.explain_jsons.size(); ++i) {
      if (i > 0) file << ",";
      file << state.explain_jsons[i];
    }
    file << "]\n";
    std::printf("wrote EXPLAIN ANALYZE report(s) for %zu run(s) to %s\n",
                state.explain_jsons.size(), cli.explain_json_path.c_str());
  }
  if (!cli.metrics_json_path.empty()) {
    std::ofstream file(cli.metrics_json_path);
    if (!file.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", cli.metrics_json_path.c_str());
      return 1;
    }
    file << MetricsReportToJson(state.metrics) << "\n";
    std::printf("wrote metrics for %zu run(s) to %s\n", state.metrics.size(),
                cli.metrics_json_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}
