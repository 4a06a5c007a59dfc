/// Host-parallelism scaling: wall-clock of the morsel-driven functional
/// executor and the memoized tuner as ExecOptions::host_threads grows. Not a
/// paper figure — the paper's engine is simulated, so *simulated* time is
/// host-thread invariant by construction — this bench demonstrates exactly
/// that invariance (bit-identical tables, counters and simulated cycles at
/// every thread count) while the *host* wall time scales.
///
/// Per (threads, query): cold wall (first run, tuner grid search), warm wall
/// (best of 3, tuning cache hot), speedup vs the serial warm wall, and the
/// query's warm tuning-cache hit rate. Every thread count runs its cold pass
/// first; then the warm reps alternate between thread counts, one batch of
/// all queries at a time. JSONL rows go to --out (default
/// BENCH_host_scaling.json).
///
/// --quick runs {1, 8} threads only and turns the bench into a smoke gate
/// for scripts/check.sh: exit 1 if any thread count is not bit-identical to
/// serial, if the warm 8-thread batch is >1.3x slower than the serial warm
/// batch (tolerance because CI runners may expose a single core, where extra
/// threads can only add overhead), or if the warm-pass cache hit rate is
/// below 90%.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace {

using namespace gpl;

double HitRate(int64_t hits, int64_t misses) {
  return hits + misses > 0
             ? static_cast<double>(hits) / static_cast<double>(hits + misses)
             : 0.0;
}

struct TimedRun {
  QueryResult result;
  double wall_ms = 0.0;
};

TimedRun TimedExecute(Engine& engine, const std::string& name,
                      const LogicalQuery& query) {
  const auto start = std::chrono::steady_clock::now();
  Result<QueryResult> result = engine.Execute(query);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  GPL_CHECK(result.ok()) << name << ": " << result.status().ToString();
  return {result.take(), wall_ms};
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_host_scaling.json";
  bool quick = false;
  sim::DeviceSpec device = sim::DeviceSpec::AmdA10();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out = arg + 6;
    } else if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(arg, "--device=", 9) == 0) {
      Result<sim::DeviceSpec> parsed = ParseDeviceSpec(arg + 9);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return 2;
      }
      device = parsed.take();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out=results.jsonl] [--device=amd|nvidia] "
                   "[--quick]\n",
                   argv[0]);
      return 2;
    }
  }

  const double sf = benchutil::ScaleFactor(quick ? 0.02 : 0.05);
  const tpch::Database& db = benchutil::Db(sf);
  benchutil::Banner(
      "Host scaling",
      ("host wall ms vs --host-threads, bit-identical results (" +
       device.name + ")")
          .c_str(),
      sf);

  // One calibration for every engine below: the table is device-dependent
  // and immutable, so recalibrating per thread count would only add noise.
  const sim::Simulator calibration_sim(device);
  const model::CalibrationTable calibration =
      model::CalibrationTable::Run(calibration_sim);

  std::vector<std::pair<std::string, LogicalQuery>> workload;
  for (auto& [name, query] : queries::EvaluationSuite()) {
    if (name == "Q5" || name == "Q7" || name == "Q8" || name == "Q9" ||
        name == "Q14") {
      workload.emplace_back(name, query);
    }
  }
  GPL_CHECK(workload.size() == 5);

  const std::vector<int> thread_counts =
      quick ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8};
  constexpr int kWarmReps = 3;

  benchutil::JsonlWriter jsonl(out);
  std::printf("%8s %6s %14s %14s %10s %10s %8s\n", "threads", "query",
              "cold (ms)", "warm best (ms)", "speedup", "hit rate",
              "bit-id");

  // One engine per thread count. The engine-owned tuning cache persists
  // across Execute calls, so each engine's cold pass populates it and the
  // warm passes measure hits.
  std::vector<std::unique_ptr<Engine>> engines;
  for (int threads : thread_counts) {
    EngineOptions options;
    options.mode = EngineMode::kGpl;
    options.device = device;
    options.calibration = &calibration;
    options.exec.host_threads = threads;
    engines.push_back(std::make_unique<Engine>(&db, options));
  }

  struct QueryRuns {
    double cold_ms = 0.0;
    double warm_best_ms = 0.0;
    int64_t warm_hits = 0;
    int64_t warm_misses = 0;
    QueryResult warm_result;
  };
  std::vector<std::vector<QueryRuns>> runs(
      thread_counts.size(), std::vector<QueryRuns>(workload.size()));
  for (size_t t = 0; t < thread_counts.size(); ++t) {
    for (size_t q = 0; q < workload.size(); ++q) {
      runs[t][q].cold_ms =
          TimedExecute(*engines[t], workload[q].first, workload[q].second)
              .wall_ms;
    }
  }
  // Warm reps alternate between the thread counts batch by batch, so a phase
  // of CPU steal on a shared host lands on every side, not on one.
  for (int rep = 0; rep < kWarmReps; ++rep) {
    for (size_t t = 0; t < thread_counts.size(); ++t) {
      for (size_t q = 0; q < workload.size(); ++q) {
        QueryRuns& r = runs[t][q];
        TimedRun warm =
            TimedExecute(*engines[t], workload[q].first, workload[q].second);
        if (rep == 0 || warm.wall_ms < r.warm_best_ms) {
          r.warm_best_ms = warm.wall_ms;
        }
        r.warm_hits += warm.result.metrics.tuning_cache_hits;
        r.warm_misses += warm.result.metrics.tuning_cache_misses;
        r.warm_result = std::move(warm.result);
      }
    }
  }

  // thread_counts always starts at 1: runs[0] is the serial baseline.
  double serial_batch_warm_ms = 0.0;
  double eight_batch_warm_ms = -1.0;
  double eight_hit_rate = -1.0;
  bool all_bit_identical = true;
  for (size_t t = 0; t < thread_counts.size(); ++t) {
    const int threads = thread_counts[t];
    double batch_warm_ms = 0.0;
    int64_t batch_hits = 0;
    int64_t batch_misses = 0;
    for (size_t q = 0; q < workload.size(); ++q) {
      const std::string& name = workload[q].first;
      const QueryRuns& r = runs[t][q];
      const QueryRuns& serial = runs[0][q];
      batch_warm_ms += r.warm_best_ms;
      batch_hits += r.warm_hits;
      batch_misses += r.warm_misses;

      const bool bit_identical =
          benchutil::TablesBitIdentical(serial.warm_result.table,
                                        r.warm_result.table) &&
          serial.warm_result.metrics.counters ==
              r.warm_result.metrics.counters &&
          serial.warm_result.metrics.elapsed_ms ==
              r.warm_result.metrics.elapsed_ms;
      all_bit_identical = all_bit_identical && bit_identical;
      const double speedup =
          r.warm_best_ms > 0.0 ? serial.warm_best_ms / r.warm_best_ms : 0.0;
      const double hit_rate = HitRate(r.warm_hits, r.warm_misses);
      std::printf("%8d %6s %14.3f %14.3f %9.2fx %9.1f%% %8s\n", threads,
                  name.c_str(), r.cold_ms, r.warm_best_ms, speedup,
                  hit_rate * 100.0, bit_identical ? "yes" : "NO");

      std::ostringstream row;
      row.precision(6);
      row << "{\"bench\":\"host_scaling\",\"device\":\"" << device.name
          << "\",\"query\":\"" << name << "\",\"host_threads\":" << threads
          << ",\"cold_wall_ms\":" << r.cold_ms
          << ",\"warm_wall_ms\":" << r.warm_best_ms
          << ",\"speedup_vs_serial\":" << speedup
          << ",\"tuning_cache_hits\":" << r.warm_hits
          << ",\"tuning_cache_misses\":" << r.warm_misses
          << ",\"hit_rate\":" << hit_rate
          << ",\"bit_identical\":" << (bit_identical ? "true" : "false")
          << ",\"simulated_ms\":" << r.warm_result.metrics.elapsed_ms << "}";
      jsonl.Line(row.str());
    }

    const double batch_hit_rate = HitRate(batch_hits, batch_misses);
    if (threads == 1) serial_batch_warm_ms = batch_warm_ms;
    if (threads == 8) {
      eight_batch_warm_ms = batch_warm_ms;
      eight_hit_rate = batch_hit_rate;
    }
    std::printf("%8d %6s %14s %14.3f %9.2fx %9.1f%%\n\n", threads, "batch",
                "", batch_warm_ms,
                batch_warm_ms > 0.0 ? serial_batch_warm_ms / batch_warm_ms
                                    : 0.0,
                batch_hit_rate * 100.0);
  }

  if (jsonl.enabled()) std::printf("results written to %s\n", out.c_str());
  std::printf("(simulated time is host-thread invariant; wall-clock speedup "
              "depends on available cores)\n");

  if (quick) {
    int failures = 0;
    if (!all_bit_identical) {
      std::fprintf(stderr,
                   "FAIL: parallel results are not bit-identical to serial\n");
      failures++;
    }
    if (eight_batch_warm_ms > 1.3 * serial_batch_warm_ms) {
      std::fprintf(stderr,
                   "FAIL: 8-thread warm batch %.3f ms vs serial %.3f ms "
                   "(> 1.3x tolerance)\n",
                   eight_batch_warm_ms, serial_batch_warm_ms);
      failures++;
    }
    if (eight_hit_rate < 0.9) {
      std::fprintf(stderr, "FAIL: warm tuning-cache hit rate %.1f%% < 90%%\n",
                   eight_hit_rate * 100.0);
      failures++;
    }
    return failures == 0 ? 0 : 1;
  }
  return 0;
}
