/// Shared-work execution: latency and hit rate of the service-wide subplan
/// cache under a Zipf-skewed multi-query mix. Not a paper figure — the
/// shared-work layer extends the paper's single-query engine — but the same
/// methodology: fixed workload, sweep knobs (worker count, working-set size,
/// cache on/off), report JSONL.
///
/// Per row: client-observed p50/p95 latency (submit -> completion, host
/// wall), subplan hit rate and the p95 speedup
/// of cache-on over cache-off at the same worker count. Every completed
/// result is checked bit-identical to an isolated cache-less engine — the
/// cache is a latency optimization, never an answer change.
///
/// --quick gates (scripts/check.sh): warm hit rate >= 0.8, best p95 speedup
/// >= 1.3x.
/// Deterministic rows (workers=1) are committed as
/// bench/baselines/shared_work_quick.jsonl and diffed by bench_diff.py.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "service/query_service.h"

namespace {

using namespace gpl;

/// Percentile of an unsorted sample, interpolating linearly between the two
/// order statistics bracketing p/100 * (n-1); 0 for an empty sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Deterministic 64-bit LCG — the bench must replay the same Zipf sequence
/// on every run and machine.
uint64_t NextRand(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state >> 33;
}

/// Zipf(1.0) draw over `n` ranks: weight of rank k is 1/k.
int ZipfDraw(uint64_t* state, int n) {
  double total = 0.0;
  for (int k = 1; k <= n; ++k) total += 1.0 / k;
  double u = static_cast<double>(NextRand(state) % 1000000) / 1e6 * total;
  for (int k = 1; k <= n; ++k) {
    u -= 1.0 / k;
    if (u <= 0.0) return k - 1;
  }
  return n - 1;
}

struct MixResult {
  double wall_s = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  service::ServiceStats stats;
};

/// Pushes `num_queries` Zipf-drawn queries from `mix` through a QueryService,
/// measuring client-observed latency, and bit-checks every result against
/// `truth`. The draw sequence depends only on the seed, so cache-on and
/// cache-off rows execute the identical workload.
MixResult RunMix(const tpch::Database& db,
                 const std::vector<std::pair<std::string, LogicalQuery>>& mix,
                 const std::vector<Table>& truth, int workers, int num_queries,
                 bool cache_on, const sim::DeviceSpec& device) {
  service::ServiceOptions sopts;
  sopts.num_workers = workers;
  sopts.queue_capacity = static_cast<size_t>(2 * workers + 2);
  sopts.engine.device = device;
  sopts.subplan_cache = cache_on;
  service::QueryService svc(&db, sopts);

  struct Pending {
    service::QueryHandle handle;
    std::chrono::steady_clock::time_point start;
    int cls = 0;
  };
  std::deque<Pending> inflight;
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(num_queries));
  const auto drain_front = [&] {
    Pending pending = std::move(inflight.front());
    inflight.pop_front();
    const Result<QueryResult>& result = pending.handle.Await();
    GPL_CHECK(result.ok()) << result.status().ToString();
    latencies.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - pending.start)
                            .count());
    GPL_CHECK(benchutil::TablesBitIdentical(
        truth[static_cast<size_t>(pending.cls)], result->table))
        << mix[static_cast<size_t>(pending.cls)].first
        << " diverged from the isolated cache-less truth";
  };

  uint64_t rng = 0x5eed5eed5eedULL;
  const auto wall_start = std::chrono::steady_clock::now();
  for (int i = 0; i < num_queries; ++i) {
    const int cls = ZipfDraw(&rng, static_cast<int>(mix.size()));
    for (;;) {
      Pending pending;
      pending.start = std::chrono::steady_clock::now();
      pending.cls = cls;
      Result<service::QueryHandle> submitted = svc.Submit(
          mix[static_cast<size_t>(cls)].first + "#" + std::to_string(i),
          mix[static_cast<size_t>(cls)].second);
      if (submitted.ok()) {
        pending.handle = submitted.take();
        inflight.push_back(std::move(pending));
        break;
      }
      GPL_CHECK(submitted.status().code() == StatusCode::kResourceExhausted)
          << submitted.status().ToString();
      GPL_CHECK(!inflight.empty());
      drain_front();
    }
  }
  while (!inflight.empty()) drain_front();
  svc.Shutdown();

  MixResult out;
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             wall_start)
                   .count();
  out.p50_ms = Percentile(latencies, 50.0);
  out.p95_ms = Percentile(latencies, 95.0);
  out.stats = svc.Stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::BenchArgs args =
      benchutil::ParseBenchArgs(argc, argv, sim::DeviceSpec::AmdA10());
  const double sf = benchutil::ScaleFactor(0.02);
  const tpch::Database& db = benchutil::Db(sf);
  benchutil::Banner(
      "Shared-work execution",
      ("Subplan-cache hit rate and p50/p95 latency under a Zipf mix (" +
       args.device.name + ")")
          .c_str(),
      sf);

  // The mix, Zipf-ranked: join-heavy queries first so the hot classes carry
  // reusable build sides and scans.
  std::vector<std::pair<std::string, LogicalQuery>> full_mix;
  for (const char* name : {"Q5", "Q14", "Q8", "Q7", "Q9"}) {
    for (auto& [n, query] : queries::EvaluationSuite()) {
      if (n == name) full_mix.emplace_back(n, query);
    }
  }
  GPL_CHECK(full_mix.size() == 5u);

  const int num_queries = args.quick ? 32 : 96;
  const std::vector<int> working_sets =
      args.quick ? std::vector<int>{5} : std::vector<int>{2, 5};

  benchutil::JsonlWriter jsonl(args.out);
  std::printf("%4s %8s %6s %10s %10s %10s %12s\n", "ws", "workers",
              "cache", "hit rate", "p50 (ms)", "p95 (ms)", "wall (s)");

  bool gates_ok = true;
  double best_p95_speedup = 0.0;
  for (int ws : working_sets) {
    std::vector<std::pair<std::string, LogicalQuery>> mix(
        full_mix.begin(), full_mix.begin() + ws);
    // Isolated cache-less truth, one engine per class.
    std::vector<Table> truth;
    truth.reserve(mix.size());
    for (auto& [name, query] : mix) {
      EngineOptions options;
      options.device = args.device;
      Engine engine(&db, options);
      Result<QueryResult> result = engine.Execute(query);
      GPL_CHECK(result.ok()) << name << ": " << result.status().ToString();
      truth.push_back(result.take().table);
    }

    for (int workers : {1, 4, 8}) {
      MixResult off = RunMix(db, mix, truth, workers, num_queries,
                             /*cache_on=*/false, args.device);
      MixResult on = RunMix(db, mix, truth, workers, num_queries,
                            /*cache_on=*/true, args.device);
      const double hit_rate = on.stats.SubplanHitRate();
      const double p95_speedup =
          on.p95_ms > 0.0 ? off.p95_ms / on.p95_ms : 0.0;
      if (p95_speedup > best_p95_speedup) best_p95_speedup = p95_speedup;

      for (const bool cache_on : {false, true}) {
        const MixResult& r = cache_on ? on : off;
        std::printf("%4d %8d %6s %9.1f%% %10.3f %10.3f %12.3f\n", ws,
                    workers, cache_on ? "on" : "off",
                    100.0 * (cache_on ? hit_rate : 0.0), r.p50_ms, r.p95_ms,
                    r.wall_s);
        std::ostringstream row;
        row.precision(6);
        row << "{\"key\":\"ws" << ws << "_w" << workers << "_"
            << (cache_on ? "on" : "off") << "\",\"bench\":\"shared_work\""
            << ",\"working_set\":" << ws << ",\"workers\":" << workers
            << ",\"cache\":\"" << (cache_on ? "on" : "off")
            << "\",\"queries\":" << num_queries
            << ",\"hit_rate\":" << (cache_on ? hit_rate : 0.0)
            << ",\"p50_latency_ms\":" << r.p50_ms
            << ",\"p95_latency_ms\":" << r.p95_ms
            << ",\"wall_s\":" << r.wall_s
            << ",\"subplan_hits\":" << r.stats.subplan_cache_hits
            << ",\"subplan_misses\":" << r.stats.subplan_cache_misses
            << ",\"subplan_attaches\":" << r.stats.subplan_attaches
            << ",\"p95_speedup\":" << (cache_on ? p95_speedup : 1.0) << "}";
        jsonl.Line(row.str());
      }

      if (args.quick) {
        if (hit_rate < 0.8) {
          std::fprintf(stderr,
                       "GATE FAILED: ws=%d workers=%d warm hit rate %.3f "
                       "< 0.8\n",
                       ws, workers, hit_rate);
          gates_ok = false;
        }
      }
    }
  }

  if (args.quick && best_p95_speedup < 1.3) {
    std::fprintf(stderr,
                 "GATE FAILED: best cache-on p95 speedup %.2fx < 1.3x\n",
                 best_p95_speedup);
    gates_ok = false;
  }

  if (jsonl.enabled())
    std::printf("\nresults written to %s\n", args.out.c_str());
  std::printf("\n(bit-identity vs the isolated cache-less engine is checked "
              "on every result; best cache-on p95 speedup %.2fx)\n",
              best_p95_speedup);
  if (args.quick) {
    std::printf("%s\n", gates_ok ? "quick gates OK" : "quick gates FAILED");
    return gates_ok ? 0 : 1;
  }
  return 0;
}
