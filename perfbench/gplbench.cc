// The repository benchmark: two workloads run against the public library
// API, every result checked against the CPU reference executor.
//
//   gplbench --workload=eval-sf1|serve-zipf --seed=N --seconds=S
//            [--trace=0|1] [--spans-out=path.jsonl]
//
// Prints one line per metric (name, value, unit, clock, note) and, last, a
// line "PERFBENCH_RESULT {json}" with every metric it measured. Exit code 0
// only when every result was correct. perfbench/run.py builds this program
// and turns its output into the benchmark's result line.
//
// Clocks: "host" metrics are steady-clock wall time on this machine;
// "sim" metrics are the simulated device's deterministic clock and repeat
// bit for bit for a given seed, traced or not.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checker.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "engine/engine.h"
#include "exec/expr.h"
#include "exec/hash_table.h"
#include "exec/primitives.h"
#include "model/calibration.h"
#include "plan/cardinality.h"
#include "plan/segment.h"
#include "queries/tpch_queries.h"
#include "ref/reference_executor.h"
#include "service/query_service.h"
#include "shard/partitioner.h"
#include "spans.h"
#include "trace/trace.h"

namespace {

using namespace gpl;
using perfbench::NowNs;
using perfbench::ScopedSpan;
using perfbench::SpanLog;

constexpr uint64_t kBaseDbgenSeed = 20160626;

// ---------------------------------------------------------------------------
// Arguments, statistics, output
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=eval-sf1|serve-zipf --seed=N "
               "--seconds=S [--trace=0|1] [--spans-out=path]\n",
               argv0);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) Usage(argv[0]);
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      Usage(argv[0]);
    }
  }
  if (args.workload.empty() || !(args.seconds > 0.0)) Usage(argv[0]);
  return args;
}

/// Linear interpolation between the closest order statistics (p in [0,100]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }
double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) * 1e-9; }
double MsSince(int64_t start_ns) { return (NowNs() - start_ns) * 1e-6; }

/// Prints how long each phase of a run took (informational).
class Phases {
 public:
  void Mark(const char* phase) {
    std::printf("phase %-16s %8.3f s\n", phase, SecondsSince(last_ns_));
    last_ns_ = NowNs();
  }

 private:
  int64_t last_ns_ = NowNs();
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;  ///< host | sim | count
  std::string note;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, std::string clock,
           std::string note = "") {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
      value = 0.0;
    }
    metrics_.push_back({std::move(name), value, std::move(unit),
                        std::move(clock), std::move(note)});
  }

  /// Fingerprint of the simulated numbers of the workload's fixed query
  /// set (see Checker::SimFingerprint), printed with the report.
  void set_sim_fingerprint(uint64_t fingerprint) { sim_fingerprint_ = fingerprint; }

  void Print(const perfbench::Checker& checker) const {
    std::printf("%-36s %18s %-8s %-5s %s\n", "metric", "value", "unit", "clock",
                "note");
    for (const Metric& m : metrics_) {
      std::printf("%-36s %18.6f %-8s %-5s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.clock.c_str(), m.note.c_str());
    }
    std::printf("sim fingerprint %016llx (same seed, same model => same value)\n",
                static_cast<unsigned long long>(sim_fingerprint_));
    std::string json = "{\"correct\": ";
    json += checker.failed() == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checker.attempted());
    json += ", \"failed\": " + std::to_string(checker.failed());
    json += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      if (i > 0) json += ", ";
      json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
              m.unit + "\", \"clock\": \"" + m.clock + "\"}";
    }
    json += "}}";
    std::printf("PERFBENCH_RESULT %s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  uint64_t sim_fingerprint_ = 0;
};

// ---------------------------------------------------------------------------
// Query sets
// ---------------------------------------------------------------------------

struct Item {
  std::string label;  ///< query name plus parameters — the checker's key
  LogicalQuery query;
};

std::vector<Item> EvalItems() {
  std::vector<Item> items;
  for (auto& [name, query] : queries::EvaluationSuite()) items.push_back({name, query});
  return items;
}

std::vector<Item> AllItems() {
  std::vector<Item> items = EvalItems();
  for (auto& [name, query] : queries::ExtendedSuite()) items.push_back({name, query});
  return items;
}

std::map<std::string, LogicalQuery> QueryMap(const std::vector<Item>& items) {
  std::map<std::string, LogicalQuery> queries;
  for (const Item& item : items) queries[item.label] = item.query;
  return queries;
}

std::set<std::string> Labels(const std::vector<Item>& items) {
  std::set<std::string> labels;
  for (const Item& item : items) labels.insert(item.label);
  return labels;
}

bool IsGplFamily(EngineMode mode) {
  return mode == EngineMode::kGpl || mode == EngineMode::kGplNoCe ||
         mode == EngineMode::kFused;
}

std::string Config(EngineMode mode, const sim::DeviceSpec& device, int shards) {
  return std::string(EngineModeName(mode)) + "|" + device.name + "|" +
         std::to_string(shards);
}

// ---------------------------------------------------------------------------
// Executing and recording one query
// ---------------------------------------------------------------------------

/// Host-side accounting of executions made with the detailed (decomposed)
/// path, read back by the per-layer metrics.
struct DetailTotals {
  int64_t gpl_queries = 0;
  double tune_ms = 0.0;
  double core_rest_ms = 0.0;  ///< segment host wall - tune - functional
  int64_t tune_hits = 0;
  int64_t tune_misses = 0;
  std::vector<double> segment_errors;  ///< |pred - sim| / sim, gpl mode
};

class Runner {
 public:
  Runner(SpanLog& spans, perfbench::Checker& checker)
      : spans_(spans), checker_(checker) {}

  /// Functional milliseconds per query label (from the replay probe); used
  /// for the derived exec.functional spans in the traced window.
  void set_functional_ms(std::map<std::string, double> ms) {
    functional_ms_ = std::move(ms);
  }
  /// Segment tile sizes of the first gpl-mode execution per query label.
  const std::map<std::string, std::vector<int64_t>>& tiles() const { return tiles_; }
  DetailTotals& totals() { return totals_; }

  /// Runs one query. `detailed` takes the decomposed path (Plan, then
  /// ExecuteGplDetailed for GPL modes) — the same work Engine::Execute does,
  /// but with spans and the per-segment report; otherwise Engine::Execute
  /// is called directly. Returns the result when it was correct.
  std::optional<QueryResult> Run(Engine& engine, const Item& item,
                                 const ExecOptions& exec, bool detailed,
                                 double* wall_ms) {
    const EngineMode mode = engine.options().mode;
    const std::string config =
        Config(mode, engine.options().device, std::max(1, exec.shards));
    const int64_t qid = next_query_++;
    const int64_t start = NowNs();
    Result<QueryResult> result = detailed ? RunDetailed(engine, item, exec, qid)
                                          : engine.Execute(item.query, exec);
    if (wall_ms != nullptr) *wall_ms = MsSince(start);
    if (!result.ok()) {
      checker_.ObserveError(item.label + "|" + config + ": " +
                            result.status().ToString());
      return std::nullopt;
    }
    if (!checker_.Observe(item.label, config, *result)) return std::nullopt;
    return result.take();
  }

 private:
  Result<QueryResult> RunDetailed(Engine& engine, const Item& item,
                                  const ExecOptions& exec, int64_t qid) {
    const EngineMode mode = engine.options().mode;
    ScopedSpan top(spans_, "engine.execute", qid);
    if (Engine::IsShardedExec(exec)) {
      const int id = spans_.Open("shard.execute", qid);
      Result<QueryResult> r = engine.Execute(item.query, exec);
      spans_.Close(id);
      if (r.ok()) {
        spans_.AddDerived(id, "plan.plan", r->metrics.plan_wall_ms);
        spans_.AddDerived(id, "model.tune", r->metrics.tune_wall_ms);
      }
      return r;
    }
    const int plan_id = spans_.Open("plan.plan", qid);
    Result<PhysicalOpPtr> plan = engine.Plan(item.query);
    spans_.Close(plan_id);
    GPL_RETURN_NOT_OK(plan.status());
    if (!IsGplFamily(mode)) {
      ScopedSpan kbe(spans_, "engine.kbe", qid);
      return engine.ExecutePlan(*plan, exec);
    }
    const int core_id = spans_.Open("core.run", qid);
    Result<GplRunResult> run = engine.ExecuteGplDetailed(*plan, exec);
    spans_.Close(core_id);
    GPL_RETURN_NOT_OK(run.status());

    double segment_ms = 0.0;
    for (const SegmentReport& seg : run->segments) segment_ms += seg.host_wall_ms;
    const double tune_ms = run->tuner_wall_ms;
    double functional_ms = 0.0;
    if (auto it = functional_ms_.find(item.label); it != functional_ms_.end()) {
      functional_ms = std::min(it->second, std::max(0.0, segment_ms - tune_ms));
    }
    spans_.AddDerived(core_id, "model.tune", tune_ms);
    spans_.AddDerived(core_id, "exec.functional", functional_ms);
    ++totals_.gpl_queries;
    totals_.tune_ms += tune_ms;
    totals_.core_rest_ms += segment_ms - tune_ms - functional_ms;
    totals_.tune_hits += run->tuning_cache_hits;
    totals_.tune_misses += run->tuning_cache_misses;
    if (mode == EngineMode::kGpl) {
      for (const SegmentReport& seg : run->segments) {
        if (seg.measured_cycles > 0.0) {
          totals_.segment_errors.push_back(
              std::fabs(seg.predicted_cycles - seg.measured_cycles) /
              seg.measured_cycles);
        }
      }
      if (engine.options().device.name == sim::DeviceSpec::AmdA10().name &&
          !tiles_.count(item.label)) {
        std::vector<int64_t>& tiles = tiles_[item.label];
        for (const SegmentReport& seg : run->segments) {
          tiles.push_back(seg.tuning.params.tile_bytes);
        }
      }
    }
    ScopedSpan fin(spans_, "engine.finalize", qid);
    QueryResult result;
    result.metrics = engine.FinalizeGplMetrics(*run);
    result.table = std::move(run->output);
    return result;
  }

  SpanLog& spans_;
  perfbench::Checker& checker_;
  std::map<std::string, double> functional_ms_;
  std::map<std::string, std::vector<int64_t>> tiles_;
  DetailTotals totals_;
  int64_t next_query_ = 0;
};

/// Simulated totals of one pass over a workload's query set.
struct SimTotals {
  std::map<EngineMode, double> elapsed_ms_by_mode;
  double materialized_mb = 0.0;
  double channel_mb = 0.0;
  std::vector<double> valu_busy, mem_unit_busy, cache_hit_ratio;
  // Sharded executions only.
  int64_t sharded_runs = 0;
  int64_t combines = 0;
  double exchange_mb = 0.0;
  double exchange_sim_ms = 0.0;
  double merge_sim_ms = 0.0;
  int64_t stitched_rows = 0;

  void Add(EngineMode mode, const QueryMetrics& m) {
    elapsed_ms_by_mode[mode] += m.elapsed_ms;
    if (m.num_shards > 1) {
      ++sharded_runs;
      combines += m.partial_combine ? 1 : 0;
      exchange_mb += static_cast<double>(m.exchange_bytes) / 1e6;
      exchange_sim_ms += m.exchange_ms;
      merge_sim_ms += m.merge_ms;
      stitched_rows += m.stitched_rows;
    } else if (mode == EngineMode::kGpl) {
      materialized_mb += static_cast<double>(m.materialized_bytes) / 1e6;
      channel_mb += static_cast<double>(m.channel_bytes) / 1e6;
      valu_busy.push_back(m.valu_busy);
      mem_unit_busy.push_back(m.mem_unit_busy);
      cache_hit_ratio.push_back(m.cache_hit_ratio);
    }
  }
};

// ---------------------------------------------------------------------------
// Probes for the traced run: functional replay and exec micro-rates
// ---------------------------------------------------------------------------

struct FunctionalProbe {
  std::map<std::string, double> ms_by_label;
  double total_ms = 0.0;
  double segment_plan_ms = 0.0;  ///< mean SegmentPlan per query
  int64_t segments = 0;
  int64_t input_rows = 0;
  int64_t input_bytes = 0;
};

/// Re-runs each query's segments through RunSegmentFunctional with the tile
/// sizes the gpl tuner chose, timing the functional layer on its own. The
/// replayed final output must equal the engine's result.
FunctionalProbe ReplayFunctional(const tpch::Database& db, Engine& gpl_engine,
                                 const std::vector<Item>& items,
                                 const std::map<std::string, std::vector<int64_t>>& tiles,
                                 const perfbench::Checker& checker, SpanLog& spans,
                                 int host_threads) {
  FunctionalProbe probe;
  ScopedHostParallelism parallelism(host_threads);
  std::vector<double> segment_plan_ms;
  for (const Item& item : items) {
    auto tile_it = tiles.find(item.label);
    if (tile_it == tiles.end()) continue;
    Result<PhysicalOpPtr> plan = gpl_engine.Plan(item.query);
    if (!plan.ok()) continue;
    const int64_t seg_start = NowNs();
    Result<SegmentedPlan> segmented = [&] {
      ScopedSpan span(spans, "plan.segment");
      return SegmentPlan(*plan);
    }();
    segment_plan_ms.push_back(MsSince(seg_start));
    if (!segmented.ok() || segmented->segments.size() != tile_it->second.size()) {
      continue;
    }
    for (const Segment& seg : segmented->segments) {
      for (const Stage& stage : seg.stages) stage.kernel->Reset();
    }
    std::vector<std::shared_ptr<const Table>> outputs;
    double ms = 0.0;
    bool ok = true;
    for (size_t i = 0; i < segmented->segments.size(); ++i) {
      const Segment& seg = segmented->segments[i];
      std::shared_ptr<const Table> input;
      if (!seg.input_table.empty()) {
        auto view = std::make_shared<Table>(seg.input_table);
        const Table* base = db.ByName(seg.input_table);
        for (const std::string& col : seg.input_columns) {
          const std::string name =
              seg.input_alias.empty() ? col : seg.input_alias + "_" + col;
          ok = ok && base != nullptr &&
               view->AddColumn(name, base->GetColumn(col)).ok();
        }
        input = view;
      } else if (seg.input_segment >= 0 &&
                 static_cast<size_t>(seg.input_segment) < outputs.size()) {
        input = outputs[static_cast<size_t>(seg.input_segment)];
      }
      if (!ok || input == nullptr) {
        ok = false;
        break;
      }
      const int64_t start = NowNs();
      Result<FunctionalRun> run = [&] {
        ScopedSpan span(spans, "exec.functional");
        return RunSegmentFunctional(seg, *input, tile_it->second[i]);
      }();
      ms += MsSince(start);
      if (!run.ok()) {
        ok = false;
        break;
      }
      probe.segments += 1;
      probe.input_rows += run->input_rows;
      probe.input_bytes += run->input_bytes;
      outputs.push_back(std::make_shared<const Table>(std::move(run->output)));
    }
    if (!ok || outputs.empty()) continue;
    auto first = checker.first().find(item.label + "|" + Config(EngineMode::kGpl,
                                                            gpl_engine.options().device, 1));
    if (first != checker.first().end() &&
        !perfbench::TablesBitIdentical(first->second.result.table, *outputs.back())) {
      std::fprintf(stderr, "perfbench: note: functional replay of %s differs "
                           "from the engine result\n", item.label.c_str());
    }
    probe.ms_by_label[item.label] = ms;
    probe.total_ms += ms;
  }
  probe.segment_plan_ms = Mean(segment_plan_ms);
  return probe;
}

struct ExecMicro {
  double memcpy_gb_per_s = 0.0;
  double build_ns_per_row = 0.0;
  double probe_ns = 0.0;
  double filter_rows_per_s = 0.0;
  double sort_rows_per_s = 0.0;
};

/// Micro-rates of the exec primitives on the workload's own lineitem and
/// orders, plus the host memcpy ceiling (median of 5 copies of 64 MiB).
ExecMicro MeasureExecMicro(const tpch::Database& db, SpanLog& spans,
                           int host_threads) {
  ScopedSpan span(spans, "exec.micro");
  ScopedHostParallelism parallelism(host_threads);
  ExecMicro micro;
  {
    const size_t bytes = size_t{64} << 20;
    std::vector<char> src(bytes, 1), dst(bytes, 0);
    std::vector<double> rates;
    for (int rep = 0; rep < 5; ++rep) {
      src[static_cast<size_t>(rep)] = static_cast<char>(rep);
      const int64_t start = NowNs();
      std::memcpy(dst.data(), src.data(), bytes);
      rates.push_back(static_cast<double>(bytes) / (SecondsSince(start) * 1e9));
    }
    micro.memcpy_gb_per_s = Median(rates);
    if (dst[4] != 4) std::fprintf(stderr, "perfbench: memcpy check failed\n");
  }
  const Column& okeys = db.orders.GetColumn("o_orderkey");
  std::vector<int64_t> build_keys(static_cast<size_t>(okeys.size()));
  for (int64_t i = 0; i < okeys.size(); ++i) build_keys[static_cast<size_t>(i)] = okeys.AsInt64(i);
  JoinHashTable table;
  int64_t start = NowNs();
  table.Build(build_keys);
  micro.build_ns_per_row =
      Ratio(static_cast<double>(NowNs() - start), static_cast<double>(build_keys.size()));

  const Column& lkeys = db.lineitem.GetColumn("l_orderkey");
  const int64_t probes = std::min<int64_t>(lkeys.size(), 2'000'000);
  std::vector<int64_t> rows;
  int64_t matches = 0;
  start = NowNs();
  for (int64_t i = 0; i < probes; ++i) {
    rows.clear();
    table.Probe(lkeys.AsInt64(i), &rows);
    matches += static_cast<int64_t>(rows.size());
  }
  micro.probe_ns = Ratio(static_cast<double>(NowNs() - start), static_cast<double>(probes));
  if (matches != probes) std::fprintf(stderr, "perfbench: probe matched %lld of %lld\n",
                                      static_cast<long long>(matches),
                                      static_cast<long long>(probes));

  Table view("lineitem");
  for (const char* col : {"l_shipdate", "l_extendedprice", "l_discount", "l_quantity"}) {
    GPL_CHECK_OK(view.AddColumn(col, db.lineitem.GetColumn(col)));
  }
  const ExprPtr predicate = Lt(Col("l_shipdate"), LitDate("1995-06-17"));
  start = NowNs();
  int64_t kept = 0;
  const Column flags = ComputeFlags(view, predicate);
  const Column offsets = PrefixSum(flags, &kept);
  const Table filtered = ScatterRows(view, flags, offsets);
  micro.filter_rows_per_s = Ratio(static_cast<double>(view.num_rows()), SecondsSince(start));
  if (filtered.num_rows() != kept) std::fprintf(stderr, "perfbench: filter row mismatch\n");

  Table sort_input("lineitem");
  const int64_t sort_rows = std::min<int64_t>(view.num_rows(), 1'000'000);
  for (const char* col : {"l_extendedprice", "l_discount"}) {
    const Column& c = view.GetColumn(col);
    Column part(c.type());
    part.dataf().assign(c.dataf().begin(), c.dataf().begin() + sort_rows);
    GPL_CHECK_OK(sort_input.AddColumn(col, std::move(part)));
  }
  KernelPtr sort = MakeSortKernel({{"l_extendedprice", true}});
  start = NowNs();
  Result<Table> processed = sort->Process(sort_input);
  Result<Table> sorted = sort->Finish();
  micro.sort_rows_per_s = Ratio(static_cast<double>(sort_rows), SecondsSince(start));
  if (!processed.ok() || !sorted.ok() || sorted->num_rows() != sort_rows) {
    std::fprintf(stderr, "perfbench: sort probe failed\n");
  }
  return micro;
}

/// Seconds of one Catalog::FromDatabase (which Engine's constructor runs
/// internally, out of the benchmark's sight).
double TimeCatalog(const tpch::Database& db, SpanLog& spans) {
  ScopedSpan span(spans, "plan.catalog");
  const int64_t start = NowNs();
  const Catalog catalog = Catalog::FromDatabase(db);
  return SecondsSince(start);
}

// ---------------------------------------------------------------------------
// Reference checks
// ---------------------------------------------------------------------------

/// Compares every key's first result against ref::ExecutePlan on `db`, one
/// reference execution per distinct query label, `threads` at a time.
/// `queries` maps labels to queries and must cover every observed label.
void CheckAgainstReference(const tpch::Database& db, Engine& planner,
                           const std::map<std::string, LogicalQuery>& queries,
                           perfbench::Checker& checker, SpanLog& spans,
                           int threads) {
  ScopedSpan span(spans, "bench.reference");
  std::set<std::string> observed;
  for (const auto& [key, first] : checker.first()) observed.insert(first.query);
  const std::vector<std::string> labels(observed.begin(), observed.end());
  std::vector<std::optional<Result<Table>>> refs(labels.size());
  std::vector<PhysicalOpPtr> plans(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    auto query = queries.find(labels[i]);
    if (query == queries.end()) {
      refs[i] = Result<Table>(Status::NotFound("no query for label " + labels[i]));
      continue;
    }
    Result<PhysicalOpPtr> plan = planner.Plan(query->second);
    if (plan.ok()) {
      plans[i] = *plan;
    } else {
      refs[i] = Result<Table>(plan.status());
    }
  }
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < labels.size(); i = next++) {
      if (!refs[i].has_value()) refs[i] = ref::ExecutePlan(db, plans[i]);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();

  for (size_t i = 0; i < labels.size(); ++i) {
    const Result<Table>& ref_table = *refs[i];
    for (const auto& [key, first] : checker.first()) {
      if (first.query != labels[i]) continue;
      std::string message;
      if (!ref_table.ok()) {
        checker.Fail("reference execution of " + labels[i] + ": " +
                     ref_table.status().ToString());
      } else if (!ref::TablesEqual(*ref_table, first.result.table, &message)) {
        checker.Fail(key + " differs from the reference: " + message);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Common per-workload bookkeeping
// ---------------------------------------------------------------------------

struct Window {
  int64_t queries = 0;
  double seconds = 0.0;
  std::vector<double> latencies_ms;
  double qps() const { return Ratio(static_cast<double>(queries), seconds); }
};

struct TraceWindow {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// End-to-end metrics shared by every workload.
void ReportEndToEnd(Report& report, double setup_s, const Window& window,
                    const std::string& latency_note, const SimTotals& sim,
                    const std::vector<double>& segment_errors,
                    const perfbench::Checker& checker) {
  const std::string n = "n=" + std::to_string(window.latencies_ms.size());
  std::printf("latency ms at p10..p90:");
  for (int p = 10; p <= 90; p += 10) std::printf(" %.2f", Percentile(window.latencies_ms, p));
  std::printf("\n");
  report.Add("setup_s", setup_s, "s", "host");
  report.Add("qps", window.qps(), "1/s", "host",
             std::to_string(window.queries) + " queries in " +
                 std::to_string(window.seconds) + " s");
  report.Add("latency_ms_p50", Percentile(window.latencies_ms, 50), "ms", "host",
             n + ", " + latency_note);
  report.Add("latency_ms_p90", Percentile(window.latencies_ms, 90), "ms", "host",
             n + ", " + latency_note);
  for (const auto& [mode, suffix] : {std::pair{EngineMode::kKbe, "kbe"},
                                     std::pair{EngineMode::kGpl, "gpl"},
                                     std::pair{EngineMode::kFused, "fused"}}) {
    auto it = sim.elapsed_ms_by_mode.find(mode);
    report.Add(std::string("sim_ms_") + suffix,
               it == sim.elapsed_ms_by_mode.end() ? 0.0 : it->second, "sim_ms",
               "sim", "summed elapsed_ms over one pass");
  }
  report.Add("model_error_pct", 100.0 * Mean(segment_errors), "%", "sim",
             "n=" + std::to_string(segment_errors.size()) + " gpl segments");
  report.Add("peak_rss_mb", PeakRssMb(), "MB", "host");
  report.Add("failed_frac",
             Ratio(static_cast<double>(checker.failed()),
                   static_cast<double>(checker.attempted())),
             "frac", "count",
             std::to_string(checker.failed()) + " of " +
                 std::to_string(checker.attempted()));
}

/// Per-layer metrics every workload reports (layers a workload does not
/// enter read 0).
struct LayerInputs {
  double generate_s = 0.0;
  double db_mb = 0.0;
  double catalog_s = 0.0;
  double engine_ctor_ms = 0.0;
  double calibration_ms = 0.0;
  double partition_s = 0.0;
  FunctionalProbe functional;
  ExecMicro micro;
  SimTotals sim;
  SimTotals shard_sim;  ///< sharded executions (eval-sf1's shard probe)
  DetailTotals detail;  ///< traced-window executions only
  Window untraced, traced;
  TraceWindow trace_window;
  // Pool and service (serve-zipf only).
  double subplan_hit_rate = 0.0;
  double attaches = 0.0;
  double evictions = 0.0;
  double scan_rows_shared_frac = 0.0;
  double pool_bytes_mb = 0.0;
  double pool_capacity_mb = 0.0;
  double pool_working_set_mb = 0.0;
  double queue_wait_ms_p50 = 0.0;
  double exec_ms_p50 = 0.0;
  double max_queue_depth = 0.0;
  double rejected = 0.0;
};

void ReportLayers(Report& report, const LayerInputs& in, const SpanLog& spans) {
  report.Add("tpch.generate_s", in.generate_s, "s", "host");
  report.Add("tpch.generate_mb_per_s", Ratio(in.db_mb, in.generate_s), "MB/s", "host");
  report.Add("plan.catalog_s", in.catalog_s, "s", "host");
  const std::vector<double> plans = spans.DurationsMs("plan.plan");
  report.Add("plan.plan_ms", Mean(plans), "ms", "host",
             "n=" + std::to_string(plans.size()));
  report.Add("plan.segment_ms", in.functional.segment_plan_ms, "ms", "host");
  report.Add("plan.segments", static_cast<double>(in.functional.segments), "count",
             "count", "gpl segments in one pass over the query set");
  report.Add("engine.ctor_ms", in.engine_ctor_ms, "ms", "host");
  report.Add("model.calibration_ms", in.calibration_ms, "ms", "host");
  report.Add("model.tune_ms",
             Ratio(in.detail.tune_ms, static_cast<double>(in.detail.gpl_queries)),
             "ms", "host", "per GPL-mode query");
  report.Add("model.tuning_cache_hit_rate",
             Ratio(static_cast<double>(in.detail.tune_hits),
                   static_cast<double>(in.detail.tune_hits + in.detail.tune_misses)),
             "frac", "count");
  const double functional_s = in.functional.total_ms * 1e-3;
  report.Add("exec.functional_ms", in.functional.total_ms, "ms", "host",
             "one gpl pass, replayed");
  report.Add("exec.functional_rows_per_s",
             Ratio(static_cast<double>(in.functional.input_rows), functional_s),
             "rows/s", "host");
  report.Add("exec.functional_bandwidth_frac",
             Ratio(Ratio(static_cast<double>(in.functional.input_bytes), functional_s),
                   in.micro.memcpy_gb_per_s * 1e9),
             "frac", "host", "segment input bytes/s over memcpy bytes/s");
  report.Add("exec.probe_ns", in.micro.probe_ns, "ns", "host");
  report.Add("exec.build_ns_per_row", in.micro.build_ns_per_row, "ns", "host");
  report.Add("exec.filter_rows_per_s", in.micro.filter_rows_per_s, "rows/s", "host");
  report.Add("exec.sort_rows_per_s", in.micro.sort_rows_per_s, "rows/s", "host");
  report.Add("exec.memcpy_gb_per_s", in.micro.memcpy_gb_per_s, "GB/s", "host");
  report.Add("core.sim_and_bookkeeping_ms",
             Ratio(in.detail.core_rest_ms, static_cast<double>(in.detail.gpl_queries)),
             "ms", "host", "per GPL-mode query");
  const SimTotals& sim = in.sim;
  report.Add("sim.materialized_mb", sim.materialized_mb, "MB", "sim");
  report.Add("sim.channel_mb", sim.channel_mb, "MB", "sim");
  report.Add("sim.valu_busy", Mean(sim.valu_busy), "frac", "sim");
  report.Add("sim.mem_unit_busy", Mean(sim.mem_unit_busy), "frac", "sim");
  report.Add("sim.cache_hit_ratio", Mean(sim.cache_hit_ratio), "frac", "sim");
  report.Add("shard.partition_s", in.partition_s, "s", "host");
  const SimTotals& shard = in.shard_sim;
  report.Add("shard.exchange_mb", shard.exchange_mb, "MB", "sim");
  report.Add("shard.exchange_sim_ms", shard.exchange_sim_ms, "sim_ms", "sim");
  report.Add("shard.merge_sim_ms", shard.merge_sim_ms, "sim_ms", "sim");
  report.Add("shard.combine_frac",
             Ratio(static_cast<double>(shard.combines), static_cast<double>(shard.sharded_runs)),
             "frac", "sim");
  report.Add("shard.stitched_rows", static_cast<double>(shard.stitched_rows), "count", "sim");
  report.Add("pool.subplan_hit_rate", in.subplan_hit_rate, "frac", "count");
  report.Add("pool.attaches", in.attaches, "count", "count");
  report.Add("pool.evictions", in.evictions, "count", "count");
  report.Add("pool.scan_rows_shared_frac", in.scan_rows_shared_frac, "frac", "count");
  report.Add("pool.bytes_mb", in.pool_bytes_mb, "MiB", "host");
  report.Add("pool.capacity_mb", in.pool_capacity_mb, "MiB", "host");
  report.Add("pool.working_set_mb", in.pool_working_set_mb, "MiB", "host",
             "every distinct query once through an uncapped cache");
  report.Add("service.queue_wait_ms_p50", in.queue_wait_ms_p50, "ms", "host");
  report.Add("service.exec_ms_p50", in.exec_ms_p50, "ms", "host");
  report.Add("service.max_queue_depth", in.max_queue_depth, "count", "count");
  report.Add("service.rejected", in.rejected, "count", "count");

  // Self time per layer over the traced window, per completed query.
  const double per_query = 1.0 / std::max<int64_t>(1, in.traced.queries);
  const std::map<std::string, double> self =
      spans.SelfSecondsByLayer(in.trace_window.start_ns, in.trace_window.end_ns);
  double self_total_s = 0.0;
  for (const auto& [layer, s] : self) self_total_s += s;
  for (const char* layer :
       {"engine", "plan", "model", "exec", "core", "shard", "service", "bench"}) {
    auto it = self.find(layer);
    report.Add(std::string("self.") + layer + "_ms",
               (it == self.end() ? 0.0 : it->second) * 1e3 * per_query, "ms", "host",
               "self time per query, traced window");
  }
  report.Add("trace.untraced_ms_per_query", Ratio(1e3, in.untraced.qps()), "ms", "host");
  report.Add("trace.traced_ms_per_query", Ratio(1e3, in.traced.qps()), "ms", "host");
  report.Add("trace.overhead_frac", Ratio(in.untraced.qps(), in.traced.qps()) - 1.0,
             "frac", "host", "untraced qps / traced qps - 1");
  report.Add("trace.accounted_frac",
             Ratio(self_total_s, (in.trace_window.end_ns - in.trace_window.start_ns) * 1e-9),
             "frac", "host", "summed self time / traced window wall");
  report.Add("trace.spans", static_cast<double>(spans.spans().size()), "count", "count");
}

// ---------------------------------------------------------------------------
// eval-sf1
// ---------------------------------------------------------------------------

const std::vector<EngineMode>& EvalModes() {
  static const std::vector<EngineMode> modes = {EngineMode::kKbe, EngineMode::kGpl,
                                                EngineMode::kFused};
  return modes;
}

tpch::Database Generate(double sf, uint64_t seed, SpanLog& spans, double* seconds) {
  ScopedSpan span(spans, "tpch.generate");
  const int64_t start = NowNs();
  tpch::DbgenConfig config;
  config.scale_factor = sf;
  config.seed = kBaseDbgenSeed + seed;
  tpch::Database db = tpch::Generate(config);
  *seconds = SecondsSince(start);
  return db;
}

model::CalibrationTable Calibrate(const sim::DeviceSpec& device, SpanLog& spans,
                                  std::vector<double>* ms) {
  ScopedSpan span(spans, "model.calibration");
  const int64_t start = NowNs();
  sim::Simulator simulator(device);
  model::CalibrationTable table = model::CalibrationTable::Run(simulator);
  ms->push_back(MsSince(start));
  return table;
}

/// Runs passes until `seconds` have elapsed (whole passes only).
template <typename PassFn>
Window RunWindow(double seconds, PassFn pass) {
  Window window;
  const int64_t start = NowNs();
  do {
    pass(window);
  } while (SecondsSince(start) < seconds);
  window.seconds = SecondsSince(start);
  return window;
}

/// Sharded-path probe of the traced eval-sf1 run: one cold pass of the 11
/// queries on kShards shards at SF 0.005, a fresh engine (so a cold tuning
/// cache) per mode. Its results are checked against the reference on its
/// own database, so `checker` must not hold other workloads' results.
struct ShardProbe {
  double partition_s = 0.0;
  SimTotals sim;
};

ShardProbe RunShardProbe(uint64_t seed, SpanLog& spans, perfbench::Checker& checker) {
  constexpr double kSf = 0.005;
  constexpr int kShards = 4;
  ShardProbe probe;
  double generate_s = 0.0;
  const tpch::Database db = Generate(kSf, seed, spans, &generate_s);
  const sim::DeviceSpec device = sim::DeviceSpec::AmdA10();
  std::vector<double> calibration_ms;
  std::map<std::string, model::CalibrationTable> calibrations;
  calibrations.emplace(device.name, Calibrate(device, spans, &calibration_ms));
  Result<shard::ShardedDatabase> sharded = [&] {
    ScopedSpan span(spans, "shard.partition");
    const int64_t start = NowNs();
    shard::PartitionOptions options;
    options.num_shards = kShards;
    Result<shard::ShardedDatabase> partitioned = shard::PartitionDatabase(db, options);
    probe.partition_s = SecondsSince(start);
    return partitioned;
  }();
  if (!sharded.ok()) {
    checker.ObserveError("partition: " + sharded.status().ToString());
    return probe;
  }
  Runner runner(spans, checker);
  const std::vector<Item> items = AllItems();
  EngineOptions options;
  options.device = device;
  options.calibration = &calibrations.at(device.name);
  options.sharded_db = &*sharded;
  options.device_calibrations = &calibrations;
  options.exec.host_threads = 1;
  options.exec.shards = kShards;
  for (EngineMode mode : EvalModes()) {
    options.mode = mode;
    Engine engine(&db, options);
    for (const Item& item : items) {
      std::optional<QueryResult> r =
          runner.Run(engine, item, engine.options().exec, /*detailed=*/true, nullptr);
      if (r) probe.sim.Add(mode, r->metrics);
    }
  }
  Engine planner(&db, options);
  CheckAgainstReference(db, planner, QueryMap(items), checker, spans,
                        HostHardwareThreads());
  return probe;
}

void RunEvalSf1(const Args& args, Report& report, SpanLog& spans,
               perfbench::Checker& checker) {
  const int threads = HostHardwareThreads();
  Runner runner(spans, checker);
  LayerInputs in;
  Phases phases;
  std::vector<double> calibration_ms, ctor_ms;

  const int64_t setup_start = NowNs();
  tpch::Database db = Generate(1.0, args.seed, spans, &in.generate_s);
  const model::CalibrationTable calibration =
      Calibrate(sim::DeviceSpec::AmdA10(), spans, &calibration_ms);
  std::vector<std::unique_ptr<Engine>> engines;
  for (EngineMode mode : EvalModes()) {
    ScopedSpan span(spans, "engine.ctor");
    const int64_t start = NowNs();
    EngineOptions options;
    options.mode = mode;
    options.calibration = &calibration;
    options.exec.host_threads = threads;
    engines.push_back(std::make_unique<Engine>(&db, options));
    ctor_ms.push_back(MsSince(start));
  }
  std::vector<Item> items = EvalItems();
  // Untimed warm-up pass; its results are the checker's first executions.
  for (const Item& item : items) {
    for (auto& engine : engines) {
      std::optional<QueryResult> r =
          runner.Run(*engine, item, engine->options().exec, /*detailed=*/true, nullptr);
      if (r) in.sim.Add(engine->options().mode, r->metrics);
    }
  }
  const double setup_s = SecondsSince(setup_start);
  phases.Mark("setup");
  const std::vector<double> segment_errors = runner.totals().segment_errors;
  runner.totals() = DetailTotals();

  auto pass = [&](bool traced) {
    return [&, traced](Window& window) {
      for (const Item& item : items) {
        for (auto& engine : engines) {
          double ms = 0.0;
          runner.Run(*engine, item, engine->options().exec, traced, &ms);
          window.latencies_ms.push_back(ms);
          ++window.queries;
        }
      }
    };
  };
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  spans.set_recording(false);
  in.untraced = RunWindow(untraced_s, pass(false));
  spans.set_recording(true);
  phases.Mark("window");
  if (args.trace) {
    in.catalog_s = TimeCatalog(db, spans);
    in.functional = ReplayFunctional(db, *engines[1], items, runner.tiles(), checker,
                                     spans, threads);
    runner.set_functional_ms(in.functional.ms_by_label);
    in.micro = MeasureExecMicro(db, spans, threads);
    perfbench::Checker shard_checker;
    const ShardProbe shard_probe = RunShardProbe(args.seed, spans, shard_checker);
    checker.Merge(shard_checker);
    in.partition_s = shard_probe.partition_s;
    in.shard_sim = shard_probe.sim;
    phases.Mark("probes");
    in.trace_window.start_ns = NowNs();
    in.traced = RunWindow(args.seconds / 2, pass(true));
    in.trace_window.end_ns = NowNs();
    phases.Mark("traced window");
  }

  // Two reference executions at a time: each holds SF-1 hash tables.
  CheckAgainstReference(db, *engines[1], QueryMap(items), checker, spans, 2);
  phases.Mark("reference");

  ReportEndToEnd(report, setup_s, in.untraced, "Engine::Execute wall", in.sim,
                 segment_errors, checker);
  report.set_sim_fingerprint(checker.SimFingerprint(Labels(items)));
  if (args.trace) {
    in.db_mb = static_cast<double>(db.byte_size()) / 1e6;
    in.engine_ctor_ms = Median(ctor_ms);
    in.calibration_ms = Median(calibration_ms);
    in.detail = runner.totals();
    ReportLayers(report, in, spans);
  }
}

// ---------------------------------------------------------------------------
// serve-zipf
// ---------------------------------------------------------------------------

constexpr double kServeSf = 0.1;
constexpr int kServeWindow = 8;         ///< outstanding queries (closed loop)
/// Subplan cache capacity (MiB): above the ~62 MiB the 11 base queries
/// retain, below the base plus the fresh Q14 results a window draws.
constexpr int64_t kServeCacheMb = 66;

/// Zipf(1.0) over a fixed ranking of the 11 queries. Each Q14 draw takes a
/// fresh selectivity from the seeded stream (uniform in [0.02, 0.40] at
/// 1e-6 resolution), so Q14 misses the subplan cache, inserts and evicts,
/// while repeated queries hit.
class ZipfMix {
 public:
  explicit ZipfMix(uint64_t seed) : rng_(seed) {
    // Fixed popularity ranking, so every seed draws the same mix.
    // Q14 ranks last: its fresh parameters always miss, and keeping misses
    // rare (~3% of queries) keeps the latency distribution free of a cliff
    // at the median.
    for (const char* name : {"Q6", "Q1", "Q3", "Q5", "Q12", "Q10", "Q19", "Q7",
                             "Q8", "Q9", "Q14"}) {
      ranking_.push_back(name);
    }
    for (const Item& item : AllItems()) queries_[item.label] = item.query;
    double total = 0.0;
    for (size_t r = 0; r < ranking_.size(); ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  Item Next() {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    const std::string& name = ranking_[std::min(r, ranking_.size() - 1)];
    if (name != "Q14") return {name, queries_.at(name)};
    const double selectivity =
        std::round(std::uniform_real_distribution<double>(0.02, 0.40)(rng_) * 1e6) / 1e6;
    char label[32];
    std::snprintf(label, sizeof(label), "Q14(s=%.6f)", selectivity);
    Item item{label, queries::Q14(selectivity)};
    queries_.emplace(item.label, item.query);
    return item;
  }

  /// Every query drawn so far plus the 11 base queries, by label.
  const std::map<std::string, LogicalQuery>& queries() const { return queries_; }

 private:
  std::mt19937_64 rng_;
  std::vector<std::string> ranking_;
  std::map<std::string, LogicalQuery> queries_;
  std::vector<double> cdf_;
};

service::ServiceOptions ServeOptions(int64_t cache_mb) {
  service::ServiceOptions options;
  options.num_workers = std::max(1, HostHardwareThreads() - 1);
  options.queue_capacity = 2 * kServeWindow;
  options.engine.mode = EngineMode::kGpl;
  options.engine.exec.host_threads = 1;
  options.subplan_cache = true;
  options.subplan_cache_mb = cache_mb;
  return options;
}

/// Runs every item once through `service`, at most kServeWindow in flight.
void RunOnce(service::QueryService& service, const std::vector<Item>& items) {
  std::deque<service::QueryHandle> handles;
  for (const Item& item : items) {
    if (handles.size() >= static_cast<size_t>(kServeWindow)) {
      handles.front().Await();
      handles.pop_front();
    }
    Result<service::QueryHandle> h = service.Submit(item.label, item.query);
    if (h.ok()) handles.push_back(*h);
  }
  for (service::QueryHandle& h : handles) h.Await();
}

/// Pool bytes (pages in use) the subplan cache retains when every item runs
/// once through a service whose cache is large enough to keep everything.
int64_t MeasureWorkingSet(const tpch::Database& db, const std::vector<Item>& items) {
  service::QueryService probe(&db, ServeOptions(int64_t{1} << 16));
  RunOnce(probe, items);
  const pool::PagePoolStats pages = probe.subplan_cache().pool_stats();
  return pages.used_pages * pages.page_bytes;
}

void RunServeZipf(const Args& args, Report& report, SpanLog& spans,
                 perfbench::Checker& checker) {
  constexpr int kSetupReps = 3;
  LayerInputs in;
  Phases phases;
  std::vector<double> rep_s, generate_s, start_ms;
  const std::string config = Config(EngineMode::kGpl, sim::DeviceSpec::AmdA10(), 1);
  ZipfMix mix(args.seed);
  const std::vector<Item> all = AllItems();

  // Setup, repeated: generate, start the service, warm it with one pass.
  tpch::Database db;
  std::unique_ptr<service::QueryService> service;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    const int64_t start = NowNs();
    double gen = 0.0;
    db = Generate(kServeSf, args.seed, spans, &gen);
    generate_s.push_back(gen);
    {
      ScopedSpan span(spans, "service.start");
      const int64_t sstart = NowNs();
      service = std::make_unique<service::QueryService>(&db, ServeOptions(kServeCacheMb));
      start_ms.push_back(MsSince(sstart));
    }
    {
      ScopedSpan span(spans, "service.warmup");
      RunOnce(*service, all);
    }
    rep_s.push_back(SecondsSince(start));
  }
  const double setup_s = Median(rep_s);
  phases.Mark("setup");
  const service::ServiceStats before = service->Stats();

  struct Pending {
    Item item;
    service::QueryHandle handle;
    int64_t submit_ns = 0;
  };
  int64_t qid = 0;
  auto run_window = [&](double seconds, bool traced) {
    spans.set_recording(traced);
    Window window;
    std::deque<Pending> pending;
    const int64_t start = NowNs();
    auto complete_oldest = [&] {
      Pending p = std::move(pending.front());
      pending.pop_front();
      const Result<QueryResult>* r = nullptr;
      {
        ScopedSpan span(spans, "service.await", qid);
        r = &p.handle.Await();
      }
      window.latencies_ms.push_back(MsSince(p.submit_ns));
      ++window.queries;
      ScopedSpan span(spans, "bench.check", qid);
      if (r->ok()) {
        checker.Observe(p.item.label, config, **r);
      } else {
        checker.ObserveError(p.item.label + ": " + r->status().ToString());
      }
    };
    while (SecondsSince(start) < seconds) {
      while (static_cast<int>(pending.size()) < kServeWindow) {
        Pending p;
        p.item = mix.Next();
        p.submit_ns = NowNs();
        ScopedSpan span(spans, "service.submit", ++qid);
        Result<service::QueryHandle> h = service->Submit(p.item.label, p.item.query);
        if (!h.ok()) {
          checker.ObserveError("submit " + p.item.label + ": " + h.status().ToString());
          continue;
        }
        p.handle = *h;
        pending.push_back(std::move(p));
      }
      complete_oldest();
    }
    while (!pending.empty()) complete_oldest();
    window.seconds = SecondsSince(start);
    spans.set_recording(true);
    return window;
  };

  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  in.untraced = run_window(untraced_s, false);
  phases.Mark("window");
  if (args.trace) {
    // Traced half: spans around Submit and Await on the client thread.
    in.trace_window.start_ns = NowNs();
    in.traced = run_window(args.seconds / 2, true);
    in.trace_window.end_ns = NowNs();
    phases.Mark("traced window");
  }
  const service::ServiceStats after = service->Stats();
  const pool::PagePoolStats pages = service->subplan_cache().pool_stats();
  trace::TraceCollector collector;
  service->ExportTrace(&collector);
  service->Shutdown();


  // One isolated pass per mode for the simulated totals and model error; its
  // gpl results must equal the service's bit for bit (same checker key).
  Runner runner(spans, checker);
  std::vector<double> ctor_ms;
  std::unique_ptr<Engine> gpl_engine;
  for (EngineMode mode : EvalModes()) {
    ScopedSpan span(spans, "engine.ctor");
    const int64_t start = NowNs();
    EngineOptions options;
    options.mode = mode;
    options.calibration = &service->calibration();
    options.exec.host_threads = HostHardwareThreads();
    auto engine = std::make_unique<Engine>(&db, options);
    ctor_ms.push_back(MsSince(start));
    for (const Item& item : all) {
      std::optional<QueryResult> r =
          runner.Run(*engine, item, engine->options().exec, /*detailed=*/true, nullptr);
      if (r) in.sim.Add(mode, r->metrics);
    }
    if (mode == EngineMode::kGpl) gpl_engine = std::move(engine);
  }

  phases.Mark("isolated pass");
  CheckAgainstReference(db, *gpl_engine, mix.queries(), checker, spans,
                        HostHardwareThreads());
  phases.Mark("reference");

  std::printf("serve-zipf: %d workers, window %d, subplan cache %lld MiB, "
              "%zu distinct queries in the mix\n",
              ServeOptions(kServeCacheMb).num_workers, kServeWindow,
              static_cast<long long>(kServeCacheMb), mix.queries().size());
  ReportEndToEnd(report, setup_s, in.untraced, "Submit to Await return", in.sim,
                 runner.totals().segment_errors, checker);
  // The fresh Q14 labels depend on how many queries the window completed;
  // the 11 base queries do not.
  report.set_sim_fingerprint(checker.SimFingerprint(Labels(all)));
  if (args.trace) {
    in.pool_capacity_mb = static_cast<double>(kServeCacheMb);
    std::vector<Item> drawn;
    for (const auto& [label, query] : mix.queries()) drawn.push_back({label, query});
    in.pool_working_set_mb = static_cast<double>(MeasureWorkingSet(db, drawn)) / (1 << 20);
    phases.Mark("working set");
    in.generate_s = Median(generate_s);
    in.db_mb = static_cast<double>(db.byte_size()) / 1e6;
    in.engine_ctor_ms = Median(ctor_ms);
    // The service calibrates inside its constructor; time one calibration
    // of the same device on its own.
    std::vector<double> calibration_ms;
    Calibrate(sim::DeviceSpec::AmdA10(), spans, &calibration_ms);
    in.calibration_ms = calibration_ms.front();
    in.catalog_s = TimeCatalog(db, spans);
    const uint64_t hits = after.subplan_cache_hits - before.subplan_cache_hits;
    const uint64_t misses = after.subplan_cache_misses - before.subplan_cache_misses;
    in.subplan_hit_rate = Ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
    in.attaches = static_cast<double>(after.subplan_attaches - before.subplan_attaches);
    in.evictions = static_cast<double>(after.subplan_evictions - before.subplan_evictions);
    const double shared = static_cast<double>(after.scan_rows_shared - before.scan_rows_shared);
    const double scanned =
        static_cast<double>(after.scan_rows_scanned - before.scan_rows_scanned);
    in.scan_rows_shared_frac = Ratio(shared, shared + scanned);
    in.pool_bytes_mb = static_cast<double>(pages.used_pages * pages.page_bytes) / (1 << 20);
    std::vector<double> queue_ms, exec_ms;
    const double ns_per_cycle = 1e3 / collector.clock_mhz();
    for (const trace::SpanEvent& s : collector.spans()) {
      const double ms = (s.end_cycles - s.start_cycles) * ns_per_cycle * 1e-6;
      if (s.category == "service.queue") queue_ms.push_back(ms);
      if (s.category == "service.exec") exec_ms.push_back(ms);
    }
    in.queue_wait_ms_p50 = Median(queue_ms);
    in.exec_ms_p50 = Median(exec_ms);
    in.max_queue_depth = static_cast<double>(after.max_queue_depth);
    in.rejected = static_cast<double>(after.rejected);
    in.functional = ReplayFunctional(db, *gpl_engine, all, runner.tiles(), checker,
                                     spans, 1);
    in.micro = MeasureExecMicro(db, spans, 1);
    phases.Mark("probes");
    in.detail = runner.totals();
    // The service's shared tuning cache over the window, not the isolated
    // pass's cold engines.
    in.detail.tune_hits =
        static_cast<int64_t>(after.tuning_cache_hits - before.tuning_cache_hits);
    in.detail.tune_misses =
        static_cast<int64_t>(after.tuning_cache_misses - before.tuning_cache_misses);
    ReportLayers(report, in, spans);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  SpanLog spans(args.trace);
  perfbench::Checker checker;
  Report report;
  if (args.workload == "eval-sf1") {
    RunEvalSf1(args, report, spans, checker);
  } else if (args.workload == "serve-zipf") {
    RunServeZipf(args, report, spans, checker);
  } else {
    Usage(argv[0]);
  }
  if (args.trace && !args.spans_out.empty() && !spans.WriteJsonl(args.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_out.c_str());
  }
  report.Print(checker);
  return checker.failed() == 0 ? 0 : 1;
}
