#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "engine/engine.h"
#include "engine/explain_analyze.h"
#include "engine/metrics_json.h"
#include "queries/tpch_queries.h"
#include "service/query_service.h"
#include "sim/engine.h"
#include "test_util.h"
#include "trace/json.h"
#include "trace/trace.h"

namespace gpl {
namespace {

using testing_util::MediumDb;
using testing_util::SmallDb;

using sim::ChannelConfig;
using sim::DeviceSpec;
using sim::Endpoint;
using sim::HwCounters;
using sim::KernelLaunch;
using sim::PipelineSpec;
using sim::Simulator;

KernelLaunch MakeLaunch(const std::string& name, int64_t rows,
                        int64_t bytes_in, int64_t bytes_out) {
  KernelLaunch launch;
  launch.desc.name = name;
  launch.desc.compute_inst_per_row = 8.0;
  launch.desc.mem_inst_per_row = 2.0;
  launch.desc.private_bytes_per_item = 64;
  launch.rows_in = rows;
  launch.bytes_in = bytes_in;
  launch.rows_out = rows;
  launch.bytes_out = bytes_out;
  return launch;
}

PipelineSpec TwoStagePipeline(int64_t rows) {
  PipelineSpec spec;
  KernelLaunch producer = MakeLaunch("producer", rows, rows * 8, rows * 8);
  producer.output = Endpoint::kChannel;
  producer.workgroups_per_tile = 64;
  KernelLaunch consumer = MakeLaunch("consumer", rows, rows * 8, 8);
  consumer.input = Endpoint::kChannel;
  consumer.workgroups_per_tile = 64;
  spec.kernels = {producer, consumer};
  spec.channel_configs = {ChannelConfig{}};
  spec.tile_bytes = MiB(1);
  return spec;
}

// ---- JSON validator ----

TEST(JsonValidateTest, AcceptsValidDocuments) {
  for (const char* doc :
       {"{}", "[]", "null", "true", "-12.5e3", "\"s\\u00e9\\n\"",
        R"({"a":[1,2,{"b":null}],"c":"\"quoted\""})"}) {
    std::string error;
    EXPECT_TRUE(trace::ValidateJson(doc, &error)) << doc << ": " << error;
  }
}

TEST(JsonValidateTest, RejectsMalformedDocuments) {
  for (const char* doc :
       {"", "{", "[1,]", "{\"a\":}", "{'a':1}", "[1 2]", "01", "+1", "nul",
        "\"unterminated", "{\"a\":1}trailing", "[\"\\x\"]"}) {
    std::string error;
    EXPECT_FALSE(trace::ValidateJson(doc, &error)) << doc;
    EXPECT_FALSE(error.empty()) << doc;
  }
}

TEST(JsonValidateTest, EscapeRoundTripsThroughValidator) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  const std::string doc = "{\"k\":\"" + trace::JsonEscape(nasty) + "\"}";
  std::string error;
  EXPECT_TRUE(trace::ValidateJson(doc, &error)) << error;
}

TEST(JsonValidateTest, NumbersNeverProduceInfNan) {
  EXPECT_TRUE(trace::ValidateJson(trace::JsonNumber(1.0 / 0.0)));
  EXPECT_TRUE(trace::ValidateJson(trace::JsonNumber(std::nan(""))));
}

// ---- (a) span nesting / ordering on the simulated-time axis ----

TEST(TraceCollectorTest, PipelineSpansMatchSimulatedTime) {
  Simulator sim(DeviceSpec::AmdA10());
  trace::TraceCollector collector;
  PipelineSpec spec = TwoStagePipeline(500000);
  spec.trace = &collector;
  spec.label = "test segment";
  const HwCounters r = *sim.RunPipeline(spec);

  const double elapsed = r.elapsed_cycles;
  ASSERT_FALSE(collector.spans().empty());

  const int seg_track = collector.TrackId("segment");
  int segment_spans = 0;
  for (const trace::SpanEvent& span : collector.spans()) {
    // Every span lies within the simulated execution window.
    EXPECT_GE(span.start_cycles, 0.0);
    EXPECT_LE(span.end_cycles, elapsed + 1e-9);
    EXPECT_LE(span.start_cycles, span.end_cycles);
    if (span.track == seg_track) {
      ++segment_spans;
      // The segment span nests every kernel/tile span.
      EXPECT_EQ(span.start_cycles, 0.0);
      EXPECT_GE(span.end_cycles, collector.SpanCoverageCycles() - 1e-9);
    }
  }
  EXPECT_EQ(segment_spans, 1);

  // Tile spans on one kernel's track complete in tile order.
  for (const char* kernel : {"producer", "consumer"}) {
    const int track = collector.TrackId(kernel);
    double last_end = -1.0;
    int tiles = 0;
    for (const trace::SpanEvent& span : collector.spans()) {
      if (span.track != track) continue;
      ++tiles;
      EXPECT_GE(span.end_cycles, last_end);  // emitted in completion order
      last_end = span.end_cycles;
    }
    EXPECT_GT(tiles, 0) << kernel;
  }

  // The origin advanced so the next run lays out after this one.
  EXPECT_DOUBLE_EQ(collector.origin_cycles(), elapsed);
}

TEST(TraceCollectorTest, ConsecutiveRunsLayOutEndToEnd) {
  Simulator sim(DeviceSpec::AmdA10());
  trace::TraceCollector collector;
  const HwCounters first =
      *sim.RunKernelBatch(MakeLaunch("k", 100000, 800000, 0), 0, &collector);
  const size_t spans_after_first = collector.spans().size();
  const HwCounters second =
      *sim.RunKernelBatch(MakeLaunch("k", 100000, 800000, 0), 0, &collector);
  ASSERT_EQ(collector.spans().size(), spans_after_first + 1);
  const trace::SpanEvent& a = collector.spans()[spans_after_first - 1];
  const trace::SpanEvent& b = collector.spans()[spans_after_first];
  EXPECT_DOUBLE_EQ(b.start_cycles, first.elapsed_cycles);
  EXPECT_DOUBLE_EQ(b.end_cycles - b.start_cycles, second.elapsed_cycles);
  EXPECT_LE(a.end_cycles, b.start_cycles + 1e-9);
}

// ---- (b) Chrome trace JSON is well-formed ----

TEST(TraceCollectorTest, ChromeJsonIsWellFormed) {
  Simulator sim(DeviceSpec::AmdA10());
  trace::TraceCollector collector;
  PipelineSpec spec = TwoStagePipeline(500000);
  spec.trace = &collector;
  spec.label = "chars needing escapes: \"quotes\" \\ and\nnewline";
  ASSERT_TRUE(sim.RunPipeline(spec).ok());

  const std::string json = collector.ToChromeJson();
  std::string error;
  ASSERT_TRUE(trace::ValidateJson(json, &error)) << error;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(TraceCollectorTest, EmptyCollectorStillExportsValidJson) {
  trace::TraceCollector collector;
  std::string error;
  EXPECT_TRUE(trace::ValidateJson(collector.ToChromeJson(), &error)) << error;
}

// ---- (c) disabled tracing emits nothing and perturbs nothing ----

TEST(TraceCollectorTest, DisabledTracingEmitsNothingAndMatchesTracedRun) {
  Simulator sim(DeviceSpec::AmdA10());
  trace::TraceCollector unused;

  PipelineSpec spec = TwoStagePipeline(300000);
  const HwCounters plain = *sim.RunPipeline(spec);  // spec.trace == nullptr
  EXPECT_TRUE(unused.empty());

  trace::TraceCollector collector;
  spec.trace = &collector;
  const HwCounters traced = *sim.RunPipeline(spec);
  EXPECT_FALSE(collector.empty());

  // Tracing must not perturb the simulation: identical counters either way.
  EXPECT_DOUBLE_EQ(plain.elapsed_cycles, traced.elapsed_cycles);
  EXPECT_DOUBLE_EQ(plain.compute_cycles, traced.compute_cycles);
  EXPECT_DOUBLE_EQ(plain.mem_cycles, traced.mem_cycles);
  EXPECT_DOUBLE_EQ(plain.stall_cycles, traced.stall_cycles);
  EXPECT_DOUBLE_EQ(plain.cache_accesses, traced.cache_accesses);
}

// ---- (d) per-kernel breakdown agrees with QueryMetrics ----

TEST(TraceCollectorTest, KernelPhaseBreakdownSumsToElapsed) {
  trace::TraceCollector collector;
  EngineOptions options;
  options.mode = EngineMode::kGpl;
  options.exec.trace = &collector;
  Engine engine(&MediumDb(), options);
  Result<QueryResult> result = engine.Execute(queries::Q5());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QueryMetrics& m = result->metrics;

  // The accumulated phases + overhead equal the counters' total work, so the
  // scaled per-kernel breakdown sums to elapsed_ms (Figures 20/29).
  double phase_cycles = collector.overhead_cycles();
  for (const trace::KernelPhase& phase : collector.kernel_phases()) {
    phase_cycles += phase.compute_cycles + phase.mem_cycles +
                    phase.channel_cycles + phase.stall_cycles;
  }
  const double counter_cycles =
      m.counters.compute_cycles + m.counters.mem_cycles +
      m.counters.channel_cycles + m.counters.stall_cycles +
      m.counters.launch_cycles;
  EXPECT_NEAR(phase_cycles, counter_cycles, 1e-6 * counter_cycles);

  const double scale =
      phase_cycles > 0.0 ? m.elapsed_ms / phase_cycles : 0.0;
  double breakdown_ms = collector.overhead_cycles() * scale;
  for (const trace::KernelPhase& phase : collector.kernel_phases()) {
    breakdown_ms += (phase.compute_cycles + phase.mem_cycles +
                     phase.channel_cycles + phase.stall_cycles) *
                    scale;
  }
  EXPECT_NEAR(breakdown_ms, m.elapsed_ms, 1e-6 * m.elapsed_ms);

  // And the spans cover (at least) 95% of the elapsed time.
  const double elapsed_cycles = m.counters.elapsed_cycles;
  EXPECT_GE(collector.SpanCoverageCycles(), 0.95 * elapsed_cycles);

  // The report renders and mentions every pipelined kernel once.
  const std::string report = collector.BreakdownReport(m.elapsed_ms);
  EXPECT_NE(report.find("k_hash_probe"), std::string::npos);
  EXPECT_NE(report.find("(launch/scheduling)"), std::string::npos);
}

// ---- metrics JSON export ----

TEST(MetricsJsonTest, ExportIsValidJsonWithExpectedFields) {
  EngineOptions options;
  options.mode = EngineMode::kGpl;
  Engine engine(&SmallDb(), options);
  Result<QueryResult> result = engine.Execute(queries::Q14());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  MetricsJsonEntry entry;
  entry.query = "Q14";
  entry.mode = "GPL";
  entry.device = engine.options().device.name;
  entry.metrics = result->metrics;

  const std::string object = QueryMetricsToJson(entry);
  std::string error;
  ASSERT_TRUE(trace::ValidateJson(object, &error)) << error;
  for (const char* field :
       {"\"query\"", "\"elapsed_ms\"", "\"cache_hit_ratio\"", "\"dc_ms\"",
        "\"delay_ms\"", "\"stall_cycles\"", "\"channel_bytes\""}) {
    EXPECT_NE(object.find(field), std::string::npos) << field;
  }

  const std::string array = MetricsReportToJson({entry, entry});
  ASSERT_TRUE(trace::ValidateJson(array, &error)) << error;
}

// Query names are user-controlled and flow into JSON string literals; every
// export path must escape them, not just the happy-path alphanumerics.
TEST(MetricsJsonTest, HostileQueryNamesExportValidJson) {
  EngineOptions options;
  Engine engine(&SmallDb(), options);
  Result<QueryResult> result = engine.Execute(queries::Q6());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  for (const char* name :
       {"q \"quoted\"", "back\\slash", "tab\there", "new\nline",
        "ctrl\x01\x1f chars", "}{\",\":[]"}) {
    SCOPED_TRACE(name);
    MetricsJsonEntry entry;
    entry.query = name;
    entry.mode = "GPL\"\\\n";  // mode/device are strings on the same path
    entry.device = "amd\x02";
    entry.metrics = result->metrics;
    std::string error;
    EXPECT_TRUE(trace::ValidateJson(QueryMetricsToJson(entry), &error))
        << error;
    EXPECT_TRUE(trace::ValidateJson(MetricsReportToJson({entry, entry}),
                                    &error))
        << error;
  }
}

// Integer fields print exactly: formatted as doubles (%.9g), a 10-digit
// byte count would print as 1.23456789e+09 and lose its last digit.
TEST(MetricsJsonTest, TenDigitIntegersRoundTripExactly) {
  MetricsJsonEntry entry;
  entry.query = "Q9";
  entry.mode = "KBE";
  entry.metrics.materialized_bytes = 1234567891;
  const std::string field = "\"materialized_bytes\":1234567891,";
  EXPECT_NE(QueryMetricsToJson(entry).find(field), std::string::npos)
      << QueryMetricsToJson(entry);

  // EXPLAIN ANALYZE prints the per-segment counter and the metrics object.
  ExplainAnalyzeReport report;
  report.query = entry.query;
  report.metrics = entry.metrics;
  report.segments.emplace_back();
  report.segments.back().counters.bytes_materialized = 1234567891;
  const std::string json = report.ToJson();
  std::string error;
  ASSERT_TRUE(trace::ValidateJson(json, &error)) << error;
  const size_t segment_field = json.find(field);
  ASSERT_NE(segment_field, std::string::npos) << json;
  EXPECT_NE(json.find(field, segment_field + field.size()), std::string::npos)
      << json;
}

TEST(ServiceTraceTest, HostileQueryNamesExportValidJson) {
  service::ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 16;
  // A couple of retry attempts so the "(attempt k/n)" span path is also
  // exercised with hostile names.
  options.fault.kernel_abort_rate = 0.2;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 0.01;
  service::QueryService service(&SmallDb(), options);

  const std::vector<std::string> names = {
      "q \"quoted\"", "back\\slash", "tab\there", "new\nline",
      "ctrl\x01\x1f chars", "}{\",\":[]"};
  std::vector<service::QueryHandle> handles;
  for (const std::string& name : names) {
    Result<service::QueryHandle> submitted =
        service.Submit(name, queries::Q6());
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    handles.push_back(submitted.take());
  }
  // One rejected submission so the admission-instant path sees a hostile
  // name too.
  service.Pause();
  for (size_t i = 0; i < options.queue_capacity + names.size() + 1; ++i) {
    Result<service::QueryHandle> extra =
        service.Submit("overflow \"\\\n", queries::Q6());
    if (!extra.ok()) break;
    handles.push_back(extra.take());
  }
  service.Resume();
  for (service::QueryHandle& handle : handles) handle.Await();
  service.Shutdown();

  trace::TraceCollector collector;
  service.ExportTrace(&collector);
  ASSERT_FALSE(collector.spans().empty());
  const std::string json = collector.ToChromeJson();
  std::string error;
  EXPECT_TRUE(trace::ValidateJson(json, &error)) << error;
  // The escaped form of a hostile name survives into the document.
  EXPECT_NE(json.find(trace::JsonEscape("q \"quoted\"")), std::string::npos);
  EXPECT_NE(json.find(trace::JsonEscape("new\nline")), std::string::npos);
}

// ---- the trace's bytes are pinned ----

uint64_t Fnv1a(const std::string& s) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) hash = (hash ^ c) * 0x100000001b3ULL;
  return hash;
}

// A kernel launch, a 3-kernel pipeline (two kernels share a name, the slow
// middle kernel blocks its producer and starves its consumer) and a
// sequential-tiles run, all into one collector. Any change to a span, an
// instant, a counter sample, their order or a kernel phase changes the digest.
TEST(TraceCollectorTest, TraceBytesArePinned) {
  Simulator sim(DeviceSpec::AmdA10());
  trace::TraceCollector collector;
  double elapsed_cycles =
      sim.RunKernelBatch(MakeLaunch("k_filter", 200000, 1600000, 800000), 0,
                         &collector)
          ->elapsed_cycles;

  PipelineSpec spec;
  KernelLaunch scan = MakeLaunch("k_probe", 1000000, 8000000, 8000000);
  scan.output = Endpoint::kChannel;
  scan.workgroups_per_tile = 64;
  KernelLaunch slow = MakeLaunch("k_map", 1000000, 8000000, 4000000);
  slow.desc.compute_inst_per_row = 64.0;
  slow.input = Endpoint::kChannel;
  slow.output = Endpoint::kChannel;
  slow.workgroups_per_tile = 4;
  KernelLaunch probe = MakeLaunch("k_probe", 1000000, 4000000, 800);
  probe.input = Endpoint::kChannel;
  probe.workgroups_per_tile = 64;
  spec.kernels = {scan, slow, probe};
  spec.channel_configs = {ChannelConfig{}, ChannelConfig{}};
  spec.tile_bytes = MiB(2);
  spec.extra_resident_bytes = MiB(1);
  spec.trace = &collector;
  spec.label = "pinned pipeline";
  elapsed_cycles += sim.RunPipeline(spec)->elapsed_cycles;

  PipelineSpec tiles = TwoStagePipeline(300000);
  tiles.trace = &collector;
  elapsed_cycles += sim.RunSequentialTiles(tiles)->elapsed_cycles;

  bool blocked = false;
  bool starved = false;
  for (const trace::InstantEvent& instant : collector.instants()) {
    blocked |= instant.name == "channel-block (output full)";
    starved |= instant.name == "channel-starve (input empty)";
  }
  EXPECT_TRUE(blocked);
  EXPECT_TRUE(starved);
  EXPECT_EQ(collector.tracks().count("k_probe#2"), 1u);

  const std::string bytes =
      collector.ToChromeJson() +
      collector.BreakdownReport(elapsed_cycles / collector.clock_mhz() / 1e3);
  EXPECT_EQ(Fnv1a(bytes), 0xcf570885c34ba69fULL) << std::hex << Fnv1a(bytes);
}

// ---- KBE path also traces ----

TEST(TraceCollectorTest, KbeExecutionEmitsKernelSpans) {
  trace::TraceCollector collector;
  EngineOptions options;
  options.mode = EngineMode::kKbe;
  options.exec.trace = &collector;
  Engine engine(&SmallDb(), options);
  Result<QueryResult> result = engine.Execute(queries::Q14());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(collector.spans().empty());
  // KBE runs kernels back-to-back: spans must not overlap.
  double last_end = 0.0;
  for (const trace::SpanEvent& span : collector.spans()) {
    EXPECT_GE(span.start_cycles, last_end - 1e-9);
    last_end = span.end_cycles;
  }
  EXPECT_NEAR(last_end, result->metrics.counters.elapsed_cycles,
              1e-6 * last_end);
}

}  // namespace
}  // namespace gpl
