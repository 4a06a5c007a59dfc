// Fault injection and recovery: the injector's determinism contract, fault
// propagation through the simulator and engines, graceful degradation of
// pipelined segments, and the QueryService chaos sweep — under injected
// faults every admitted query still gets exactly one outcome, and whatever
// completes is bit-identical to a fault-free run.
#include "sim/fault.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "engine/engine.h"
#include "queries/tpch_queries.h"
#include "service/query_service.h"
#include "sim/engine.h"
#include "test_util.h"

namespace gpl {
namespace {

using testing_util::SmallDb;

// ---- FaultInjector unit tests ----

sim::KernelLaunch MakeLaunch(const std::string& name, int64_t rows) {
  sim::KernelLaunch launch;
  launch.desc.name = name;
  launch.desc.compute_inst_per_row = 8.0;
  launch.desc.mem_inst_per_row = 2.0;
  launch.desc.private_bytes_per_item = 64;
  launch.rows_in = rows;
  launch.bytes_in = rows * 8;
  launch.rows_out = rows;
  launch.bytes_out = rows * 4;
  return launch;
}

sim::PipelineSpec TwoStagePipeline(int64_t rows) {
  sim::PipelineSpec spec;
  sim::KernelLaunch producer = MakeLaunch("producer", rows);
  producer.output = sim::Endpoint::kChannel;
  producer.workgroups_per_tile = 64;
  sim::KernelLaunch consumer = MakeLaunch("consumer", rows);
  consumer.input = sim::Endpoint::kChannel;
  consumer.bytes_in = producer.bytes_out;
  consumer.rows_out = 1;
  consumer.bytes_out = 8;
  consumer.workgroups_per_tile = 64;
  spec.kernels = {producer, consumer};
  spec.channel_configs = {sim::ChannelConfig{}};
  spec.tile_bytes = MiB(1);
  return spec;
}

TEST(FaultInjectorTest, DefaultConfigNeverFires) {
  sim::FaultConfig config;
  EXPECT_FALSE(config.enabled());
  sim::FaultInjector injector(config);
  double penalty = -1.0;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(injector.OnKernelLaunch("k", &penalty).ok());
    EXPECT_EQ(penalty, 0.0);
    EXPECT_TRUE(injector.OnChannelAlloc(sim::ChannelConfig{}).ok());
  }
  EXPECT_EQ(injector.stats().total_faults(), 0);
  EXPECT_EQ(injector.stats().kernel_launches, 1000);
  EXPECT_EQ(injector.stats().channel_reservations, 1000);
}

TEST(FaultInjectorTest, ScheduledKernelAbortFiresAtExactSite) {
  sim::FaultConfig config;
  config.scheduled.push_back(
      {sim::FaultKind::kTransientKernelAbort, /*site_index=*/2});
  ASSERT_TRUE(config.enabled());
  sim::FaultInjector injector(config);
  double penalty = 0.0;
  EXPECT_TRUE(injector.OnKernelLaunch("k0", &penalty).ok());
  EXPECT_TRUE(injector.OnKernelLaunch("k1", &penalty).ok());
  const Status fault = injector.OnKernelLaunch("k2", &penalty);
  ASSERT_FALSE(fault.ok());
  EXPECT_EQ(fault.code(), StatusCode::kTransientDeviceError);
  EXPECT_NE(fault.message().find("k2"), std::string::npos);
  EXPECT_TRUE(injector.OnKernelLaunch("k3", &penalty).ok());
  EXPECT_EQ(injector.stats().kernel_aborts, 1);
}

TEST(FaultInjectorTest, ScheduledChannelFailureFiresAtExactSite) {
  sim::FaultConfig config;
  config.scheduled.push_back(
      {sim::FaultKind::kChannelAllocFailed, /*site_index=*/1});
  sim::FaultInjector injector(config);
  EXPECT_TRUE(injector.OnChannelAlloc(sim::ChannelConfig{}).ok());
  const Status fault = injector.OnChannelAlloc(sim::ChannelConfig{});
  ASSERT_FALSE(fault.ok());
  EXPECT_EQ(fault.code(), StatusCode::kChannelAllocFailed);
  EXPECT_EQ(injector.stats().channel_alloc_failures, 1);
}

TEST(FaultInjectorTest, ThrottleSlowsWithoutFailing) {
  sim::FaultConfig config;
  config.throttle_penalty = 0.75;
  config.scheduled.push_back({sim::FaultKind::kMemoryThrottle, 0});
  sim::FaultInjector injector(config);
  double penalty = 0.0;
  EXPECT_TRUE(injector.OnKernelLaunch("k", &penalty).ok());
  EXPECT_DOUBLE_EQ(penalty, 0.75);
  EXPECT_TRUE(injector.OnKernelLaunch("k", &penalty).ok());
  EXPECT_DOUBLE_EQ(penalty, 0.0);  // only site 0 throttles
  EXPECT_EQ(injector.stats().throttles, 1);
}

TEST(FaultInjectorTest, SameSeedSameDecisions) {
  sim::FaultConfig config;
  config.seed = 123;
  config.kernel_abort_rate = 0.05;
  config.device_reset_rate = 0.01;
  config.throttle_rate = 0.1;
  config.channel_alloc_fail_rate = 0.05;

  sim::FaultInjector a(config);
  sim::FaultInjector b(config);
  double pa = 0.0, pb = 0.0;
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.OnKernelLaunch("k", &pa).code(),
              b.OnKernelLaunch("k", &pb).code());
    EXPECT_EQ(pa, pb);
    EXPECT_EQ(a.OnChannelAlloc(sim::ChannelConfig{}).code(),
              b.OnChannelAlloc(sim::ChannelConfig{}).code());
  }
  EXPECT_EQ(a.stats().kernel_aborts, b.stats().kernel_aborts);
  EXPECT_EQ(a.stats().device_resets, b.stats().device_resets);
  EXPECT_EQ(a.stats().throttles, b.stats().throttles);
  EXPECT_EQ(a.stats().channel_alloc_failures,
            b.stats().channel_alloc_failures);
  // At these rates over 2000 sites, something certainly fired.
  EXPECT_GT(a.stats().total_faults(), 0);
}

TEST(FaultInjectorTest, ResetReplaysTheSameStream) {
  sim::FaultConfig config;
  config.kernel_abort_rate = 0.1;
  sim::FaultInjector injector(config);
  std::vector<bool> first;
  double penalty = 0.0;
  for (int i = 0; i < 500; ++i) {
    first.push_back(injector.OnKernelLaunch("k", &penalty).ok());
  }
  injector.Reset();
  EXPECT_EQ(injector.stats().kernel_launches, 0);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(injector.OnKernelLaunch("k", &penalty).ok(), first[i]) << i;
  }
}

TEST(FaultInjectorTest, AttemptSeedSeparatesQueriesAndAttempts) {
  const uint64_t base = 42;
  // Distinct along each axis; equal only for equal inputs.
  EXPECT_EQ(sim::FaultInjector::AttemptSeed(base, 3, 1),
            sim::FaultInjector::AttemptSeed(base, 3, 1));
  EXPECT_NE(sim::FaultInjector::AttemptSeed(base, 3, 1),
            sim::FaultInjector::AttemptSeed(base, 3, 2));
  EXPECT_NE(sim::FaultInjector::AttemptSeed(base, 3, 1),
            sim::FaultInjector::AttemptSeed(base, 4, 1));
  EXPECT_NE(sim::FaultInjector::AttemptSeed(base, 3, 1),
            sim::FaultInjector::AttemptSeed(base + 1, 3, 1));
}

// ---- Simulator-level propagation ----

TEST(SimulatorFaultTest, KernelAbortFailsTheBatch) {
  sim::Simulator sim(sim::DeviceSpec::AmdA10());
  sim::FaultConfig config;
  config.scheduled.push_back({sim::FaultKind::kTransientKernelAbort, 0});
  sim::FaultInjector injector(config);
  Result<sim::HwCounters> result =
      sim.RunKernelBatch(MakeLaunch("k", 100000), 0, nullptr, &injector);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTransientDeviceError);
}

TEST(SimulatorFaultTest, ThrottledBatchIsSlowerAndStalls) {
  sim::Simulator sim(sim::DeviceSpec::AmdA10());
  const sim::KernelLaunch launch = MakeLaunch("k", 1000000);
  const sim::HwCounters clean = *sim.RunKernelBatch(launch, 0);

  sim::FaultConfig config;
  config.throttle_penalty = 0.5;
  config.scheduled.push_back({sim::FaultKind::kMemoryThrottle, 0});
  sim::FaultInjector injector(config);
  const sim::HwCounters throttled =
      *sim.RunKernelBatch(launch, 0, nullptr, &injector);
  EXPECT_GT(throttled.elapsed_cycles, clean.elapsed_cycles);
  EXPECT_GT(throttled.stall_cycles, clean.stall_cycles);
}

TEST(SimulatorFaultTest, ChannelFailureFailsThePipeline) {
  sim::Simulator sim(sim::DeviceSpec::AmdA10());
  sim::PipelineSpec spec = TwoStagePipeline(500000);
  sim::FaultConfig config;
  config.scheduled.push_back({sim::FaultKind::kChannelAllocFailed, 0});
  sim::FaultInjector injector(config);
  spec.fault = &injector;
  Result<sim::HwCounters> result = sim.RunPipeline(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kChannelAllocFailed);

  // The same spec succeeds kernel-at-a-time: sequential tiling reserves no
  // channels, which is exactly why the executor degrades onto it.
  spec.fault = nullptr;
  EXPECT_TRUE(sim.RunSequentialTiles(spec).ok());
}

TEST(SimulatorFaultTest, InertInjectorDoesNotPerturbTiming) {
  sim::Simulator sim(sim::DeviceSpec::AmdA10());
  sim::PipelineSpec spec = TwoStagePipeline(500000);
  const sim::HwCounters plain = *sim.RunPipeline(spec);

  // An injector whose faults never fire must be timing-invisible.
  sim::FaultConfig config;
  config.scheduled.push_back(
      {sim::FaultKind::kTransientKernelAbort, /*site_index=*/1 << 20});
  sim::FaultInjector injector(config);
  spec.fault = &injector;
  const sim::HwCounters guarded = *sim.RunPipeline(spec);
  EXPECT_EQ(plain.elapsed_cycles, guarded.elapsed_cycles);
  EXPECT_EQ(plain.stall_cycles, guarded.stall_cycles);
  EXPECT_EQ(plain.channel_cycles, guarded.channel_cycles);
  EXPECT_GT(injector.stats().kernel_launches, 0);
}

// ---- Engine-level: degradation and propagation ----

TEST(EngineFaultTest, KbeAbortPropagates) {
  const tpch::Database& db = SmallDb();
  EngineOptions options;
  options.mode = EngineMode::kKbe;
  Engine engine(&db, options);

  sim::FaultConfig config;
  config.scheduled.push_back({sim::FaultKind::kTransientKernelAbort, 0});
  sim::FaultInjector injector(config);
  ExecOptions exec;
  exec.fault = &injector;
  Result<QueryResult> result = engine.Execute(queries::Q6(), exec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTransientDeviceError);
  EXPECT_EQ(injector.stats().kernel_aborts, 1);
}

TEST(EngineFaultTest, GplAbortPropagates) {
  const tpch::Database& db = SmallDb();
  Engine engine(&db, EngineOptions{});

  sim::FaultConfig config;
  config.scheduled.push_back({sim::FaultKind::kTransientKernelAbort, 0});
  sim::FaultInjector injector(config);
  ExecOptions exec;
  exec.fault = &injector;
  Result<QueryResult> result = engine.Execute(queries::Q14(), exec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTransientDeviceError);
}

TEST(EngineFaultTest, ChannelFailureDegradesToKernelAtATime) {
  const tpch::Database& db = SmallDb();
  Engine engine(&db, EngineOptions{});
  const LogicalQuery query = queries::Q14();

  Result<QueryResult> baseline = engine.Execute(query);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->metrics.degraded_segments, 0);

  // Every channel reservation fails: all pipelined segments re-execute
  // kernel-at-a-time.
  sim::FaultConfig config;
  config.channel_alloc_fail_rate = 1.0;
  sim::FaultInjector injector(config);
  ExecOptions exec;
  exec.fault = &injector;
  Result<QueryResult> degraded = engine.Execute(query, exec);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_GT(degraded->metrics.degraded_segments, 0);

  // The functional result is untouched by degradation; only timing moved.
  ASSERT_EQ(baseline->table.num_rows(), degraded->table.num_rows());
  ASSERT_EQ(baseline->table.num_columns(), degraded->table.num_columns());
  for (int64_t c = 0; c < baseline->table.num_columns(); ++c) {
    const Column& e = baseline->table.ColumnAt(c);
    const Column& a = degraded->table.ColumnAt(c);
    EXPECT_TRUE(e.data32() == a.data32());
    EXPECT_TRUE(e.data64() == a.data64());
    EXPECT_TRUE(e.dataf() == a.dataf());
  }
  EXPECT_NE(baseline->metrics.elapsed_ms, degraded->metrics.elapsed_ms);
}

// ---- Service-level chaos sweep ----

struct ChaosOutcome {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
};

struct ChaosRun {
  std::vector<ChaosOutcome> outcomes;  // per submitted query, in order
  service::ServiceStats stats;
  std::vector<Table> tables;  // empty Table for non-completed queries
};

ChaosRun RunChaos(const tpch::Database& db, double fault_rate, uint64_t seed,
                  int max_attempts) {
  service::ServiceOptions options;
  options.num_workers = 3;
  options.queue_capacity = 64;
  options.engine.exec.host_threads = 1;
  options.fault.seed = seed;
  options.fault.kernel_abort_rate = fault_rate;
  options.fault.channel_alloc_fail_rate = fault_rate;
  options.retry.max_attempts = max_attempts;
  options.retry.initial_backoff_ms = 0.01;  // keep the test fast
  options.retry.max_backoff_ms = 0.1;

  service::QueryService service(&db, options);
  std::vector<service::QueryHandle> handles;
  for (int round = 0; round < 2; ++round) {
    for (auto& [name, query] : queries::EvaluationSuite()) {
      Result<service::QueryHandle> submitted =
          service.Submit(name + "#" + std::to_string(round), query);
      EXPECT_TRUE(submitted.ok()) << submitted.status().ToString();
      handles.push_back(submitted.take());
    }
  }

  ChaosRun run;
  for (service::QueryHandle& handle : handles) {
    const Result<QueryResult>& result = handle.Await();
    ChaosOutcome outcome;
    outcome.ok = result.ok();
    outcome.code = result.ok() ? StatusCode::kOk : result.status().code();
    run.outcomes.push_back(outcome);
    run.tables.push_back(result.ok() ? result->table : Table());
  }
  service.Shutdown();
  run.stats = service.Stats();
  return run;
}

TEST(ServiceChaosTest, EveryQueryGetsExactlyOneOutcomeAtAnyFaultRate) {
  const tpch::Database& db = SmallDb();

  // Fault-free ground truth, serial.
  Engine engine(&db, EngineOptions{});
  std::vector<Table> truth;
  std::vector<std::string> names;
  for (int round = 0; round < 2; ++round) {
    for (auto& [name, query] : queries::EvaluationSuite()) {
      Result<QueryResult> result = engine.Execute(query);
      ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
      truth.push_back(result->table);
      names.push_back(name);
    }
  }

  for (double rate : {0.0, 0.01, 0.1}) {
    SCOPED_TRACE("fault_rate=" + std::to_string(rate));
    const ChaosRun run = RunChaos(db, rate, /*seed=*/20160626,
                                  /*max_attempts=*/4);
    ASSERT_EQ(run.outcomes.size(), truth.size());

    // Stats are consistent: every admitted query resolved exactly once.
    EXPECT_EQ(run.stats.admitted, truth.size());
    EXPECT_EQ(run.stats.completed + run.stats.timed_out +
                  run.stats.cancelled + run.stats.failed,
              run.stats.admitted);
    EXPECT_EQ(run.stats.queue_depth, 0u);
    EXPECT_EQ(run.stats.running, 0u);

    uint64_t completed = 0;
    for (size_t i = 0; i < run.outcomes.size(); ++i) {
      SCOPED_TRACE(names[i]);
      if (run.outcomes[i].ok) {
        ++completed;
        // Completed-under-chaos results are bit-identical to fault-free
        // truth: faults abort or degrade executions, never corrupt them.
        const Table& e = truth[i];
        const Table& a = run.tables[i];
        ASSERT_EQ(e.num_rows(), a.num_rows());
        ASSERT_EQ(e.num_columns(), a.num_columns());
        for (int64_t c = 0; c < e.num_columns(); ++c) {
          EXPECT_TRUE(e.ColumnAt(c).data32() == a.ColumnAt(c).data32());
          EXPECT_TRUE(e.ColumnAt(c).data64() == a.ColumnAt(c).data64());
          EXPECT_TRUE(e.ColumnAt(c).dataf() == a.ColumnAt(c).dataf());
        }
      } else {
        // The only error a fully-retried transient fault leaves behind.
        EXPECT_EQ(run.outcomes[i].code, StatusCode::kTransientDeviceError);
      }
    }
    EXPECT_EQ(completed, run.stats.completed);
    if (rate == 0.0) {
      EXPECT_EQ(run.stats.completed, run.stats.admitted);
      EXPECT_EQ(run.stats.retries, 0u);
      EXPECT_EQ(run.stats.gave_up, 0u);
      EXPECT_EQ(run.stats.degraded, 0u);
    } else {
      // At nonzero rates on this workload something fired (each run is
      // hundreds of fault sites; with the fixed seed this is deterministic).
      EXPECT_GT(run.stats.retries + run.stats.degraded + run.stats.gave_up,
                0u);
    }
  }
}

TEST(ServiceChaosTest, SameSeedReproducesOutcomesAcrossRuns) {
  const tpch::Database& db = SmallDb();
  const ChaosRun a = RunChaos(db, 0.1, /*seed=*/7, /*max_attempts=*/3);
  const ChaosRun b = RunChaos(db, 0.1, /*seed=*/7, /*max_attempts=*/3);

  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].ok, b.outcomes[i].ok) << i;
    EXPECT_EQ(a.outcomes[i].code, b.outcomes[i].code) << i;
  }
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.failed, b.stats.failed);
  EXPECT_EQ(a.stats.retries, b.stats.retries);
  EXPECT_EQ(a.stats.degraded, b.stats.degraded);
  EXPECT_EQ(a.stats.gave_up, b.stats.gave_up);
  EXPECT_DOUBLE_EQ(a.stats.total_simulated_ms, b.stats.total_simulated_ms);
}

TEST(ServiceChaosTest, RetriesRecoverMostTransientFaults) {
  const tpch::Database& db = SmallDb();
  const ChaosRun no_retry = RunChaos(db, 0.02, /*seed=*/11, /*max_attempts=*/1);
  const ChaosRun retry = RunChaos(db, 0.02, /*seed=*/11, /*max_attempts=*/5);
  // Retries can only help: with per-attempt independent fault streams, a
  // retried query succeeds unless all 5 attempts fault.
  EXPECT_GE(retry.stats.completed, no_retry.stats.completed);
  EXPECT_EQ(retry.stats.admitted, retry.stats.completed + retry.stats.failed);
}

}  // namespace
}  // namespace gpl
