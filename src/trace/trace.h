#ifndef GPL_TRACE_TRACE_H_
#define GPL_TRACE_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace gpl {
namespace trace {

/// One key/value annotation attached to a span ("args" in the Chrome trace
/// format). Values are pre-rendered JSON fragments (use trace::JsonNumber /
/// quoted JsonEscape output).
using Arg = std::pair<std::string, std::string>;

/// A completed execution interval on a track (Chrome "X" event). Times are
/// absolute simulated cycles (the collector applies its origin on Add).
struct SpanEvent {
  int track = 0;
  std::string name;
  std::string category;
  double start_cycles = 0.0;
  double end_cycles = 0.0;
  std::vector<Arg> args;
};

/// A point event on a track (Chrome "i" event) — channel starve/block
/// transitions, tile boundaries, etc.
struct InstantEvent {
  int track = 0;
  std::string name;
  std::string category;
  double t_cycles = 0.0;
};

/// One sample of a named time series (Chrome "C" event): channel occupancy,
/// resident work-groups, cache hit ratio.
struct CounterSample {
  std::string name;
  double t_cycles = 0.0;
  double value = 0.0;
};

/// Accumulated per-kernel cycle breakdown (the per-kernel analogue of the
/// paper's Figures 20/29 cost components).
struct KernelPhase {
  std::string name;
  double compute_cycles = 0.0;
  double mem_cycles = 0.0;
  double channel_cycles = 0.0;  ///< DC cost
  double stall_cycles = 0.0;    ///< pipeline delay
};

/// Collects spans, instants and counter samples from the simulator and the
/// engines on a single simulated-time axis, and exports them as Chrome
/// trace-event JSON (chrome://tracing, Perfetto).
///
/// Tracing is opt-in: RunKernelBatch, RunSequentialTiles and the sharded
/// executor null-check a `TraceCollector*`; RunPipeline reports to a
/// sim::PipelineObserver that records here only when PipelineSpec::trace is
/// set. The collector is not thread-safe (the simulator is single-threaded).
///
/// Consecutive simulator runs each start at relative cycle 0; the simulator
/// advances the collector's origin by the elapsed cycles after each run, so
/// successive kernel launches / segments lay out end-to-end on the exported
/// timeline, matching the accumulated `HwCounters::elapsed_cycles`.
class TraceCollector {
 public:
  TraceCollector() = default;

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Stable track id for a display name (one Chrome "thread" per track).
  int TrackId(const std::string& name);

  // ---- Emission (times are relative to the current origin) ----
  void AddSpan(int track, std::string name, std::string category,
               double start_cycles, double end_cycles,
               std::vector<Arg> args = {});
  void AddInstant(int track, std::string name, std::string category,
                  double t_cycles);
  void AddCounter(const std::string& name, double t_cycles, double value);
  /// Accumulates a kernel's cycle breakdown (merged by kernel name).
  void AddKernelPhase(const std::string& name, double compute, double mem,
                      double channel, double stall);
  /// Accumulates launch/scheduling overhead cycles (the "other" component).
  void AddOverhead(double cycles) { overhead_cycles_ += cycles; }

  // ---- Time base ----
  double origin_cycles() const { return origin_cycles_; }
  void AdvanceOrigin(double elapsed_cycles) { origin_cycles_ += elapsed_cycles; }
  /// Device clock, used to convert cycles to trace microseconds
  /// (cycles / MHz = us). Defaults to 1000 (1 cycle = 1 ns) until set.
  void set_clock_mhz(double mhz) { clock_mhz_ = mhz > 0.0 ? mhz : clock_mhz_; }
  double clock_mhz() const { return clock_mhz_; }

  // ---- Introspection (tests, reports) ----
  const std::vector<SpanEvent>& spans() const { return spans_; }
  const std::vector<InstantEvent>& instants() const { return instants_; }
  const std::vector<CounterSample>& counters() const { return counters_; }
  const std::vector<KernelPhase>& kernel_phases() const { return phases_; }
  double overhead_cycles() const { return overhead_cycles_; }
  const std::map<std::string, int>& tracks() const { return track_ids_; }
  bool empty() const {
    return spans_.empty() && instants_.empty() && counters_.empty() &&
           phases_.empty() && overhead_cycles_ == 0.0;
  }

  /// Union length (in cycles) of all spans on every track — how much of the
  /// timeline the trace explains. Overlapping spans count once.
  double SpanCoverageCycles() const;

  // ---- Export ----
  /// Chrome trace-event JSON: {"traceEvents":[...],"displayTimeUnit":"ms"}.
  std::string ToChromeJson() const;
  Status WriteChromeJson(const std::string& path) const;

  /// Human-readable per-kernel phase breakdown. Components are scaled so
  /// that all kernels' phases plus the overhead row sum to `elapsed_ms`
  /// (the per-kernel analogue of QueryMetrics::Finalize / Figures 20, 29).
  std::string BreakdownReport(double elapsed_ms) const;

 private:
  std::map<std::string, int> track_ids_;
  std::vector<std::string> track_names_;  ///< index = track id
  std::vector<SpanEvent> spans_;
  std::vector<InstantEvent> instants_;
  std::vector<CounterSample> counters_;
  std::vector<KernelPhase> phases_;
  double overhead_cycles_ = 0.0;
  double origin_cycles_ = 0.0;
  double clock_mhz_ = 1000.0;
};

}  // namespace trace
}  // namespace gpl

#endif  // GPL_TRACE_TRACE_H_
