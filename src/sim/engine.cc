#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>

#include "common/logging.h"
#include "common/math_util.h"
#include "sim/occupancy.h"
#include "trace/json.h"
#include "trace/trace.h"

namespace gpl {
namespace sim {

namespace {
// Rows a KBE work-group covers: four wavefront iterations, the granularity
// conventional GPU query operators launch with.
constexpr int kKbeWavefrontsPerWg = 4;
// Average column width assumed for streaming spatial locality.
constexpr int kAvgAccessWidth = 8;

std::string TraceInt(int64_t v) { return std::to_string(v); }

/// What one work-group processes: its rows and its bytes per endpoint.
struct WgShape {
  double rows = 0.0;
  double global_in = 0.0, global_out = 0.0;
  double chan_in = 0.0, chan_out = 0.0;
};

/// Cycles one work-group occupies each unit for, and its cache traffic.
struct WgWork {
  double alu = 0.0;
  double mem = 0.0;
  double chan = 0.0;
  double cache_hits = 0.0;
  double cache_accesses = 0.0;
};

/// Cost of one work-group of `desc` with shape `wg`. `hide_wavefronts` is
/// the latency-hiding depth (resident wavefronts per CU).
WgWork ComputeWgWork(const DeviceSpec& device, const CacheModel& cache,
                     const KernelTimingDesc& desc, const WgShape& wg,
                     const ChannelState* in_chan, const ChannelState* out_chan,
                     double chan_residency, double input_resident,
                     int hide_wavefronts, int64_t competing_bytes) {
  WgWork w;
  if (wg.rows <= 0.0) return w;
  const double wf = static_cast<double>(device.wavefront_size);
  const double iters = std::ceil(wg.rows / wf);

  // Vector ALU work: one instruction issue covers a whole wavefront.
  w.alu = iters * desc.compute_inst_per_row * device.cycles_per_instr;

  // Memory work: coalesced transactions with pattern-dependent hit ratio.
  const double accesses = iters * desc.mem_inst_per_row;
  double stream_hit = cache.StreamingHitRatio(kAvgAccessWidth);
  stream_hit = input_resident + (1.0 - input_resident) * stream_hit;
  double hit = stream_hit;
  if (desc.random_access_fraction > 0.0) {
    const double random_hit =
        cache.RandomHitRatio(desc.random_working_set_bytes, competing_bytes);
    hit = (1.0 - desc.random_access_fraction) * stream_hit +
          desc.random_access_fraction * random_hit;
  }
  const double latency = hit * device.cache_latency +
                         (1.0 - hit) * device.global_mem_latency;
  const double hide = static_cast<double>(
      std::clamp(hide_wavefronts, 1, device.latency_hiding_wavefronts));
  const double latency_cycles = accesses * latency / hide;

  // Bandwidth floor for the global traffic this work-group generates.
  const double global_bw_per_cu =
      device.global_bw_bytes_per_cycle / device.num_cus;
  const double cache_bw_per_cu = device.cache_bw_bytes_per_cycle / device.num_cus;
  const double resident_in = wg.global_in * input_resident;
  const double dram_bytes = wg.global_in - resident_in + wg.global_out;
  const double bw_cycles =
      dram_bytes / global_bw_per_cu + resident_in / cache_bw_per_cu;

  w.mem = std::max(latency_cycles, bw_cycles);
  w.cache_accesses = accesses;
  w.cache_hits = hit * accesses;

  // Channel work (DC cost).
  if (in_chan != nullptr && wg.chan_in > 0.0) {
    w.chan += in_chan->AcquireCost(wg.chan_in, chan_residency);
  }
  if (out_chan != nullptr && wg.chan_out > 0.0) {
    w.chan += out_chan->CommitCost(wg.chan_out, chan_residency);
  }
  if (wg.chan_in + wg.chan_out > 0.0) {
    const double chan_accesses = (wg.chan_in + wg.chan_out) / cache.line_bytes();
    w.cache_accesses += chan_accesses;
    w.cache_hits += chan_residency * chan_accesses;
  }
  return w;
}

/// kInvalidArgument unless `spec` has kernels and a positive tile size and,
/// when `needs_channels`, a channel config per kernel gap.
Status CheckSpec(const PipelineSpec& spec, bool needs_channels) {
  if (spec.kernels.empty()) return Status::InvalidArgument("no kernels");
  if (spec.tile_bytes <= 0) return Status::InvalidArgument("tile_bytes <= 0");
  if (needs_channels && spec.channel_configs.size() + 1 < spec.kernels.size()) {
    return Status::InvalidArgument("need a channel config per kernel gap");
  }
  return Status::OK();
}

int64_t NumTiles(const PipelineSpec& spec) {
  const int64_t input_bytes = std::max<int64_t>(spec.kernels[0].bytes_in, 1);
  return std::max<int64_t>(1, CeilDiv(input_bytes, spec.tile_bytes));
}

/// Records one launch of kernel `name` over [start, end): its span (with
/// `args`, then its cache hit ratio), a hit-ratio sample at its end, and the
/// compute, memory and launch cycles of `work`.
void TraceLaunch(trace::TraceCollector* trace, const std::string& name,
                 double start, double end, std::vector<trace::Arg> args,
                 double hit_ratio, const HwCounters& work) {
  args.emplace_back("cache_hit_ratio", trace::JsonNumber(hit_ratio));
  trace->AddSpan(trace->TrackId(name), name, "kernel", start, end,
                 std::move(args));
  trace->AddCounter("cache_hit_ratio:" + name, end, hit_ratio);
  trace->AddKernelPhase(name, work.compute_cycles, work.mem_cycles, 0.0, 0.0);
  trace->AddOverhead(work.launch_cycles);
}

/// Records a segment's span over [0, elapsed) on the "segment" track, with
/// its tiling and kernel count ahead of `args`, then moves the collector's
/// origin past it.
void TraceSegment(trace::TraceCollector* trace, const PipelineSpec& spec,
                  const char* default_label, int64_t num_tiles, double elapsed,
                  std::vector<trace::Arg> args) {
  args.insert(args.begin(),
              {{"tiles", TraceInt(num_tiles)},
               {"tile_bytes", TraceInt(spec.tile_bytes)},
               {"kernels", TraceInt(static_cast<int64_t>(spec.kernels.size()))}});
  trace->AddSpan(trace->TrackId("segment"),
                 spec.label.empty() ? default_label : spec.label, "segment",
                 0.0, elapsed, std::move(args));
  trace->AdvanceOrigin(elapsed);
}

// ---- RunPipeline's state and steps ----

/// A work-group completion.
struct Event {
  double time;
  int kernel;
  int cu;
  bool operator>(const Event& other) const { return time > other.time; }
};

struct Cu {
  double alu = 0.0;  ///< cycle its vector ALU is next free
  double mem = 0.0;  ///< cycle its memory pipeline is next free
  int resident = 0;  ///< resident work-groups
  int kernels = 0;   ///< distinct kernels with a resident work-group
};

/// One kernel of the pipeline: uniform work-group geometry, cost, progress.
struct KernelSim {
  int64_t wg_total = 0;
  int64_t dispatched = 0;
  int64_t completed = 0;
  WgShape wg;
  WgWork work;
  ChannelState* in_channel = nullptr;   ///< the channel from kernel k-1
  ChannelState* out_channel = nullptr;  ///< the channel to kernel k+1
  double throttle = 0.0;  ///< injected memory-pipeline slowdown
  int slots = 1;          ///< work-groups resident at once (occupancy)
  int per_cu_cap = 1;
  int resident = 0;
  std::vector<int> on_cu;  ///< resident work-groups per CU
  Stall stall = Stall::kNone;
  double stall_cycles = 0.0;
};

/// One RunPipeline run, a discrete-event simulation at work-group
/// granularity. RunPipeline takes the steps in the order they appear here,
/// alternating CompleteNext and Dispatch until nothing is in flight.
class PipelineRun {
 public:
  PipelineRun(const DeviceSpec& device, const CacheModel& cache,
              const PipelineSpec& spec)
      : device_(device),
        cache_(cache),
        spec_(spec),
        num_tiles_(NumTiles(spec)),
        ks_(spec.kernels.size()),
        cus_(static_cast<size_t>(device.num_cus)) {
    for (KernelSim& s : ks_) s.on_cu.assign(cus_.size(), 0);
    channels_.reserve(ks_.size() - 1);  // kernels point into it
  }
  PipelineRun(const PipelineRun&) = delete;
  PipelineRun& operator=(const PipelineRun&) = delete;

  // ---- Fault sites: every kernel launch, then every channel reservation.
  // All faults fire before any simulated work, so a failed run has nothing
  // to clean up (simulation state is local to the run).
  Status LaunchKernels(obs::Counter* throttle_events) {
    if (spec_.fault == nullptr) return Status::OK();
    for (int k = 0; k < num_kernels(); ++k) {
      GPL_RETURN_NOT_OK(
          spec_.fault->OnKernelLaunch(launch(k).desc.name, &sim(k).throttle));
      if (sim(k).throttle > 0.0) obs::Inc(throttle_events);
    }
    return Status::OK();
  }

  Status ReserveChannels(obs::Counter* channel_reservations) {
    for (int g = 0; g + 1 < num_kernels(); ++g) {
      if (launch(g).output != Endpoint::kChannel) continue;
      const ChannelConfig& config = spec_.channel_configs[static_cast<size_t>(g)];
      if (spec_.fault != nullptr) {
        GPL_RETURN_NOT_OK(spec_.fault->OnChannelAlloc(config));
      }
      channels_.emplace_back(config, device_);
      sim(g).out_channel = sim(g + 1).in_channel = &channels_.back();
      obs::Inc(channel_reservations);
    }
    return Status::OK();
  }

  // ---- Per-kernel uniform work-group geometry and occupancy ----
  void SizeKernels() {
    std::vector<ResourceRequest> requests;
    for (int k = 0; k < num_kernels(); ++k) {
      const KernelLaunch& l = launch(k);
      const int wg_per_tile = l.workgroups_per_tile > 0 ? l.workgroups_per_tile
                                                        : 2 * device_.num_cus;
      KernelSim& s = sim(k);
      s.wg_total = num_tiles_ * static_cast<int64_t>(wg_per_tile);
      const double wg_total = static_cast<double>(s.wg_total);
      s.wg.rows = static_cast<double>(l.rows_in) / wg_total;
      const bool chan_in =
          l.input == Endpoint::kChannel && s.in_channel != nullptr;
      const bool chan_out = s.out_channel != nullptr;  // output is kChannel
      (chan_in ? s.wg.chan_in : s.wg.global_in) =
          static_cast<double>(l.bytes_in) / wg_total;
      (chan_out ? s.wg.chan_out : s.wg.global_out) =
          static_cast<double>(l.bytes_out) / wg_total;
      requests.push_back({l.desc.private_bytes_per_item,
                          l.desc.local_bytes_per_item, wg_per_tile});
    }
    const OccupancyResult occ = ComputeOccupancy(device_, requests);
    for (int k = 0; k < num_kernels(); ++k) {
      sim(k).slots = std::max(1, occ.active_slots[static_cast<size_t>(k)]);
      sim(k).per_cu_cap =
          std::max(1, static_cast<int>(CeilDiv(sim(k).slots, device_.num_cus)));
    }
    // Guarantee a few work-groups' payloads always fit in the channel so one
    // oversized work-group cannot deadlock or fully serialize the pipeline.
    for (int g = 0; g + 1 < num_kernels(); ++g) {
      if (sim(g).out_channel == nullptr) continue;
      const double need =
          3.0 * std::max(sim(g).wg.chan_out, sim(g + 1).wg.chan_in);
      sim(g).out_channel->EnsureCapacity(static_cast<int64_t>(need) + 1);
    }
  }

  // ---- Cache residency, latency hiding and per-work-group cost ----
  void PriceWorkGroups() {
    int64_t inflight_capacity = 0;
    for (const ChannelState& ch : channels_) {
      inflight_capacity += ch.capacity_bytes();
    }
    // Half the tile's streaming window is hot on average (the scan front).
    const int64_t competing = spec_.tile_bytes / 2 + spec_.extra_resident_bytes;
    const double chan_residency =
        cache_.ChannelResidency(inflight_capacity, competing);
    const int64_t competing_for_random =
        spec_.tile_bytes / 2 + inflight_capacity + spec_.extra_resident_bytes;

    // Latency hiding draws on every co-resident wavefront of the CU,
    // regardless of which concurrent kernel it belongs to.
    int total_slots = 0;
    for (const KernelSim& s : ks_) total_slots += s.slots;
    const int hide = std::max(1, total_slots / device_.num_cus);

    // Streaming global inputs are cache-resident only if the tile working
    // set leaves room (it generally does not for the leaf input).
    for (int k = 0; k < num_kernels(); ++k) {
      KernelSim& s = sim(k);
      s.work = ComputeWgWork(device_, cache_, launch(k).desc, s.wg,
                             s.in_channel, s.out_channel, chan_residency,
                             launch(k).input_resident_fraction, hide,
                             competing_for_random);
      // An injected memory-pressure throttle slows the throttled kernel's
      // memory pipeline for the whole run (every work-group pays it).
      if (s.throttle > 0.0) s.work.mem *= 1.0 + s.throttle;
    }
  }

  // ---- Dispatch: kernels in turn start what they can until a pass starts
  // nothing; then each kernel's stall state is what keeps it waiting ----
  void Dispatch(PipelineObserver& observer) {
    for (bool progress = true; progress;) {
      progress = false;
      for (int k = 0; k < num_kernels(); ++k) {
        while (HasPending(k) && Waiting(k) == Stall::kNone) {
          const int cu = PickCu(k);
          if (cu < 0) break;  // no CU slot: occupancy limit, not a stall
          Start(k, cu);
          observer.OnDispatch(k, cu, now_);
          progress = true;
        }
      }
    }
    for (int k = 0; k < num_kernels(); ++k) {
      const Stall stall = HasPending(k) ? Waiting(k) : Stall::kNone;
      if (stall == sim(k).stall) continue;
      sim(k).stall = stall;
      observer.OnStall(k, stall, now_);
    }
  }

  // ---- Completion of the next work-group (false if none is in flight):
  // integrate stall and residency up to it, commit its output, retire it ----
  bool CompleteNext(PipelineObserver& observer) {
    if (heap_.empty()) return false;
    const Event ev = heap_.top();
    heap_.pop();
    const double dt = ev.time - last_time_;
    if (dt > 0.0) {
      for (KernelSim& s : ks_) {
        if (s.stall != Stall::kNone) s.stall_cycles += dt;
      }
      resident_wg_time_ += total_resident_ * dt;
      last_time_ = ev.time;
    }
    now_ = ev.time;

    KernelSim& s = sim(ev.kernel);
    if (s.wg.chan_out > 0.0) s.out_channel->CommitReserved(s.wg.chan_out);
    ++s.completed;
    --s.resident;
    Cu& cu = cus_[static_cast<size_t>(ev.cu)];
    --cu.resident;
    if (--s.on_cu[static_cast<size_t>(ev.cu)] == 0) --cu.kernels;
    --total_resident_;
    observer.OnComplete(ev.kernel, ev.cu, now_);
    return true;
  }

  // ---- Aggregate counters ----
  HwCounters Aggregate() const {
    HwCounters c;
    c.resident_wg_time = resident_wg_time_;
    const double overhead =
        static_cast<double>(device_.kernel_launch_cycles) * num_kernels() +
        static_cast<double>(device_.tile_dispatch_cycles) *
            static_cast<double>(num_tiles_);
    c.elapsed_cycles = last_time_ + overhead;
    c.launch_cycles = overhead;
    for (int k = 0; k < num_kernels(); ++k) {
      const KernelSim& s = kernel(k);
      GPL_CHECK(s.completed == s.wg_total)
          << "pipeline simulation did not drain kernel " << launch(k).desc.name
          << " (completed " << s.completed << " of " << s.wg_total << ")";
      const double n = static_cast<double>(s.wg_total);
      c.compute_cycles += s.work.alu * n;
      c.mem_cycles += s.work.mem * n;
      c.channel_cycles += s.work.chan * n;
      c.stall_cycles += s.stall_cycles;
      c.cache_accesses += s.work.cache_accesses * n;
      c.cache_hits += s.work.cache_hits * n;
      (launch(k).output == Endpoint::kGlobal ? c.bytes_materialized
                                             : c.bytes_via_channel) +=
          launch(k).bytes_out;
    }
    return c;
  }

  const DeviceSpec& device() const { return device_; }
  const PipelineSpec& spec() const { return spec_; }
  int num_kernels() const { return static_cast<int>(ks_.size()); }
  int64_t num_tiles() const { return num_tiles_; }
  const KernelSim& kernel(int k) const { return ks_[static_cast<size_t>(k)]; }
  double now() const { return now_; }
  int resident() const { return total_resident_; }

 private:
  const KernelLaunch& launch(int k) const {
    return spec_.kernels[static_cast<size_t>(k)];
  }
  KernelSim& sim(int k) { return ks_[static_cast<size_t>(k)]; }

  /// Whether kernel k has a work-group left to start and a slot for it.
  bool HasPending(int k) const {
    return kernel(k).dispatched < kernel(k).wg_total &&
           kernel(k).resident < kernel(k).slots;
  }
  /// The channel that keeps kernel k from starting a work-group, if any.
  /// Only a kernel that moves bytes through a channel waits on it.
  Stall Waiting(int k) const {
    const KernelSim& s = kernel(k);
    if (s.wg.chan_in > 0.0 && !s.in_channel->CanAcquire(s.wg.chan_in)) {
      return Stall::kStarved;
    }
    if (s.wg.chan_out > 0.0 && !s.out_channel->CanReserve(s.wg.chan_out)) {
      return Stall::kBlocked;
    }
    return Stall::kNone;
  }

  /// The least-loaded CU that can host a work-group of kernel k: below
  /// max_workgroups_per_cu, below k's per-CU cap, and either already running
  /// k or running fewer than C distinct kernels. -1 if there is none.
  int PickCu(int k) const {
    const KernelSim& s = kernel(k);
    const int concurrency = std::max(1, device_.concurrent_kernels);
    int best = -1;
    double best_ready = 0.0;
    for (size_t c = 0; c < cus_.size(); ++c) {
      const Cu& cu = cus_[c];
      if (cu.resident >= device_.max_workgroups_per_cu) continue;
      if (s.on_cu[c] >= s.per_cu_cap) continue;
      if (s.on_cu[c] == 0 && cu.kernels >= concurrency) continue;
      const double ready = std::max(cu.alu, cu.mem);
      if (best < 0 || ready < best_ready) {
        best = static_cast<int>(c);
        best_ready = ready;
      }
    }
    return best;
  }

  /// Starts a work-group of kernel k on CU c: takes its channel input,
  /// reserves room for its output and queues its completion.
  void Start(int k, int c) {
    KernelSim& s = sim(k);
    if (s.wg.chan_in > 0.0) s.in_channel->Acquire(s.wg.chan_in);
    if (s.wg.chan_out > 0.0) s.out_channel->Reserve(s.wg.chan_out);
    Cu& cu = cus_[static_cast<size_t>(c)];
    cu.alu = std::max(now_, cu.alu) + s.work.alu;
    cu.mem = std::max(now_, cu.mem) + s.work.mem + s.work.chan;
    heap_.push(Event{std::max(cu.alu, cu.mem), k, c});
    ++s.dispatched;
    ++s.resident;
    ++cu.resident;
    if (s.on_cu[static_cast<size_t>(c)]++ == 0) ++cu.kernels;
    ++total_resident_;
  }

  const DeviceSpec& device_;
  const CacheModel& cache_;
  const PipelineSpec& spec_;
  const int64_t num_tiles_;
  std::vector<KernelSim> ks_;
  std::vector<ChannelState> channels_;
  std::vector<Cu> cus_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap_;
  int total_resident_ = 0;
  double now_ = 0.0;
  double last_time_ = 0.0;
  double resident_wg_time_ = 0.0;
};

// ---- The trace as an observer of a PipelineRun ----

/// Records a run into PipelineSpec::trace: a track per kernel with a span
/// per tile and an instant per stall, channel levels and resident
/// work-groups as counter samples, per-kernel phases and the segment span.
class PipelineTrace : public PipelineObserver {
 public:
  PipelineTrace(const PipelineRun& run, trace::TraceCollector* trace)
      : run_(run),
        trace_(trace),
        kernels_(static_cast<size_t>(run.num_kernels())) {
    trace_->set_clock_mhz(static_cast<double>(run.device().core_mhz));
    const std::vector<KernelLaunch>& launches = run.spec().kernels;
    for (size_t k = 0; k < kernels_.size(); ++k) {
      // Disambiguate repeated kernel names within the segment (two probe
      // stages, say) so their tile spans land on separate tracks.
      KernelTrack& kt = kernels_[k];
      kt.label = launches[k].desc.name;
      int dup = 0;
      for (size_t j = 0; j < k; ++j) {
        if (launches[j].desc.name == kt.label) ++dup;
      }
      if (dup > 0) kt.label += "#" + std::to_string(dup + 1);
      kt.track = trace_->TrackId(kt.label);
      const KernelSim& sim = run.kernel(static_cast<int>(k));
      kt.wg_per_tile = sim.wg_total / run.num_tiles();
      kt.tile_start.assign(static_cast<size_t>(run.num_tiles()), -1.0);
      if (sim.in_channel == nullptr) continue;
      KernelTrack& producer = kernels_[k - 1];
      producer.out_chan = "chan:" + producer.label + ">" + kt.label;
    }
  }

  void OnDispatch(int k, int /*cu*/, double now) override {
    KernelTrack& kt = kernels_[static_cast<size_t>(k)];
    const int64_t tile = (run_.kernel(k).dispatched - 1) / kt.wg_per_tile;
    double& start = kt.tile_start[static_cast<size_t>(tile)];
    if (start < 0.0) start = now;
  }

  void OnComplete(int k, int /*cu*/, double now) override {
    const KernelSim& sim = run_.kernel(k);
    KernelTrack& kt = kernels_[static_cast<size_t>(k)];
    if (sim.wg.chan_out > 0.0) {
      trace_->AddCounter(kt.out_chan, now, sim.out_channel->available_bytes());
    }
    kt.finish_time = now;
    if (sim.completed % kt.wg_per_tile != 0) return;
    const int64_t tile = sim.completed / kt.wg_per_tile - 1;
    const double start = kt.tile_start[static_cast<size_t>(tile)];
    trace_->AddSpan(kt.track, kt.label + " tile " + std::to_string(tile),
                    "tile", start >= 0.0 ? start : now, now,
                    {{"tile", TraceInt(tile)},
                     {"workgroups", TraceInt(kt.wg_per_tile)}});
  }

  void OnStall(int k, Stall stall, double now) override {
    KernelTrack& kt = kernels_[static_cast<size_t>(k)];
    const bool stalled = stall != Stall::kNone;
    if (stalled && !kt.was_stalled) {
      trace_->AddInstant(kt.track,
                         stall == Stall::kBlocked
                             ? "channel-block (output full)"
                             : "channel-starve (input empty)",
                         "stall", now);
      ++kt.stall_events;
    }
    kt.was_stalled = stalled;
  }

  void OnRoundEnd(double now, int resident) override {
    trace_->AddCounter("resident_workgroups", now, resident);
  }

  void OnEnd(const HwCounters& counters) override {
    std::vector<trace::Arg> args = {
        {"elapsed_cycles", trace::JsonNumber(counters.elapsed_cycles)}};
    for (size_t k = 0; k < kernels_.size(); ++k) {
      const KernelSim& sim = run_.kernel(static_cast<int>(k));
      const KernelTrack& kt = kernels_[k];
      const double n = static_cast<double>(sim.wg_total);
      trace_->AddCounter("cache_hit_ratio:" + kt.label, kt.finish_time,
                         sim.work.cache_accesses > 0.0
                             ? sim.work.cache_hits / sim.work.cache_accesses
                             : 0.0);
      trace_->AddKernelPhase(kt.label, sim.work.alu * n, sim.work.mem * n,
                             sim.work.chan * n, sim.stall_cycles);
      const ChannelState* ch = sim.out_channel;
      if (ch == nullptr) continue;
      args.emplace_back(kt.out_chan + " peak_fill",
                        trace::JsonNumber(ch->PeakFillRatio()));
      args.emplace_back(kt.out_chan + " committed_bytes",
                        trace::JsonNumber(ch->total_committed_bytes()));
    }
    for (const KernelTrack& kt : kernels_) {
      if (kt.stall_events > 0) {
        args.emplace_back(kt.label + " stall_events", TraceInt(kt.stall_events));
      }
    }
    trace_->AddOverhead(counters.launch_cycles);
    TraceSegment(trace_, run_.spec(), "pipeline segment", run_.num_tiles(),
                 counters.elapsed_cycles, std::move(args));
  }

 private:
  struct KernelTrack {
    std::string label;
    std::string out_chan;  ///< counter name of its output channel, if any
    int track = 0;
    int64_t wg_per_tile = 1;
    std::vector<double> tile_start;  ///< first dispatch per tile, -1 if none
    bool was_stalled = false;
    int64_t stall_events = 0;
    double finish_time = 0.0;
  };

  const PipelineRun& run_;
  trace::TraceCollector* trace_;
  std::vector<KernelTrack> kernels_;
};

}  // namespace

Simulator::Simulator(const DeviceSpec& device, obs::MetricsRegistry* metrics)
    : device_(device), cache_(device.cache_bytes) {
  if (metrics != nullptr) {
    const obs::Labels labels = {{"device", device_.name}};
    kernel_launches_ = metrics->GetCounter(
        "gpl_sim_kernel_launches_total", "Simulated kernel launches", labels);
    tile_dispatches_ = metrics->GetCounter(
        "gpl_sim_tile_dispatches_total",
        "Simulated per-tile kernel dispatches", labels);
    channel_reservations_ = metrics->GetCounter(
        "gpl_sim_channel_reservations_total",
        "Data-channel reservations between pipelined kernels", labels);
    throttle_events_ = metrics->GetCounter(
        "gpl_sim_throttle_events_total",
        "Injected memory-pressure throttles applied to a launch", labels);
  }
}

Result<HwCounters> Simulator::RunKernelBatch(const KernelLaunch& launch,
                                             int64_t resident_bytes,
                                             trace::TraceCollector* trace,
                                             FaultInjector* fault) const {
  double throttle_penalty = 0.0;
  if (fault != nullptr) {
    GPL_RETURN_NOT_OK(fault->OnKernelLaunch(launch.desc.name,
                                            &throttle_penalty));
  }
  obs::Inc(kernel_launches_);
  if (throttle_penalty > 0.0) obs::Inc(throttle_events_);
  const KernelTimingDesc& desc = launch.desc;
  const int slots = SingleKernelSlots(device_, desc);

  const int64_t rows = std::max<int64_t>(launch.rows_in, 1);
  const int64_t rows_per_wg_target =
      static_cast<int64_t>(device_.wavefront_size) * kKbeWavefrontsPerWg;
  const int64_t wg_total = std::max<int64_t>(1, CeilDiv(rows, rows_per_wg_target));
  const int active = static_cast<int>(std::min<int64_t>(slots, wg_total));
  const int active_cus =
      static_cast<int>(std::min<int64_t>(device_.num_cus, wg_total));
  const int hide = std::max(1, active / std::max(1, active_cus));

  const double n = static_cast<double>(wg_total);
  const WgShape wg = {static_cast<double>(rows) / n,
                      static_cast<double>(launch.bytes_in) / n,
                      static_cast<double>(launch.bytes_out) / n};
  const WgWork per =
      ComputeWgWork(device_, cache_, desc, wg, nullptr, nullptr, 0.0,
                    launch.input_resident_fraction, hide, resident_bytes);

  const double total_alu = per.alu * n;
  const double total_mem = per.mem * n;
  const double exec = std::max(total_alu, total_mem) / active_cus;
  // A memory-pressure throttle slows execution without failing it; the lost
  // cycles are accounted as stall, keeping busy-cycle components untouched.
  const double throttle_cycles = exec * throttle_penalty;
  const double elapsed = exec + throttle_cycles +
                         static_cast<double>(device_.kernel_launch_cycles);

  HwCounters c;
  c.elapsed_cycles = elapsed;
  c.stall_cycles = throttle_cycles;
  c.compute_cycles = total_alu;
  c.mem_cycles = total_mem;
  c.launch_cycles = static_cast<double>(device_.kernel_launch_cycles);
  c.cache_accesses = per.cache_accesses * n;
  c.cache_hits = per.cache_hits * n;
  c.resident_wg_time = static_cast<double>(active) * exec;
  if (launch.output == Endpoint::kGlobal) {
    c.bytes_materialized = launch.bytes_out;
  }

  if (trace != nullptr) {
    trace->set_clock_mhz(static_cast<double>(device_.core_mhz));
    TraceLaunch(trace, desc.name, 0.0, elapsed,
                {{"rows_in", TraceInt(launch.rows_in)},
                 {"rows_out", TraceInt(launch.rows_out)},
                 {"workgroups", TraceInt(wg_total)}},
                c.CacheHitRatio(), c);
    trace->AdvanceOrigin(elapsed);
  }
  return c;
}

Result<HwCounters> Simulator::RunSequentialTiles(
    const PipelineSpec& spec) const {
  GPL_RETURN_NOT_OK(CheckSpec(spec, /*needs_channels=*/false));
  HwCounters counters;
  const int64_t num_tiles = NumTiles(spec);

  // Kernels are compiled/loaded once; each tile only pays a (cheaper)
  // dispatch, but there is one dispatch per kernel per tile — the "frequent
  // kernel launches" overhead of Section 5.3.1.
  const double per_kernel_overhead =
      static_cast<double>(device_.kernel_launch_cycles) +
      (static_cast<double>(device_.tile_dispatch_cycles) +
       0.5 * static_cast<double>(device_.kernel_launch_cycles)) *
          static_cast<double>(num_tiles);
  obs::Inc(tile_dispatches_, static_cast<uint64_t>(num_tiles) *
                                 spec.kernels.size());

  trace::TraceCollector* trace = spec.trace;
  if (trace != nullptr) {
    trace->set_clock_mhz(static_cast<double>(device_.core_mhz));
  }

  for (size_t i = 0; i < spec.kernels.size(); ++i) {
    const double kernel_start = counters.elapsed_cycles;
    KernelLaunch tile_launch = spec.kernels[i];
    tile_launch.rows_in = std::max<int64_t>(1, tile_launch.rows_in / num_tiles);
    tile_launch.bytes_in = tile_launch.bytes_in / num_tiles;
    tile_launch.rows_out = tile_launch.rows_out / num_tiles;
    tile_launch.bytes_out = tile_launch.bytes_out / num_tiles;
    // Every kernel reads and writes materialized tile intermediates; a tile
    // intermediate that fits in cache is served from it.
    tile_launch.input = Endpoint::kGlobal;
    tile_launch.output = Endpoint::kGlobal;
    if (i > 0) {
      tile_launch.input_resident_fraction = cache_.ChannelResidency(
          tile_launch.bytes_in, spec.extra_resident_bytes + spec.tile_bytes);
    }
    GPL_ASSIGN_OR_RETURN(
        const HwCounters tile,
        RunKernelBatch(tile_launch, spec.extra_resident_bytes,
                       /*trace=*/nullptr, spec.fault));

    // All tiles are uniform: scale one tile's cost, swapping the per-launch
    // overhead RunKernelBatch charged for the cheaper per-tile dispatch.
    HwCounters scaled = tile;
    const double n = static_cast<double>(num_tiles);
    scaled.elapsed_cycles =
        (scaled.elapsed_cycles - scaled.launch_cycles) * n + per_kernel_overhead;
    scaled.compute_cycles *= n;
    scaled.mem_cycles *= n;
    scaled.channel_cycles *= n;
    scaled.stall_cycles *= n;
    scaled.launch_cycles = per_kernel_overhead;
    scaled.cache_accesses *= n;
    scaled.cache_hits *= n;
    scaled.resident_wg_time *= n;
    scaled.bytes_materialized = spec.kernels[i].bytes_out;
    counters.Accumulate(scaled);

    if (trace != nullptr) {
      TraceLaunch(trace, spec.kernels[i].desc.name, kernel_start,
                  counters.elapsed_cycles,
                  {{"tiles", TraceInt(num_tiles)},
                   {"rows_in", TraceInt(spec.kernels[i].rows_in)},
                   {"rows_out", TraceInt(spec.kernels[i].rows_out)}},
                  tile.CacheHitRatio(), scaled);
    }
  }

  if (trace != nullptr) {
    TraceSegment(trace, spec, "segment (w/o CE)", num_tiles,
                 counters.elapsed_cycles, {});
  }
  return counters;
}

Result<HwCounters> Simulator::RunPipeline(const PipelineSpec& spec,
                                          PipelineObserver* observer) const {
  GPL_RETURN_NOT_OK(CheckSpec(spec, /*needs_channels=*/true));
  PipelineRun run(device_, cache_, spec);
  GPL_RETURN_NOT_OK(run.LaunchKernels(throttle_events_));
  obs::Inc(kernel_launches_, static_cast<uint64_t>(run.num_kernels()));
  obs::Inc(tile_dispatches_, static_cast<uint64_t>(run.num_tiles()));
  GPL_RETURN_NOT_OK(run.ReserveChannels(channel_reservations_));
  run.SizeKernels();
  run.PriceWorkGroups();

  PipelineObserver untraced;
  std::optional<PipelineTrace> traced;
  if (observer == nullptr) {
    observer =
        spec.trace != nullptr ? &traced.emplace(run, spec.trace) : &untraced;
  }
  run.Dispatch(*observer);
  while (run.CompleteNext(*observer)) {
    run.Dispatch(*observer);
    observer->OnRoundEnd(run.now(), run.resident());
  }
  const HwCounters counters = run.Aggregate();
  observer->OnEnd(counters);
  return counters;
}

}  // namespace sim
}  // namespace gpl
