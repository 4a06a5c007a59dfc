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

Simulator::WgWork Simulator::ComputeWgWork(
    const KernelTimingDesc& desc, double rows, double global_in_bytes,
    double global_out_bytes, double chan_in_bytes, double chan_out_bytes,
    const ChannelState* in_chan, const ChannelState* out_chan,
    double chan_residency, double input_resident, int hide_wavefronts,
    int64_t competing_bytes) const {
  WgWork w;
  if (rows <= 0.0) return w;
  const double wf = static_cast<double>(device_.wavefront_size);
  const double iters = std::ceil(rows / wf);

  // Vector ALU work: one instruction issue covers a whole wavefront.
  w.alu = iters * desc.compute_inst_per_row * device_.cycles_per_instr;

  // Memory work: coalesced transactions with pattern-dependent hit ratio.
  const double accesses = iters * desc.mem_inst_per_row;
  double stream_hit = cache_.StreamingHitRatio(kAvgAccessWidth);
  stream_hit = input_resident + (1.0 - input_resident) * stream_hit;
  double hit = stream_hit;
  if (desc.random_access_fraction > 0.0) {
    const double random_hit =
        cache_.RandomHitRatio(desc.random_working_set_bytes, competing_bytes);
    hit = (1.0 - desc.random_access_fraction) * stream_hit +
          desc.random_access_fraction * random_hit;
  }
  const double latency = hit * device_.cache_latency +
                         (1.0 - hit) * device_.global_mem_latency;
  const double hide = static_cast<double>(
      std::clamp(hide_wavefronts, 1, device_.latency_hiding_wavefronts));
  const double latency_cycles = accesses * latency / hide;

  // Bandwidth floor for the global traffic this work-group generates.
  const double global_bw_per_cu =
      device_.global_bw_bytes_per_cycle / device_.num_cus;
  const double cache_bw_per_cu =
      device_.cache_bw_bytes_per_cycle / device_.num_cus;
  const double resident_in = global_in_bytes * input_resident;
  const double dram_bytes = global_in_bytes - resident_in + global_out_bytes;
  const double bw_cycles =
      dram_bytes / global_bw_per_cu + resident_in / cache_bw_per_cu;

  w.mem = std::max(latency_cycles, bw_cycles);
  w.cache_accesses = accesses;
  w.cache_hits = hit * accesses;

  // Channel work (DC cost).
  if (in_chan != nullptr && chan_in_bytes > 0.0) {
    w.chan += in_chan->AcquireCost(chan_in_bytes, chan_residency);
  }
  if (out_chan != nullptr && chan_out_bytes > 0.0) {
    w.chan += out_chan->CommitCost(chan_out_bytes, chan_residency);
  }
  if (chan_in_bytes + chan_out_bytes > 0.0) {
    const double chan_accesses =
        (chan_in_bytes + chan_out_bytes) / cache_.line_bytes();
    w.cache_accesses += chan_accesses;
    w.cache_hits += chan_residency * chan_accesses;
  }
  return w;
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

  const double rows_per_wg =
      static_cast<double>(rows) / static_cast<double>(wg_total);
  const double in_per_wg =
      static_cast<double>(launch.bytes_in) / static_cast<double>(wg_total);
  const double out_per_wg =
      static_cast<double>(launch.bytes_out) / static_cast<double>(wg_total);

  const WgWork per =
      ComputeWgWork(desc, rows_per_wg, in_per_wg, out_per_wg, 0.0, 0.0, nullptr,
                    nullptr, 0.0, launch.input_resident_fraction, hide,
                    resident_bytes);

  const double total_alu = per.alu * static_cast<double>(wg_total);
  const double total_mem = per.mem * static_cast<double>(wg_total);
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
  c.cache_accesses = per.cache_accesses * static_cast<double>(wg_total);
  c.cache_hits = per.cache_hits * static_cast<double>(wg_total);
  c.resident_wg_time = static_cast<double>(active) * exec;
  if (launch.output == Endpoint::kGlobal) {
    c.bytes_materialized = launch.bytes_out;
  }

  if (trace != nullptr) {
    trace->set_clock_mhz(static_cast<double>(device_.core_mhz));
    const int track = trace->TrackId(desc.name);
    trace->AddSpan(
        track, desc.name, "kernel", 0.0, elapsed,
        {{"rows_in", TraceInt(launch.rows_in)},
         {"rows_out", TraceInt(launch.rows_out)},
         {"workgroups", TraceInt(wg_total)},
         {"cache_hit_ratio", trace::JsonNumber(c.CacheHitRatio())}});
    trace->AddCounter("cache_hit_ratio:" + desc.name, elapsed,
                      c.CacheHitRatio());
    trace->AddKernelPhase(desc.name, total_alu, total_mem, 0.0, 0.0);
    trace->AddOverhead(c.launch_cycles);
    trace->AdvanceOrigin(elapsed);
  }
  return c;
}

Result<HwCounters> Simulator::RunSequentialTiles(
    const PipelineSpec& spec) const {
  HwCounters counters;
  GPL_CHECK(!spec.kernels.empty());
  const int64_t input_bytes = std::max<int64_t>(spec.kernels[0].bytes_in, 1);
  const int64_t num_tiles =
      std::max<int64_t>(1, CeilDiv(input_bytes, spec.tile_bytes));

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
      const std::string& name = spec.kernels[i].desc.name;
      const int track = trace->TrackId(name);
      trace->AddSpan(track, name, "kernel", kernel_start,
                     counters.elapsed_cycles,
                     {{"tiles", TraceInt(num_tiles)},
                      {"rows_in", TraceInt(spec.kernels[i].rows_in)},
                      {"rows_out", TraceInt(spec.kernels[i].rows_out)},
                      {"cache_hit_ratio",
                       trace::JsonNumber(tile.CacheHitRatio())}});
      trace->AddCounter("cache_hit_ratio:" + name, counters.elapsed_cycles,
                        tile.CacheHitRatio());
      trace->AddKernelPhase(name, tile.compute_cycles * n,
                            tile.mem_cycles * n, 0.0, 0.0);
      trace->AddOverhead(per_kernel_overhead);
    }
  }

  if (trace != nullptr) {
    trace->AddSpan(trace->TrackId("segment"),
                   spec.label.empty() ? "segment (w/o CE)" : spec.label,
                   "segment", 0.0, counters.elapsed_cycles,
                   {{"tiles", TraceInt(num_tiles)},
                    {"tile_bytes", TraceInt(spec.tile_bytes)},
                    {"kernels", TraceInt(static_cast<int64_t>(
                                    spec.kernels.size()))}});
    trace->AdvanceOrigin(counters.elapsed_cycles);
  }
  return counters;
}

Result<HwCounters> Simulator::RunPipeline(const PipelineSpec& spec) const {
  const int num_kernels = static_cast<int>(spec.kernels.size());
  GPL_CHECK(num_kernels > 0);
  GPL_CHECK(static_cast<int>(spec.channel_configs.size()) >=
            std::max(0, num_kernels - 1))
      << "need a channel config per kernel gap";

  const int64_t input_bytes = std::max<int64_t>(spec.kernels[0].bytes_in, 1);
  const int64_t num_tiles =
      std::max<int64_t>(1, CeilDiv(input_bytes, spec.tile_bytes));

  // ---- Fault sites: every kernel launch, then every channel reservation.
  // All faults fire before any simulated work, so a failed run has nothing
  // to clean up (simulation state is local to this call).
  std::vector<double> throttle(static_cast<size_t>(num_kernels), 0.0);
  if (spec.fault != nullptr) {
    for (int k = 0; k < num_kernels; ++k) {
      GPL_RETURN_NOT_OK(spec.fault->OnKernelLaunch(
          spec.kernels[static_cast<size_t>(k)].desc.name,
          &throttle[static_cast<size_t>(k)]));
      if (throttle[static_cast<size_t>(k)] > 0.0) obs::Inc(throttle_events_);
    }
  }
  obs::Inc(kernel_launches_, static_cast<uint64_t>(num_kernels));
  obs::Inc(tile_dispatches_, static_cast<uint64_t>(num_tiles));

  // ---- Channels between consecutive kernels ----
  std::vector<std::optional<ChannelState>> channels(
      static_cast<size_t>(std::max(0, num_kernels - 1)));
  for (int g = 0; g + 1 < num_kernels; ++g) {
    if (spec.kernels[g].output == Endpoint::kChannel) {
      if (spec.fault != nullptr) {
        GPL_RETURN_NOT_OK(spec.fault->OnChannelAlloc(spec.channel_configs[g]));
      }
      channels[g].emplace(spec.channel_configs[g], device_);
      obs::Inc(channel_reservations_);
    }
  }

  // ---- Per-kernel uniform work-group geometry ----
  struct KernelSim {
    int64_t wg_total = 0;
    int64_t dispatched = 0;
    int64_t completed = 0;
    double rows_per_wg = 0.0;
    double g_in_per_wg = 0.0, g_out_per_wg = 0.0;
    double c_in_per_wg = 0.0, c_out_per_wg = 0.0;
    WgWork work;
    int slots = 1;
    int per_cu_cap = 1;
    bool stalled = false;
    double stall_cycles = 0.0;
    double finish_time = 0.0;

    // Tracing state (only populated when spec.trace is set).
    int64_t wg_per_tile = 1;
    int track = 0;
    std::string label;
    char stall_reason = 0;  ///< 'i' starved on input, 'o' blocked on output
    bool was_stalled = false;
    int64_t stall_events = 0;
    std::vector<double> tile_start;
  };
  std::vector<KernelSim> ks(static_cast<size_t>(num_kernels));

  trace::TraceCollector* trace = spec.trace;
  if (trace != nullptr) {
    trace->set_clock_mhz(static_cast<double>(device_.core_mhz));
    for (int k = 0; k < num_kernels; ++k) {
      // Disambiguate repeated kernel names within the segment (two probe
      // stages, say) so their tile spans land on separate tracks.
      std::string label = spec.kernels[static_cast<size_t>(k)].desc.name;
      int dup = 0;
      for (int j = 0; j < k; ++j) {
        if (spec.kernels[static_cast<size_t>(j)].desc.name == label) ++dup;
      }
      if (dup > 0) label += "#" + std::to_string(dup + 1);
      ks[static_cast<size_t>(k)].label = label;
      ks[static_cast<size_t>(k)].track = trace->TrackId(label);
      ks[static_cast<size_t>(k)].tile_start.assign(
          static_cast<size_t>(num_tiles), -1.0);
    }
  }

  std::vector<ResourceRequest> requests;
  requests.reserve(static_cast<size_t>(num_kernels));
  for (int k = 0; k < num_kernels; ++k) {
    const KernelLaunch& launch = spec.kernels[k];
    const int wg_per_tile = launch.workgroups_per_tile > 0
                                ? launch.workgroups_per_tile
                                : 2 * device_.num_cus;
    ks[k].wg_total = num_tiles * static_cast<int64_t>(wg_per_tile);
    ks[k].wg_per_tile = wg_per_tile;
    const double wg_total = static_cast<double>(ks[k].wg_total);
    ks[k].rows_per_wg = static_cast<double>(launch.rows_in) / wg_total;
    const bool in_chan = launch.input == Endpoint::kChannel && k > 0 &&
                         channels[static_cast<size_t>(k - 1)].has_value();
    const bool out_chan = launch.output == Endpoint::kChannel &&
                          k + 1 < num_kernels &&
                          channels[static_cast<size_t>(k)].has_value();
    (in_chan ? ks[k].c_in_per_wg : ks[k].g_in_per_wg) =
        static_cast<double>(launch.bytes_in) / wg_total;
    (out_chan ? ks[k].c_out_per_wg : ks[k].g_out_per_wg) =
        static_cast<double>(launch.bytes_out) / wg_total;

    ResourceRequest req;
    req.private_bytes_per_item = launch.desc.private_bytes_per_item;
    req.local_bytes_per_item = launch.desc.local_bytes_per_item;
    req.requested_workgroups = wg_per_tile;
    requests.push_back(req);
  }

  const OccupancyResult occ = ComputeOccupancy(device_, requests);
  for (int k = 0; k < num_kernels; ++k) {
    ks[k].slots = std::max(1, occ.active_slots[static_cast<size_t>(k)]);
    ks[k].per_cu_cap =
        std::max(1, static_cast<int>(CeilDiv(ks[k].slots, device_.num_cus)));
  }

  // Guarantee a few work-groups' payloads always fit in the channel so one
  // oversized work-group cannot deadlock or fully serialize the pipeline.
  for (int g = 0; g + 1 < num_kernels; ++g) {
    if (!channels[static_cast<size_t>(g)].has_value()) continue;
    const double need = 3.0 * std::max(ks[g].c_out_per_wg,
                                       ks[g + 1].c_in_per_wg);
    channels[static_cast<size_t>(g)]->EnsureCapacity(
        static_cast<int64_t>(need) + 1);
  }

  // ---- Cache residency of channel traffic ----
  int64_t inflight_capacity = 0;
  for (const auto& ch : channels) {
    if (ch.has_value()) inflight_capacity += ch->capacity_bytes();
  }
  // Half the tile's streaming window is hot on average (the scan front).
  const int64_t competing = spec.tile_bytes / 2 + spec.extra_resident_bytes;
  const double chan_residency =
      cache_.ChannelResidency(inflight_capacity, competing);
  const int64_t competing_for_random =
      spec.tile_bytes / 2 + inflight_capacity + spec.extra_resident_bytes;

  // Latency hiding draws on every co-resident wavefront of the CU,
  // regardless of which concurrent kernel it belongs to.
  int total_slots = 0;
  for (int k = 0; k < num_kernels; ++k) total_slots += ks[k].slots;
  const int hide = std::max(1, total_slots / device_.num_cus);

  // Streaming inputs read from global memory are cache-resident only if the
  // tile working set leaves room (it generally does not for the leaf input).
  for (int k = 0; k < num_kernels; ++k) {
    const ChannelState* in_chan =
        (k > 0 && channels[static_cast<size_t>(k - 1)].has_value())
            ? &*channels[static_cast<size_t>(k - 1)]
            : nullptr;
    const ChannelState* out_chan =
        (k + 1 < num_kernels && channels[static_cast<size_t>(k)].has_value())
            ? &*channels[static_cast<size_t>(k)]
            : nullptr;
    ks[k].work = ComputeWgWork(
        spec.kernels[k].desc, ks[k].rows_per_wg, ks[k].g_in_per_wg,
        ks[k].g_out_per_wg, ks[k].c_in_per_wg, ks[k].c_out_per_wg, in_chan,
        out_chan, chan_residency,
        spec.kernels[k].input_resident_fraction, hide, competing_for_random);
    // An injected memory-pressure throttle slows the throttled kernel's
    // memory pipeline for the whole run (every work-group pays it).
    if (throttle[static_cast<size_t>(k)] > 0.0) {
      ks[k].work.mem *= 1.0 + throttle[static_cast<size_t>(k)];
    }
  }

  // ---- Discrete-event simulation ----
  struct Event {
    double time;
    int kernel;
    int cu;
    bool operator>(const Event& other) const { return time > other.time; }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap;

  std::vector<double> cu_alu(static_cast<size_t>(device_.num_cus), 0.0);
  std::vector<double> cu_mem(static_cast<size_t>(device_.num_cus), 0.0);
  std::vector<int> cu_resident(static_cast<size_t>(device_.num_cus), 0);
  // resident work-groups of kernel k on CU c
  std::vector<std::vector<int>> cu_kernel_resident(
      static_cast<size_t>(num_kernels),
      std::vector<int>(static_cast<size_t>(device_.num_cus), 0));
  std::vector<int> kernel_resident(static_cast<size_t>(num_kernels), 0);

  const int concurrency = std::max(1, device_.concurrent_kernels);
  int total_resident = 0;
  double now = 0.0;

  auto distinct_kernels_on_cu = [&](int cu) {
    int count = 0;
    for (int k = 0; k < num_kernels; ++k) {
      if (cu_kernel_resident[static_cast<size_t>(k)][static_cast<size_t>(cu)] > 0) {
        ++count;
      }
    }
    return count;
  };

  auto dispatch = [&]() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (int k = 0; k < num_kernels; ++k) {
        KernelSim& sim = ks[static_cast<size_t>(k)];
        sim.stalled = false;
        while (sim.dispatched < sim.wg_total && kernel_resident[k] < sim.slots) {
          ChannelState* in_chan =
              (k > 0 && channels[static_cast<size_t>(k - 1)].has_value())
                  ? &*channels[static_cast<size_t>(k - 1)]
                  : nullptr;
          ChannelState* out_chan =
              (k + 1 < num_kernels &&
               channels[static_cast<size_t>(k)].has_value())
                  ? &*channels[static_cast<size_t>(k)]
                  : nullptr;
          if (in_chan != nullptr && sim.c_in_per_wg > 0.0 &&
              !in_chan->CanAcquire(sim.c_in_per_wg)) {
            sim.stalled = true;  // starved for input data
            sim.stall_reason = 'i';
            break;
          }
          if (out_chan != nullptr && sim.c_out_per_wg > 0.0 &&
              !out_chan->CanReserve(sim.c_out_per_wg)) {
            sim.stalled = true;  // blocked on output space
            sim.stall_reason = 'o';
            break;
          }
          // Pick the least-loaded CU that can host this work-group.
          int best_cu = -1;
          double best_ready = 0.0;
          for (int c = 0; c < device_.num_cus; ++c) {
            if (cu_resident[static_cast<size_t>(c)] >=
                device_.max_workgroups_per_cu) {
              continue;
            }
            if (cu_kernel_resident[static_cast<size_t>(k)]
                                  [static_cast<size_t>(c)] >= sim.per_cu_cap) {
              continue;
            }
            if (cu_kernel_resident[static_cast<size_t>(k)]
                                  [static_cast<size_t>(c)] == 0 &&
                distinct_kernels_on_cu(c) >= concurrency) {
              continue;
            }
            const double ready = std::max(cu_alu[static_cast<size_t>(c)],
                                          cu_mem[static_cast<size_t>(c)]);
            if (best_cu < 0 || ready < best_ready) {
              best_cu = c;
              best_ready = ready;
            }
          }
          if (best_cu < 0) break;  // no CU slot: occupancy limit, not a stall

          if (in_chan != nullptr && sim.c_in_per_wg > 0.0) {
            in_chan->Acquire(sim.c_in_per_wg);
          }
          if (out_chan != nullptr && sim.c_out_per_wg > 0.0) {
            out_chan->Reserve(sim.c_out_per_wg);
          }
          if (trace != nullptr) {
            const int64_t tile = sim.dispatched / sim.wg_per_tile;
            if (sim.tile_start[static_cast<size_t>(tile)] < 0.0) {
              sim.tile_start[static_cast<size_t>(tile)] = now;
            }
          }
          const size_t cu = static_cast<size_t>(best_cu);
          const double alu_done =
              std::max(now, cu_alu[cu]) + sim.work.alu;
          const double mem_done =
              std::max(now, cu_mem[cu]) + sim.work.mem + sim.work.chan;
          cu_alu[cu] = alu_done;
          cu_mem[cu] = mem_done;
          heap.push(Event{std::max(alu_done, mem_done), k, best_cu});
          ++sim.dispatched;
          ++kernel_resident[k];
          ++cu_resident[cu];
          ++cu_kernel_resident[static_cast<size_t>(k)][cu];
          ++total_resident;
          progress = true;
        }
      }
    }
  };

  // Trace bookkeeping: channel counter names and stall-transition instants.
  std::vector<std::string> chan_names;
  if (trace != nullptr) {
    chan_names.resize(static_cast<size_t>(std::max(0, num_kernels - 1)));
    for (int g = 0; g + 1 < num_kernels; ++g) {
      if (channels[static_cast<size_t>(g)].has_value()) {
        chan_names[static_cast<size_t>(g)] =
            "chan:" + ks[static_cast<size_t>(g)].label + ">" +
            ks[static_cast<size_t>(g + 1)].label;
      }
    }
  }
  auto note_stall_transitions = [&]() {
    if (trace == nullptr) return;
    for (auto& sim : ks) {
      if (sim.stalled && !sim.was_stalled) {
        trace->AddInstant(sim.track,
                          sim.stall_reason == 'o' ? "channel-block (output full)"
                                                  : "channel-starve (input empty)",
                          "stall", now);
        ++sim.stall_events;
      }
      sim.was_stalled = sim.stalled;
    }
  };

  dispatch();
  note_stall_transitions();
  double last_time = 0.0;
  double resident_wg_time = 0.0;
  while (!heap.empty()) {
    const Event ev = heap.top();
    heap.pop();
    const double dt = ev.time - last_time;
    if (dt > 0.0) {
      for (auto& sim : ks) {
        if (sim.stalled) sim.stall_cycles += dt;
      }
      resident_wg_time += total_resident * dt;
      last_time = ev.time;
    }
    now = ev.time;

    KernelSim& sim = ks[static_cast<size_t>(ev.kernel)];
    if (ev.kernel + 1 < num_kernels &&
        channels[static_cast<size_t>(ev.kernel)].has_value() &&
        sim.c_out_per_wg > 0.0) {
      channels[static_cast<size_t>(ev.kernel)]->CommitReserved(sim.c_out_per_wg);
      if (trace != nullptr) {
        trace->AddCounter(
            chan_names[static_cast<size_t>(ev.kernel)], now,
            channels[static_cast<size_t>(ev.kernel)]->available_bytes());
      }
    }
    ++sim.completed;
    sim.finish_time = now;
    --kernel_resident[ev.kernel];
    --cu_resident[static_cast<size_t>(ev.cu)];
    --cu_kernel_resident[static_cast<size_t>(ev.kernel)][static_cast<size_t>(ev.cu)];
    --total_resident;
    if (trace != nullptr && sim.completed % sim.wg_per_tile == 0) {
      const int64_t tile = sim.completed / sim.wg_per_tile - 1;
      const double start = sim.tile_start[static_cast<size_t>(tile)];
      trace->AddSpan(sim.track, sim.label + " tile " + std::to_string(tile),
                     "tile", start >= 0.0 ? start : now, now,
                     {{"tile", TraceInt(tile)},
                      {"workgroups", TraceInt(sim.wg_per_tile)}});
    }
    dispatch();
    if (trace != nullptr) {
      note_stall_transitions();
      trace->AddCounter("resident_workgroups", now,
                        static_cast<double>(total_resident));
    }
  }

  for (int k = 0; k < num_kernels; ++k) {
    GPL_CHECK(ks[static_cast<size_t>(k)].completed ==
              ks[static_cast<size_t>(k)].wg_total)
        << "pipeline simulation did not drain kernel "
        << spec.kernels[static_cast<size_t>(k)].desc.name << " (completed "
        << ks[static_cast<size_t>(k)].completed << " of "
        << ks[static_cast<size_t>(k)].wg_total << ")";
  }

  // ---- Aggregate counters ----
  HwCounters c;
  c.resident_wg_time = resident_wg_time;
  const double overhead =
      static_cast<double>(device_.kernel_launch_cycles) * num_kernels +
      static_cast<double>(device_.tile_dispatch_cycles) *
          static_cast<double>(num_tiles);
  c.elapsed_cycles = last_time + overhead;
  c.launch_cycles = overhead;
  for (int k = 0; k < num_kernels; ++k) {
    const KernelSim& sim = ks[static_cast<size_t>(k)];
    const double n = static_cast<double>(sim.wg_total);
    c.compute_cycles += sim.work.alu * n;
    c.mem_cycles += sim.work.mem * n;
    c.channel_cycles += sim.work.chan * n;
    c.stall_cycles += sim.stall_cycles;
    c.cache_accesses += sim.work.cache_accesses * n;
    c.cache_hits += sim.work.cache_hits * n;
    if (spec.kernels[static_cast<size_t>(k)].output == Endpoint::kGlobal) {
      c.bytes_materialized += spec.kernels[static_cast<size_t>(k)].bytes_out;
    } else {
      c.bytes_via_channel += spec.kernels[static_cast<size_t>(k)].bytes_out;
    }

    if (trace != nullptr) {
      const double hit_ratio =
          sim.work.cache_accesses > 0.0
              ? sim.work.cache_hits / sim.work.cache_accesses
              : 0.0;
      trace->AddCounter("cache_hit_ratio:" + sim.label, sim.finish_time,
                        hit_ratio);
      trace->AddKernelPhase(sim.label, sim.work.alu * n, sim.work.mem * n,
                            sim.work.chan * n, sim.stall_cycles);
    }
  }

  if (trace != nullptr) {
    trace->AddOverhead(overhead);
    std::vector<trace::Arg> args = {
        {"tiles", TraceInt(num_tiles)},
        {"tile_bytes", TraceInt(spec.tile_bytes)},
        {"kernels", TraceInt(num_kernels)},
        {"elapsed_cycles", trace::JsonNumber(c.elapsed_cycles)}};
    for (int g = 0; g + 1 < num_kernels; ++g) {
      if (!channels[static_cast<size_t>(g)].has_value()) continue;
      const ChannelState& ch = *channels[static_cast<size_t>(g)];
      args.emplace_back(chan_names[static_cast<size_t>(g)] + " peak_fill",
                        trace::JsonNumber(ch.PeakFillRatio()));
      args.emplace_back(chan_names[static_cast<size_t>(g)] + " committed_bytes",
                        trace::JsonNumber(ch.total_committed_bytes()));
    }
    for (const auto& sim : ks) {
      if (sim.stall_events > 0) {
        args.emplace_back(sim.label + " stall_events",
                          TraceInt(sim.stall_events));
      }
    }
    trace->AddSpan(trace->TrackId("segment"),
                   spec.label.empty() ? "pipeline segment" : spec.label,
                   "segment", 0.0, c.elapsed_cycles, std::move(args));
    trace->AdvanceOrigin(c.elapsed_cycles);
  }
  return c;
}

}  // namespace sim
}  // namespace gpl
