#include "model/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"
#include "sim/cache_model.h"
#include "sim/occupancy.h"

namespace gpl {
namespace model {

const char* SegmentEngineName(SegmentEngine engine) {
  switch (engine) {
    case SegmentEngine::kGplChannel:
      return "pipelined";
    case SegmentEngine::kKernelAtATime:
      return "sequential";
    case SegmentEngine::kFused:
      return "fused";
    case SegmentEngine::kFusedPipelined:
      return "fused-pipelined";
  }
  return "unknown";
}

StageDesc ComposeFusedStage(const std::vector<StageDesc>& stages, size_t first,
                            size_t count) {
  GPL_CHECK(count >= 1 && first + count <= stages.size());
  const StageDesc& head = stages[first];
  if (count == 1) return head;

  StageDesc fused;
  fused.rows_in = head.rows_in;
  fused.bytes_in = head.bytes_in;
  const StageDesc& tail = stages[first + count - 1];
  fused.rows_out = tail.rows_out;
  fused.bytes_out = tail.bytes_out;

  sim::KernelTimingDesc& t = fused.timing;
  t.name = "fused(";
  // Accumulated below — clear the descriptor defaults first.
  t.compute_inst_per_row = 0.0;
  t.random_working_set_bytes = 0;
  const double head_rows = std::max(head.rows_in, 1.0);
  double streaming_inst = 0.0;  // survives only for the fused input read
  double random_inst = 0.0;     // side-structure accesses always hit memory
  int64_t private_sum = 0;
  int64_t private_max = 0;
  int64_t local_sum = 0;
  int64_t local_max = 0;
  for (size_t i = first; i < first + count; ++i) {
    const StageDesc& s = stages[i];
    if (i > first) t.name += '+';
    t.name += s.timing.name;
    // Per-row counts are per *that stage's* input row; normalize to the
    // fused kernel's input rows so the composed per-row numbers are exact.
    const double ratio = std::max(s.rows_in, 0.0) / head_rows;
    t.compute_inst_per_row += s.timing.compute_inst_per_row * ratio;
    const double mem = s.timing.mem_inst_per_row * ratio;
    random_inst += mem * s.timing.random_access_fraction;
    if (i == first) {
      streaming_inst += mem * (1.0 - s.timing.random_access_fraction);
    }
    // Interior stages' streaming accesses vanish: the hand-off stays in
    // registers. Their random accesses (hash probes) remain.
    t.random_working_set_bytes += s.timing.random_working_set_bytes;
    private_sum += s.timing.private_bytes_per_item;
    private_max = std::max(private_max, s.timing.private_bytes_per_item);
    local_sum += s.timing.local_bytes_per_item;
    local_max = std::max(local_max, s.timing.local_bytes_per_item);
  }
  t.name += ')';
  // Register/occupancy pressure of the composed body: the stages execute
  // sequentially per item, so the compiler reuses part of each stage's
  // registers; max + half the rest is the conservative-but-reused footprint
  // (the straight sum would overstate the occupancy hit).
  t.private_bytes_per_item = private_max + (private_sum - private_max) / 2;
  t.local_bytes_per_item = local_max + (local_sum - local_max) / 2;
  t.mem_inst_per_row = streaming_inst + random_inst;
  t.random_access_fraction =
      t.mem_inst_per_row > 0.0 ? random_inst / t.mem_inst_per_row : 0.0;
  t.blocking = false;
  return fused;
}

SegmentDesc ComposeFusedSegment(const SegmentDesc& segment,
                                const std::vector<int>& group_sizes) {
  SegmentDesc fused;
  fused.input_bytes = segment.input_bytes;
  fused.extra_resident_bytes = segment.extra_resident_bytes;
  size_t next = 0;
  for (int size : group_sizes) {
    GPL_CHECK(size >= 1);
    fused.stages.push_back(
        ComposeFusedStage(segment.stages, next, static_cast<size_t>(size)));
    next += static_cast<size_t>(size);
  }
  GPL_CHECK(next == segment.stages.size())
      << "group sizes must cover every stage";
  return fused;
}

CostModel::CostModel(const sim::DeviceSpec& device,
                     const CalibrationTable* calibration)
    : device_(device), calibration_(calibration), cache_(device.cache_bytes) {
  GPL_CHECK(calibration_ != nullptr);
}

SegmentEstimate CostModel::EstimateSegment(const SegmentDesc& segment,
                                           const SegmentParams& params) const {
  SegmentEstimate est;
  const int num_stages = static_cast<int>(segment.stages.size());
  GPL_CHECK(num_stages > 0);
  GPL_CHECK(static_cast<int>(params.workgroups.size()) == num_stages);

  // r_Ki: number of tiles (identical across the segment's kernels).
  const double tiles = std::max(
      1.0, std::ceil(segment.input_bytes /
                     static_cast<double>(std::max<int64_t>(params.tile_bytes, 1))));

  // Eq. 2: occupancy constraints over the concurrently resident kernels.
  std::vector<sim::ResourceRequest> requests;
  requests.reserve(static_cast<size_t>(num_stages));
  for (int i = 0; i < num_stages; ++i) {
    sim::ResourceRequest req;
    req.private_bytes_per_item = segment.stages[static_cast<size_t>(i)]
                                     .timing.private_bytes_per_item;
    req.local_bytes_per_item =
        segment.stages[static_cast<size_t>(i)].timing.local_bytes_per_item;
    req.requested_workgroups = params.workgroups[static_cast<size_t>(i)];
    requests.push_back(req);
  }
  const sim::OccupancyResult occ = sim::ComputeOccupancy(device_, requests);

  // Cache residency of channel traffic: in-flight channel data competes with
  // the tile's hot scan window and the segment's hash tables.
  int64_t inflight = 0;
  for (size_t g = 0; g + 1 < static_cast<size_t>(num_stages); ++g) {
    const sim::ChannelConfig& cfg =
        g < params.channels.size() ? params.channels[g] : sim::ChannelConfig{};
    inflight += static_cast<int64_t>(cfg.num_channels) *
                device_.channel_capacity_bytes_per_channel;
  }
  const int64_t competing =
      params.tile_bytes / 2 + segment.extra_resident_bytes;
  const double chan_residency = cache_.ChannelResidency(inflight, competing);
  const int64_t competing_for_random =
      params.tile_bytes / 2 + inflight + segment.extra_resident_bytes;

  const double w = device_.cycles_per_instr;
  const double wf = static_cast<double>(device_.wavefront_size);
  const double num_cus = static_cast<double>(device_.num_cus);

  est.kernel_cycles.resize(static_cast<size_t>(num_stages), 0.0);
  std::vector<double> waves_per_stage(static_cast<size_t>(num_stages), 1.0);
  double sum_kernel_cycles = 0.0;

  for (int i = 0; i < num_stages; ++i) {
    const StageDesc& stage = segment.stages[static_cast<size_t>(i)];
    const int wg = std::max(1, params.workgroups[static_cast<size_t>(i)]);
    const int slots = std::max(1, occ.active_slots[static_cast<size_t>(i)]);

    const double rows_tile = stage.rows_in / tiles;
    const double rows_wg = rows_tile / wg;
    const double iters_wg = std::ceil(std::max(rows_wg, 0.0) / wf);

    // Eq. 3/4: wall-clock computation time per tile. wg work-groups spread
    // over the CUs' ALU pipelines; occupancy (slots) caps how many are
    // resident, so work beyond the slots serializes (req_Ki).
    const double parallel =
        std::min({static_cast<double>(wg), static_cast<double>(slots), num_cus});
    const double waves = std::ceil(static_cast<double>(wg) / parallel);
    waves_per_stage[static_cast<size_t>(i)] = waves;
    const double c_ki = iters_wg * stage.timing.compute_inst_per_row * w * waves;

    // Eq. 5/6: wall-clock memory time per tile.
    double m_ki = 0.0;
    double dc_ki = 0.0;
    const bool reads_global = (i == 0);  // leaf kernel (set_l); set_b kernels
                                         // start their own segments
    const double accesses_wg = iters_wg * stage.timing.mem_inst_per_row;
    // cr_Ki: "profiled" from the cache model, as the paper profiles the
    // first tile with CodeXL.
    double cr = cache_.StreamingHitRatio(8);
    if (stage.timing.random_access_fraction > 0.0) {
      const double rh = cache_.RandomHitRatio(
          stage.timing.random_working_set_bytes, competing_for_random);
      cr = (1.0 - stage.timing.random_access_fraction) * cr +
           stage.timing.random_access_fraction * rh;
    }
    // Co-resident wavefronts of all concurrent kernels hide latency.
    int total_slots = 0;
    for (int j = 0; j < num_stages; ++j) {
      total_slots += std::max(1, occ.active_slots[static_cast<size_t>(j)]);
    }
    const double hide = static_cast<double>(std::clamp(
        total_slots / device_.num_cus, 1, device_.latency_hiding_wavefronts));
    const double latency =
        (1.0 - cr) * device_.global_mem_latency + cr * device_.cache_latency;
    const double latency_wall = accesses_wg * latency / hide * waves;
    if (reads_global) {
      // Eq. 5: streaming global reads, bandwidth-floored.
      const double bw_wall =
          (stage.bytes_in / tiles) / device_.global_bw_bytes_per_cycle;
      m_ki = std::max(latency_wall, bw_wall);
    } else {
      // Eq. 6: channel transfer at the calibrated throughput Γ, corrected
      // for this segment's cache pressure.
      const sim::ChannelConfig& cfg =
          static_cast<size_t>(i - 1) < params.channels.size()
              ? params.channels[static_cast<size_t>(i - 1)]
              : sim::ChannelConfig{};
      const double payload_tile = stage.bytes_in / tiles;
      double gamma = calibration_->Throughput(
          cfg.num_channels, cfg.packet_bytes,
          static_cast<int64_t>(std::max(payload_tile, 1.0)));
      gamma *= std::max(chan_residency, 0.05);
      dc_ki = payload_tile / std::max(gamma, 1e-6);
      // Random side-structure accesses (hash probes) still hit memory.
      m_ki = latency_wall;
    }
    // The last kernel's output is materialized in global memory.
    if (i == num_stages - 1 && stage.bytes_out > 0.0) {
      m_ki += (stage.bytes_out / tiles) / device_.global_bw_bytes_per_cycle;
    }

    // Eq. 7, aggregated over tiles.
    const double t_ki = (c_ki + m_ki + dc_ki) * tiles;
    est.kernel_cycles[static_cast<size_t>(i)] = t_ki;
    sum_kernel_cycles += t_ki;
    est.compute_cycles += c_ki * tiles;
    est.memory_cycles += m_ki * tiles;
    est.channel_cycles += dc_ki * tiles;
  }

  // Eq. 8: delay between adjacent kernels from imbalanced execution speeds.
  // Only part of the imbalance is exposed (slack overlaps with other
  // kernels' work), hence the damping factor.
  constexpr double kDelayExposure = 0.25;
  for (int i = 0; i + 1 < num_stages; ++i) {
    est.delay_cycles += kDelayExposure *
                        std::abs(est.kernel_cycles[static_cast<size_t>(i)] -
                                 est.kernel_cycles[static_cast<size_t>(i + 1)]);
  }
  // Channel-capacity contention: a producer blocks on reservation when the
  // channel holds only a few work-group payloads, capping the in-flight
  // parallelism of the producer/consumer pair.
  for (int i = 0; i + 1 < num_stages; ++i) {
    const StageDesc& producer = segment.stages[static_cast<size_t>(i)];
    const int wg = std::max(1, params.workgroups[static_cast<size_t>(i)]);
    const double payload_wg = producer.bytes_out / tiles / wg;
    if (payload_wg <= 1.0) continue;
    const sim::ChannelConfig& cfg =
        static_cast<size_t>(i) < params.channels.size()
            ? params.channels[static_cast<size_t>(i)]
            : sim::ChannelConfig{};
    const double capacity =
        std::max(static_cast<double>(cfg.num_channels) *
                     device_.channel_capacity_bytes_per_channel,
                 3.0 * payload_wg);  // the simulator guarantees 3 payloads
    const double inflight_wgs = capacity / payload_wg;
    const int slots_i = std::max(1, occ.active_slots[static_cast<size_t>(i)]);
    const double parallel_i =
        std::min(static_cast<double>(wg), static_cast<double>(slots_i));
    // Outstanding reservations gate the producer directly: with fewer
    // in-flight payloads than parallel work-groups, its effective
    // parallelism drops to `inflight_wgs`.
    const double factor = std::max(0.0, parallel_i / inflight_wgs - 1.0);
    est.delay_cycles += factor * est.kernel_cycles[static_cast<size_t>(i)];
  }

  // Pipeline fill/drain delay: a consumer's first work-group cannot start
  // before the producer's first work-group commits, so one "wave" of every
  // stage trickles through the pipeline before it reaches steady state. The
  // exposed fraction shrinks as more waves (tiles x waves per tile) flow.
  {
    double fill = 0.0;
    double total_waves = 0.0;
    for (int i = 0; i < num_stages; ++i) {
      const double waves = waves_per_stage[static_cast<size_t>(i)];
      fill += est.kernel_cycles[static_cast<size_t>(i)] / (tiles * waves);
      total_waves += tiles * waves;
    }
    const double avg_waves = total_waves / num_stages;
    double exposure = static_cast<double>(num_stages) /
                      (avg_waves + static_cast<double>(num_stages));
    // Thrashed channels lengthen every hand-off, compounding the fill
    // bubbles: expose up to the whole fill time.
    exposure = std::min(1.0, exposure * (1.0 + 2.0 * (1.0 - chan_residency)));
    est.delay_cycles += exposure * fill;
  }

  // Eq. 9: ideal overlap across the C-deep concurrent pipeline, plus the
  // host-side overheads (kernel launches and per-tile scheduling).
  const double c_eff =
      std::min<double>(device_.concurrent_kernels, num_stages);
  est.total_cycles =
      sum_kernel_cycles / c_eff + est.delay_cycles +
      static_cast<double>(device_.kernel_launch_cycles) * num_stages +
      static_cast<double>(device_.tile_dispatch_cycles) * tiles;
  return est;
}

SegmentEstimate CostModel::EstimateSegmentSequential(
    const SegmentDesc& segment, const SegmentParams& params) const {
  SegmentEstimate est;
  const int num_stages = static_cast<int>(segment.stages.size());
  GPL_CHECK(num_stages > 0);

  // This mirrors sim::Simulator::RunSequentialTiles / RunKernelBatch formula
  // for formula, but it reads the descriptors the planner had before
  // execution, so it is not exact even when the cardinalities are. Besides
  // λ vs observed rows, a hash build's working set is a guess until the
  // table exists: GplExecutor::DescribeSegment charges 32 B per entry, while
  // a built table of 150 000 rows (TPC-H SF 1 customer) holds 524 288 8-byte
  // buckets plus 24 B per row, about 52 B per row. That segment's estimate is
  // about 30% under what the simulator measures. The sequential path derives
  // its work-group count from the rows per tile (KBE-style launches), so
  // params.workgroups is not consulted.
  const double tiles = std::max(
      1.0, std::ceil(segment.input_bytes /
                     static_cast<double>(std::max<int64_t>(params.tile_bytes, 1))));

  const double wf = static_cast<double>(device_.wavefront_size);
  // Rows one KBE-style work-group covers (sim's kKbeWavefrontsPerWg).
  const double rows_per_wg_target = wf * 4.0;
  // Kernels are loaded once; each tile pays the cheaper dispatch plus half a
  // launch (RunSequentialTiles' "frequent kernel launches" overhead).
  const double per_kernel_overhead =
      static_cast<double>(device_.kernel_launch_cycles) +
      (static_cast<double>(device_.tile_dispatch_cycles) +
       0.5 * static_cast<double>(device_.kernel_launch_cycles)) *
          tiles;

  est.kernel_cycles.resize(static_cast<size_t>(num_stages), 0.0);
  for (int i = 0; i < num_stages; ++i) {
    const StageDesc& stage = segment.stages[static_cast<size_t>(i)];

    const double rows_tile =
        std::max(1.0, std::floor(std::max(stage.rows_in, 0.0) / tiles));
    const double bytes_in_tile = std::max(stage.bytes_in, 0.0) / tiles;
    const double bytes_out_tile = std::max(stage.bytes_out, 0.0) / tiles;

    const int slots = sim::SingleKernelSlots(device_, stage.timing);
    const double wg_total =
        std::max(1.0, std::ceil(rows_tile / rows_per_wg_target));
    const double active = std::min(static_cast<double>(slots), wg_total);
    const double active_cus =
        std::min(static_cast<double>(device_.num_cus), wg_total);
    const int hide_wavefronts =
        std::max(1, static_cast<int>(active / std::max(active_cus, 1.0)));

    const double rows_wg = rows_tile / wg_total;
    const double in_wg = bytes_in_tile / wg_total;
    const double out_wg = bytes_out_tile / wg_total;

    // A tile intermediate that fits in cache next to the segment's working
    // set is served from it (RunSequentialTiles' input residency).
    const double input_resident =
        i > 0 ? cache_.ChannelResidency(
                    static_cast<int64_t>(bytes_in_tile),
                    segment.extra_resident_bytes + params.tile_bytes)
              : 0.0;

    // ComputeWgWork: ALU work, then max(latency, bandwidth) memory work.
    const double iters = std::ceil(rows_wg / wf);
    const double alu =
        iters * stage.timing.compute_inst_per_row * device_.cycles_per_instr;
    const double accesses = iters * stage.timing.mem_inst_per_row;
    double hit = cache_.StreamingHitRatio(8);
    hit = input_resident + (1.0 - input_resident) * hit;
    if (stage.timing.random_access_fraction > 0.0) {
      const double random_hit = cache_.RandomHitRatio(
          stage.timing.random_working_set_bytes, segment.extra_resident_bytes);
      hit = (1.0 - stage.timing.random_access_fraction) * hit +
            stage.timing.random_access_fraction * random_hit;
    }
    const double latency = hit * device_.cache_latency +
                           (1.0 - hit) * device_.global_mem_latency;
    const double hide = static_cast<double>(std::clamp(
        hide_wavefronts, 1, device_.latency_hiding_wavefronts));
    const double latency_cycles = accesses * latency / hide;
    const double global_bw_per_cu =
        device_.global_bw_bytes_per_cycle / device_.num_cus;
    const double cache_bw_per_cu =
        device_.cache_bw_bytes_per_cycle / device_.num_cus;
    const double resident_in = in_wg * input_resident;
    const double dram_bytes = in_wg - resident_in + out_wg;
    const double bw_cycles = dram_bytes / global_bw_per_cu +
                             resident_in / std::max(cache_bw_per_cu, 1.0);
    const double mem = std::max(latency_cycles, bw_cycles);

    const double total_alu = alu * wg_total;
    const double total_mem = mem * wg_total;
    const double exec = std::max(total_alu, total_mem) / active_cus;

    const double t_ki = exec * tiles;
    est.kernel_cycles[static_cast<size_t>(i)] = t_ki;
    est.compute_cycles += total_alu * tiles;
    est.memory_cycles += total_mem * tiles;
    // Kernels never overlap: total is the plain sum plus per-kernel overhead.
    est.total_cycles += t_ki + per_kernel_overhead;
  }
  return est;
}

}  // namespace model
}  // namespace gpl
