#ifndef GPL_CORE_PIPELINE_H_
#define GPL_CORE_PIPELINE_H_

#include <vector>

#include "common/status.h"
#include "plan/segment.h"
#include "storage/table.h"

namespace gpl {

/// Observed (functional) cardinalities of one pipeline stage across a
/// segment run: the ground truth that drives the timing simulation.
struct StageObservation {
  int64_t rows_in = 0;
  int64_t bytes_in = 0;
  int64_t rows_out = 0;
  int64_t bytes_out = 0;
};

/// Result of functionally executing a segment tile-by-tile.
struct FunctionalRun {
  Table output;
  std::vector<StageObservation> stages;
  int64_t input_rows = 0;
  int64_t input_bytes = 0;
  int64_t num_tiles = 0;
};

/// Streams `input` through the segment's kernel chain in tiles of at most
/// `tile_bytes`, computing real results and recording per-stage
/// cardinalities. An empty input makes no tiles but still flows one
/// zero-row batch, so kernels learn its schema. After the last tile,
/// kernels' Finish() outputs cascade through the remaining stages
/// (aggregates emit here).
Result<FunctionalRun> RunSegmentFunctional(const Segment& segment,
                                           const Table& input,
                                           int64_t tile_bytes);

}  // namespace gpl

#endif  // GPL_CORE_PIPELINE_H_
