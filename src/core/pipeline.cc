#include "core/pipeline.h"

#include "common/logging.h"
#include "core/tiling.h"

namespace gpl {

namespace {

/// Pushes one batch through stages [first_stage, end), updating observations
/// and collecting the final stage's emissions in *outputs.
Status FlowBatch(const Segment& segment, size_t first_stage, RowBatch batch,
                 std::vector<StageObservation>* observations,
                 std::vector<RowBatch>* outputs) {
  for (size_t s = first_stage; s < segment.stages.size(); ++s) {
    StageObservation& obs = (*observations)[s];
    obs.rows_in += batch.num_rows();
    obs.bytes_in += batch.byte_size();
    GPL_ASSIGN_OR_RETURN(RowBatch out,
                         segment.stages[s].kernel->ProcessBatch(batch));
    obs.rows_out += out.num_rows();
    obs.bytes_out += out.byte_size();
    batch = std::move(out);
    if (batch.num_columns() == 0) {
      return Status::OK();  // stage withheld output (accumulating kernel)
    }
  }
  if (batch.num_columns() > 0) outputs->push_back(std::move(batch));
  return Status::OK();
}

}  // namespace

Result<FunctionalRun> RunSegmentFunctional(const Segment& segment,
                                           const Table& input,
                                           int64_t tile_bytes) {
  FunctionalRun run;
  run.stages.resize(segment.stages.size());
  run.input_rows = input.num_rows();
  run.input_bytes = input.byte_size();

  const std::vector<TileRange> tiles =
      MakeTiles(input.num_rows(), input.row_width(), tile_bytes);
  run.num_tiles = static_cast<int64_t>(tiles.size());

  // A tile is a range over the input: stages gather the columns they read
  // and pass positions on, and only the segment output materializes, once.
  std::vector<RowBatch> outputs;
  for (const TileRange& tile : tiles) {
    GPL_RETURN_NOT_OK(FlowBatch(segment, 0,
                                RowBatch::Range(input, tile.begin, tile.rows),
                                &run.stages, &outputs));
  }
  if (tiles.empty() && input.num_columns() > 0) {
    // No rows, so no tiles: flow one zero-row batch through the chain
    // anyway, functionally only, so every kernel still sees the input
    // schema (an aggregate types its group columns from it). Zero rows add
    // nothing to the observations and num_tiles stays 0, so the timing
    // simulation is unchanged.
    GPL_RETURN_NOT_OK(FlowBatch(segment, 0, RowBatch::Range(input, 0, 0),
                                &run.stages, &outputs));
  }

  // Finish cascade: emit withheld state in stage order, flowing each
  // emission through the remaining stages.
  for (size_t s = 0; s < segment.stages.size(); ++s) {
    GPL_ASSIGN_OR_RETURN(Table emitted, segment.stages[s].kernel->Finish());
    if (emitted.num_columns() == 0) continue;
    StageObservation& obs = run.stages[s];
    obs.rows_out += emitted.num_rows();
    obs.bytes_out += emitted.byte_size();
    GPL_RETURN_NOT_OK(FlowBatch(segment, s + 1, RowBatch(std::move(emitted)),
                                &run.stages, &outputs));
  }
  GPL_ASSIGN_OR_RETURN(run.output, RowBatch::Concatenate(outputs));

  // A hash-build segment's "output" is the materialized hash table: surface
  // its size through the last stage's bytes_out.
  if (segment.output_is_hash_build && !segment.stages.empty()) {
    StageObservation& last = run.stages.back();
    last.bytes_out = segment.stages.back().kernel->MaterializedStateBytes();
  }
  return run;
}

}  // namespace gpl
