#include "core/pipeline.h"

#include "common/logging.h"
#include "core/tiling.h"

namespace gpl {

namespace {

/// Pushes one batch through stages [first_stage, end), updating observations
/// and appending the final stage's emissions to *output.
Status FlowBatch(const Segment& segment, size_t first_stage, Table batch,
                 std::vector<StageObservation>* observations, Table* output,
                 bool* output_initialized) {
  for (size_t s = first_stage; s < segment.stages.size(); ++s) {
    StageObservation& obs = (*observations)[s];
    obs.rows_in += batch.num_rows();
    obs.bytes_in += batch.byte_size();
    GPL_ASSIGN_OR_RETURN(Table out, segment.stages[s].kernel->Process(batch));
    obs.rows_out += out.num_rows();
    obs.bytes_out += out.byte_size();
    batch = std::move(out);
    if (batch.num_rows() == 0 && batch.num_columns() == 0) {
      return Status::OK();  // stage withheld output (accumulating kernel)
    }
  }
  if (batch.num_columns() == 0) return Status::OK();
  if (!*output_initialized) {
    *output = std::move(batch);
    *output_initialized = true;
  } else {
    GPL_RETURN_NOT_OK(output->AppendTable(batch));
  }
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

  bool output_initialized = false;
  for (const TileRange& tile : tiles) {
    GPL_RETURN_NOT_OK(FlowBatch(segment, 0, input.Slice(tile.begin, tile.rows),
                                &run.stages, &run.output, &output_initialized));
  }
  if (tiles.empty() && input.num_columns() > 0) {
    // No rows, so no tiles: flow one zero-row slice through the chain
    // anyway, functionally only, so every kernel still sees the input
    // schema (an aggregate types its group columns from it). Zero rows add
    // nothing to the observations and num_tiles stays 0, so the timing
    // simulation is unchanged.
    GPL_RETURN_NOT_OK(FlowBatch(segment, 0, input.Slice(0, 0), &run.stages,
                                &run.output, &output_initialized));
  }

  // Finish cascade: emit withheld state in stage order, flowing each
  // emission through the remaining stages.
  for (size_t s = 0; s < segment.stages.size(); ++s) {
    GPL_ASSIGN_OR_RETURN(Table emitted, segment.stages[s].kernel->Finish());
    if (emitted.num_columns() == 0) continue;
    StageObservation& obs = run.stages[s];
    obs.rows_out += emitted.num_rows();
    obs.bytes_out += emitted.byte_size();
    GPL_RETURN_NOT_OK(FlowBatch(segment, s + 1, std::move(emitted), &run.stages,
                                &run.output, &output_initialized));
  }

  // A hash-build segment's "output" is the materialized hash table: surface
  // its size through the last stage's bytes_out.
  if (segment.output_is_hash_build && !segment.stages.empty()) {
    StageObservation& last = run.stages.back();
    last.bytes_out = segment.stages.back().kernel->MaterializedStateBytes();
  }
  return run;
}

}  // namespace gpl
