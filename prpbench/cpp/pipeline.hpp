// The pipeline half of every workload: stage store, backend and config for
// one workload and seed; K0 runs, K1-K3 rounds through core::run_pipeline,
// and the per-layer metrics of one traced K0 + K1-K3 sequence.
#pragma once

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "core/backend.hpp"
#include "core/config.hpp"
#include "core/runner.hpp"
#include "io/stage_store.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"

namespace prpbench {

/// Timings of one K1-K3 pass (from core::PipelineResult).
struct RoundTimes {
  double k1_s = 0;
  double k2_s = 0;
  double k3_s = 0;
  double pipeline_s = 0;  ///< K1-K3 wall, barriers included
};
RoundTimes round_times(const prpb::core::PipelineResult& result);

class PipelineStage {
 public:
  PipelineStage(const WorkloadSpec& spec, std::uint64_t seed,
                const std::filesystem::path& work_dir);

  [[nodiscard]] const prpb::core::PipelineConfig& config() const {
    return config_;
  }
  [[nodiscard]] prpb::io::StageStore& store() { return *store_; }
  [[nodiscard]] const prpb::io::StageCodec& codec() const;

  /// Replaces the stage store with an empty one (a fresh directory for dir
  /// stores), so every set-up does the same work.
  void fresh_store();

  /// K0 through the backend's public kernel0 into the current store; returns
  /// its seconds. With tracing, stage I/O goes through the program's
  /// tracing store decorator so its store/codec spans are recorded.
  double kernel0(const prpb::obs::Hooks& hooks);

  /// K1-K3 over the existing k0 stage (core::run_pipeline, run_kernel0 off).
  prpb::core::PipelineResult round(const prpb::obs::Hooks& hooks);

  /// K0-K3 (core::run_pipeline), as prpb-serve starts.
  prpb::core::PipelineResult full(const prpb::obs::Hooks& hooks);

 private:
  prpb::core::PipelineConfig config_;
  std::unique_ptr<prpb::core::PipelineBackend> backend_;
  std::unique_ptr<prpb::io::StageStore> store_;
  std::filesystem::path stage_dir_;
};

/// What the traced run needs to attribute one K0 + K1-K3 sequence.
struct TracedSequence {
  Interval k0;     ///< the K0 run
  Interval round;  ///< the K1-K3 run
  const prpb::core::PipelineResult* result = nullptr;
};

/// Per-layer pipeline metrics (gen., io., sort., sparse., core., model.)
/// from the recorded spans plus the benchmark's isolated calls, which it makes
/// here against the stage's store and the sequence's matrix. Appends a
/// readable breakdown of K1 to `table`.
void pipeline_layers(PipelineStage& stage, prpb::obs::TraceRecorder& recorder,
                     const TracedSequence& sequence, double triad_gbps,
                     MetricMap& out, std::vector<std::string>& table);


/// Independent checks of one pipeline sequence over the stage's store: the
/// K1 stage, the K2 matrix (compared through its exact digest, taken before
/// the matrix moved into the service) and the K3 ranks. Returns the
/// benchmark's own matrix for the serving checks.
OwnMatrix check_pipeline(PipelineStage& stage, std::uint64_t matrix_digest,
                         const std::vector<double>& ranks, CheckLog& log);

}  // namespace prpbench
