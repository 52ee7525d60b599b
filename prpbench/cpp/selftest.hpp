// Validation of the benchmark's own checks, run at the start of every run.
#pragma once

#include <filesystem>

#include "bench.hpp"

namespace prpbench {

/// Runs the workload's pipeline configuration at scales 8-12 with the
/// golden seed and records into `log` that (a) the program's digests equal
/// the committed golden conformance vectors, (b) the benchmark's checks pass
/// on those outputs, and (c) they fail once one rank entry or one matrix
/// value is perturbed.
void selftest(const WorkloadSpec& spec,
              const std::filesystem::path& golden_file,
              const std::filesystem::path& work_dir, CheckLog& log);

}  // namespace prpbench
