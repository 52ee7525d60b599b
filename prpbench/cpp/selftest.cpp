#include "selftest.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "core/checksum.hpp"
#include "pipeline.hpp"
#include "util/json.hpp"

namespace prpbench {

namespace pc = prpb::core;

void selftest(const WorkloadSpec& spec,
              const std::filesystem::path& golden_file,
              const std::filesystem::path& work_dir, CheckLog& log) {
  std::ifstream in(golden_file);
  log.expect(static_cast<bool>(in),
             "golden checksums not found at " + golden_file.string());
  if (!in) return;
  std::stringstream text;
  text << in.rdbuf();
  const auto golden = prpb::util::JsonValue::parse(text.str());

  for (int scale = 8; scale <= 12; ++scale) {
    WorkloadSpec small = spec;
    small.scale = scale;
    PipelineStage stage(small, pc::PipelineConfig{}.seed, work_dir);
    pc::PipelineResult result = stage.full({});
    const std::string label = "selftest scale " + std::to_string(scale);
    const auto& expect = golden.at("scale_" + std::to_string(scale));

    const auto stage0 =
        pc::stage_checksum(stage.store(), pc::stages::kStage0, stage.codec());
    const auto stage1 =
        pc::stage_checksum(stage.store(), pc::stages::kStage1, stage.codec());
    log.expect(
        pc::digest_hex(stage0.multiset) ==
                expect.at("stage0_multiset").string() &&
            pc::digest_hex(stage1.sequence) ==
                expect.at("stage1_sequence").string() &&
            pc::digest_hex(pc::matrix_fingerprint(result.matrix)) ==
                expect.at("matrix_fingerprint").string() &&
            pc::digest_hex(pc::rank_digest(result.ranks)) ==
                expect.at("rank_digest").string(),
        label + ": program digests differ from the golden vectors");

    CheckLog clean;
    check_pipeline(stage, matrix_bits(result.matrix), result.ranks, clean);
    log.expect(clean.ok(), label + ": the benchmark's checks reject golden "
                                   "outputs" +
                               (clean.ok() ? "" : ": " + clean.failures()[0]));

    // One rank entry, moved by a relative 1e-4.
    std::vector<double> ranks = result.ranks;
    auto top = std::max_element(ranks.begin(), ranks.end());
    *top *= 1.0 + 1e-4;
    CheckLog rank_log;
    check_pipeline(stage, matrix_bits(result.matrix), ranks, rank_log);
    log.expect(!rank_log.ok(),
               label + ": a perturbed rank entry passed the checks");

    // One matrix value, moved by one unit in the last place.
    auto& values = result.matrix.mutable_values();
    double& value = values[values.size() / 2];
    value = std::nextafter(value, 2.0);
    CheckLog matrix_log;
    check_pipeline(stage, matrix_bits(result.matrix), result.ranks,
                   matrix_log);
    log.expect(!matrix_log.ok(),
               label + ": a perturbed matrix value passed the checks");
  }
}

}  // namespace prpbench
