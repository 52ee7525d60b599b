#include "pipeline.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

#include "core/kernel_context.hpp"
#include "gen/generator.hpp"
#include "io/edge_files.hpp"
#include "io/traced_store.hpp"
#include "sparse/pagerank.hpp"

namespace prpbench {

namespace pc = prpb::core;

RoundTimes round_times(const pc::PipelineResult& result) {
  RoundTimes t;
  t.k1_s = result.k1.seconds;
  t.k2_s = result.k2.seconds;
  t.k3_s = result.k3.seconds;
  // wall_seconds_total spans K0 too when the run generated the graph.
  t.pipeline_s = result.wall_seconds_total - result.k0.seconds;
  return t;
}

PipelineStage::PipelineStage(const WorkloadSpec& spec, std::uint64_t seed,
                             const std::filesystem::path& work_dir)
    : backend_(pc::make_backend(spec.backend)),
      stage_dir_(work_dir / "stages") {
  config_.scale = spec.scale;
  config_.edge_factor = 16;
  config_.seed = seed;
  config_.num_files = spec.files;
  config_.storage = spec.storage;
  config_.stage_format = spec.stage_format;
  config_.work_dir = stage_dir_;
  config_.validate();
  fresh_store();
}

const prpb::io::StageCodec& PipelineStage::codec() const {
  return pc::make_stage_codec(config_);
}

void PipelineStage::fresh_store() {
  store_.reset();
  if (config_.storage == "dir") {
    std::filesystem::remove_all(stage_dir_);
    std::filesystem::create_directories(stage_dir_);
  }
  store_ = pc::make_stage_store(config_);
}

double PipelineStage::kernel0(const prpb::obs::Hooks& hooks) {
  std::unique_ptr<prpb::io::TracedStageStore> traced;
  prpb::io::StageStore* store = store_.get();
  if (hooks.tracing()) {
    traced = std::make_unique<prpb::io::TracedStageStore>(*store_, hooks);
    store = traced.get();
  }
  pc::KernelContext ctx{config_, *store, "", pc::stages::kStage0,
                        pc::stages::kTemp};
  ctx.hooks = hooks;
  prpb::obs::Span span(hooks.trace, "bench/kernel0");
  const auto t0 = Clock::now();
  backend_->kernel0(ctx);
  return seconds_since(t0);
}

pc::PipelineResult PipelineStage::round(const prpb::obs::Hooks& hooks) {
  pc::RunOptions options;
  options.run_kernel0 = false;
  options.store = store_.get();
  options.hooks = hooks;
  return pc::run_pipeline(config_, *backend_, options);
}

pc::PipelineResult PipelineStage::full(const prpb::obs::Hooks& hooks) {
  pc::RunOptions options;
  options.store = store_.get();
  options.hooks = hooks;
  return pc::run_pipeline(config_, *backend_, options);
}

namespace {

/// Runs `body` inside a benchmark span; returns its seconds.
double timed(prpb::obs::TraceRecorder& recorder, const char* name,
             const std::function<void()>& body) {
  prpb::obs::Span span(&recorder, name);
  const auto t0 = Clock::now();
  body();
  return seconds_since(t0);
}

/// Writes the k0 stage's bytes to a spare stage through the store alone:
/// the store-layer cost of K0's writes, which the program's store span
/// cannot show because K0 generates edges while its shard writers are open.
double isolated_store_write(prpb::io::StageStore& store,
                            prpb::obs::TraceRecorder& recorder) {
  const std::string spare = "bench_store_write";
  double seconds = 0;
  for (const auto& shard : store.list(pc::stages::kStage0)) {
    std::string bytes;
    {
      auto reader = store.open_read(pc::stages::kStage0, shard);
      for (auto chunk = reader->read_chunk(); !chunk.empty();
           chunk = reader->read_chunk()) {
        bytes.append(chunk);
      }
    }
    seconds += timed(recorder, "bench/store_write", [&] {
      auto writer = store.open_write(spare, shard);
      constexpr std::size_t kPiece = 1 << 20;
      for (std::size_t at = 0; at < bytes.size(); at += kPiece) {
        writer->buffer().append(bytes, at, kPiece);
        writer->maybe_flush();
      }
      writer->close();
    });
  }
  store.remove(spare);
  return seconds;
}

}  // namespace

void pipeline_layers(PipelineStage& stage, prpb::obs::TraceRecorder& recorder,
                     const TracedSequence& sequence, double triad_gbps,
                     MetricMap& out, std::vector<std::string>& table) {
  const pc::PipelineConfig& config = stage.config();
  const pc::PipelineResult& result = *sequence.result;
  const double m = static_cast<double>(config.num_edges());
  const double n = static_cast<double>(config.num_vertices());

  double generate_s = 0;
  {
    const auto generator = prpb::gen::make_generator(
        config.generator, config.scale, config.edge_factor, config.seed);
    prpb::gen::EdgeList edges;
    edges.reserve(generator->num_edges());
    generate_s = timed(recorder, "bench/generate", [&] {
      generator->generate_range(0, generator->num_edges(), edges);
    });
  }
  const double k0_write_s = isolated_store_write(stage.store(), recorder);
  const double transpose_s = timed(recorder, "bench/transpose", [&] {
    const auto t = result.matrix.transpose();
    (void)t;
  });

  const auto events = recorder.events();
  const SpanTotals k0 =
      span_totals(events, sequence.k0.begin, sequence.k0.end);
  const SpanTotals round =
      span_totals(events, sequence.round.begin, sequence.round.end);
  const Interval k1w = find_span(events, "k1/sort", sequence.round.begin,
                                 sequence.round.end);
  const SpanTotals k1 = span_totals(events, k1w.begin, k1w.end);
  const Interval k2w = find_span(events, "k2/filter", sequence.round.begin,
                                 sequence.round.end);
  const SpanTotals k2 = span_totals(events, k2w.begin, k2w.end);

  const auto sort_self = [](const SpanTotals& t) {
    return t.self("k1/merge_sort") + t.self("k1/radix_sort") +
           t.self("k1/radix_partition") + t.self("k1/sort/run_gen") +
           t.self("k1/sort/merge_pass") + t.self("k1/sort/final_merge");
  };
  const double k0_bytes =
      static_cast<double>(stage.store().stage_bytes(pc::stages::kStage0));
  const double k1_bytes =
      static_cast<double>(stage.store().stage_bytes(pc::stages::kStage1));
  const RoundTimes times = round_times(result);

  const auto put = [&](const std::string& name, double value,
                       const char* unit) { out[name] = {value, unit}; };
  put("gen.generate_s", generate_s, "s");
  put("io.encode_s", k0.self("codec/encode") + round.self("codec/encode"),
      "s");
  put("io.encode_mb", (k0_bytes + k1_bytes) / kMiB, "MiB");
  put("io.store_write_s", k0_write_s + round.self("store/write_shard"), "s");
  put("io.store_write_mb",
      (k0_bytes + static_cast<double>(result.k1.bytes_written)) / kMiB,
      "MiB");
  put("io.store_read_s", round.self("store/read_shard"), "s");
  put("io.store_read_mb",
      static_cast<double>(result.k1.bytes_read + result.k2.bytes_read) /
          kMiB,
      "MiB");
  const double decode_s = round.self("codec/decode");
  put("io.decode_s", decode_s, "s");
  put("io.decode_edges_per_s", decode_s > 0 ? 2.0 * m / decode_s : 0,
      "edges/s");
  put("io.stage_mb", (k0_bytes + k1_bytes) / kMiB, "MiB");
  const double sort_s = sort_self(round);
  put("sort.sort_s", sort_s, "s");
  put("sort.edges_per_s", sort_s > 0 ? m / sort_s : 0, "edges/s");
  put("sparse.filter_s",
      round.self("k2/filter_edges") + round.self("k2/build_filter"), "s");
  const double nnz = static_cast<double>(result.matrix.nnz());
  put("sparse.nnz", nnz, "count");
  put("sparse.transpose_s", transpose_s, "s");
  const double iter_s = round.total("k3/iter");
  put("sparse.k3_iter_s", iter_s, "s");
  put("sparse.k3_setup_s",
      std::max(0.0, round.total("k3/pagerank") - iter_s), "s");
  // Modeled DRAM traffic of one SpMV + update: column index and value per
  // nonzero, the row pointers, and four passes over an N-vector (read r,
  // clear and accumulate y, read y and write r in the update).
  const double spmv_bytes = nnz * 16.0 + (n + 1) * 8.0 + 4.0 * n * 8.0;
  put("sparse.spmv_bytes_per_iter", spmv_bytes, "B");
  const double spmv_gbps =
      iter_s > 0 ? spmv_bytes * config.iterations / iter_s / 1e9 : 0;
  put("sparse.spmv_gbps", spmv_gbps, "GB/s");
  put("sparse.roof_fraction", triad_gbps > 0 ? spmv_gbps / triad_gbps : 0,
      "ratio");
  put("model.triad_gbps", triad_gbps, "GB/s");
  put("core.runner_s",
      std::max(0.0, times.pipeline_s - times.k1_s - times.k2_s - times.k3_s),
      "s");
  put("core.k1_other_s",
      k1.self("k1/sort") + k1.self("k1/read") + k1.self("k1/write"), "s");
  put("core.k2_other_s", k2.self("k2/filter") + k2.self("k2/read"), "s");

  char line[320];
  std::snprintf(line, sizeof line,
                "K1 %.3f s = decode %.3f + store read %.3f + sort %.3f + "
                "encode %.3f + store write %.3f + other %.3f",
                k1.total("k1/sort"), k1.self("codec/decode"),
                k1.self("store/read_shard"), sort_self(k1),
                k1.self("codec/encode"), k1.self("store/write_shard"),
                out["core.k1_other_s"].value);
  table.emplace_back(line);
  std::snprintf(line, sizeof line,
                "K2 %.3f s = decode %.3f + store read %.3f + filter %.3f + "
                "other %.3f",
                k2.total("k2/filter"), k2.self("codec/decode"),
                k2.self("store/read_shard"), out["sparse.filter_s"].value,
                out["core.k2_other_s"].value);
  table.emplace_back(line);
  std::snprintf(line, sizeof line,
                "K3 %.3f s = 20 iterations %.3f + set-up %.3f",
                round.total("k3/pagerank"), iter_s,
                out["sparse.k3_setup_s"].value);
  table.emplace_back(line);
}


OwnMatrix check_pipeline(PipelineStage& stage, std::uint64_t matrix_digest,
                         const std::vector<double>& ranks, CheckLog& log) {
  const pc::PipelineConfig& config = stage.config();
  // The k1 check reads the stages only; it overlaps the benchmark's own K2.
  CheckLog k1_log;
  std::thread k1_check([&] {
    try {
      check_kernel1(stage.store(), pc::stages::kStage0, pc::stages::kStage1,
                    stage.codec(), k1_log);
    } catch (const std::exception& e) {
      k1_log.expect(false, std::string("k1 check failed: ") + e.what());
    }
  });
  OwnMatrix own = own_kernel2(
      packed_edges(stage.store(), pc::stages::kStage0, stage.codec()),
      config.num_vertices());
  log.expect(matrix_bits(own) == matrix_digest,
             "k2 matrix differs from the benchmark's own build");
  const double error = relative_l1(
      own_pagerank(own,
                   prpb::sparse::pagerank_initial_vector(config.num_vertices(),
                                                         config.seed),
                   config.iterations, config.damping),
      ranks);
  char what[120];
  std::snprintf(what, sizeof what,
                "k3 ranks differ from the benchmark's own iteration "
                "(relative L1 %.3g)",
                error);
  log.expect(error <= kRankTolerance, what);
  k1_check.join();
  log.merge(k1_log);
  return own;
}

}  // namespace prpbench
