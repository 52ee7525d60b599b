// prpbench — the PRPB benchmark program.
//
//   prpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--golden <golden_checksums.json>] [--work-dir <dir>]
//            [--git-sha <sha>] [--perturb rank|matrix]
//
// Every workload runs the system's whole flow through its public entry
// points — K0, K1-K3 (core::run_pipeline), the rank service and server —
// and checks the outputs with the benchmark's own computations. --trace 0
// prints the end-to-end metrics, --trace 1 the per-layer metrics. The last
// stdout line is the result object; the lines before it carry the host
// fingerprint, the run accounting and, when tracing, the per-layer table.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "pipeline.hpp"
#include "selftest.hpp"
#include "serving.hpp"
#include "util/json.hpp"

namespace prpbench {

namespace {

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"pipeline-parallel-s20", "parallel", "mem", "binary", 4, 20, true,
       Traffic::kClosedLight},
      {"pipeline-native-tsv-s18", "native", "dir", "tsv", 4, 18, true,
       Traffic::kClosedLight},
      {"serve-mixed-open", "native", "mem", "tsv", 1, 18, false,
       Traffic::kOpenMixed},
      {"serve-light-closed", "native", "mem", "tsv", 1, 18, false,
       Traffic::kClosedLight},
  };
  return specs;
}

/// Share of --seconds the pipeline workloads spend serving after their
/// K1-K3 rounds.
constexpr double kPipelineServeShare = 0.4;
/// K1-K3 rounds per run at least, whatever --seconds allows; a traced run
/// makes its first round untraced and traces the rest.
constexpr std::size_t kMinRounds = 2;
/// Set-ups per run; setup_s reports their median.
constexpr int kSetups = 3;
/// Traffic is summarized per slice (a fifth of its length) and reported as
/// the median over the slices.
constexpr int kSlices = 5;
/// Sequential ppr requests that give ppr_p50_ms on workloads whose traffic
/// has no ppr.
constexpr int kPprProbes = 9;

struct Options {
  RunArgs run;
  bool ok = false;
};

Options parse(int argc, char** argv) {
  Options options;
  RunArgs& a = options.run;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--golden") {
      a.golden = value;
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else if (key == "--git-sha") {
      a.git_sha = value;
    } else if (key == "--perturb") {
      a.perturb = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("options come in pairs");
  options.ok = have_workload && have_seed && a.seconds > 0 &&
               (a.perturb.empty() || a.perturb == "rank" ||
                a.perturb == "matrix");
  return options;
}

/// Removes the run's working directory however the run ends.
struct RunDir {
  std::filesystem::path path;
  explicit RunDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  ~RunDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

void perturb_rank(std::vector<double>& ranks) {
  auto top = std::max_element(ranks.begin(), ranks.end());
  *top *= 1.0 + 1e-4;
}

void perturb_matrix(prpb::sparse::CsrMatrix& matrix) {
  auto& values = matrix.mutable_values();
  double& value = values[values.size() / 2];
  value = std::nextafter(value, 2.0);
}

std::uint64_t recorder_us(prpb::obs::TraceRecorder& recorder,
                          Clock::time_point t) {
  const double behind = seconds_since(t) * 1e6;
  return recorder.now_us() - static_cast<std::uint64_t>(behind);
}

double overhead_pct(double traced, double untraced) {
  return untraced > 0 ? (traced / untraced - 1.0) * 100.0 : 0.0;
}

struct Run {
  const WorkloadSpec& spec;
  const RunArgs& args;
  Fingerprint fingerprint;
  prpb::obs::TraceRecorder recorder{false};
  prpb::obs::MetricsRegistry registry;
  MetricMap metrics;
  std::vector<std::string> table;
  Accounting accounting;
  CheckLog checks;
  bool invalid = false;

  std::vector<double> setup_s;
  std::vector<RoundTimes> rounds;
  std::uint64_t matrix_digest = 0;
  TrafficResult traffic;
  double serve_seconds = 0;

  Run(const WorkloadSpec& s, const RunArgs& a) : spec(s), args(a) {}

  const Clock::time_point started = Clock::now();
  /// Progress on stderr: where a run's wall time goes.
  void phase(const char* name) const {
    char line[96];
    std::snprintf(line, sizeof line, "prpbench: %-10s done at %6.1f s", name,
                  seconds_since(started));
    note(line);
  }

  prpb::obs::Hooks hooks(bool traced) {
    if (!traced) return {};
    return {&recorder, &registry, nullptr};
  }
  /// The server gets the recorder only: its spans switch on and off with
  /// the recorder, so the untraced half of a traced run is truly untraced.
  prpb::obs::Hooks server_hooks() {
    if (!args.trace) return {};
    return {&recorder, nullptr, nullptr};
  }

  /// Digest of the matrix before it moves on, applying --perturb first.
  void capture(prpb::core::PipelineResult& result) {
    if (args.perturb == "matrix") perturb_matrix(result.matrix);
    if (args.perturb == "rank") perturb_rank(result.ranks);
    matrix_digest = matrix_bits(result.matrix);
  }

  TrafficResult drive(const ServingStack& stack, Traffic kind, double seconds,
                      const RankOracle& oracle, bool record_sends) {
    const std::uint64_t n = stack.service().vertices();
    QueryMix mix;
    if (kind == Traffic::kOpenMixed) {
      mix.ppr = 5;
      return open_loop(stack.port(), n, mix, kOpenRate, seconds, args.seed,
                       oracle, record_sends);
    }
    return closed_loop(stack.port(), n, mix, seconds, kSlices, args.seed,
                       oracle, record_sends);
  }

  /// The measured traffic. Traced runs split it: an untraced half for the
  /// overhead baseline, then a traced half the serve.* layers come from.
  void serve(const ServingStack& stack, double seconds) {
    serve_seconds = seconds;
    RankOracle oracle{&stack.service().ranks(),
                      rank_order(stack.service().ranks())};
    if (!args.trace) {
      traffic = drive(stack, spec.traffic, seconds, oracle, false);
      return;
    }
    const TrafficResult baseline =
        drive(stack, spec.traffic, seconds / 2, oracle, false);
    recorder.set_enabled(true);
    traffic = drive(stack, spec.traffic, seconds / 2, oracle, true);
    recorder.set_enabled(false);
    const std::uint64_t epoch_us = recorder_us(recorder, traffic.epoch);
    const std::uint64_t end_us = recorder.now_us();
    account_traffic(baseline);
    serving_layers(stack, args.seed, recorder.events(), epoch_us, end_us,
                   epoch_us, traffic, metrics);
    const SliceStats traced = slice_stats(traffic, seconds / 2 / kSlices);
    const SliceStats untraced = slice_stats(baseline, seconds / 2 / kSlices);
    char line[200];
    if (spec.traffic == Traffic::kOpenMixed) {
      std::snprintf(line, sizeof line,
                    "tracing overhead: light p50 %.4f ms traced vs %.4f ms "
                    "untraced (%+.1f%%)",
                    traced.light_p50_ms, untraced.light_p50_ms,
                    overhead_pct(traced.light_p50_ms, untraced.light_p50_ms));
    } else {
      std::snprintf(line, sizeof line,
                    "tracing overhead: %.0f req/s traced vs %.0f untraced "
                    "(%+.1f%%)",
                    traced.qps, untraced.qps,
                    overhead_pct(untraced.qps, traced.qps));
    }
    table.emplace_back(line);
  }

  void account_traffic(const TrafficResult& t) {
    accounting.attempted += t.sent;
    accounting.failed += t.failed;
    accounting.add("requests_sent", static_cast<double>(t.sent));
    accounting.add("requests_answered", static_cast<double>(t.answered));
    accounting.add("requests_shed", static_cast<double>(t.shed));
    accounting.add("requests_failed", static_cast<double>(t.failed));
  }

  void pipeline_workload() {
    PipelineStage stage(spec, args.seed, args.work_dir / "run");
    Interval k0_window;
    for (int i = 0; i < kSetups; ++i) {
      const bool traced = args.trace && i + 1 == kSetups;
      stage.fresh_store();
      recorder.set_enabled(traced);
      const std::uint64_t begin = recorder.now_us();
      setup_s.push_back(stage.kernel0(hooks(traced)));
      k0_window = {begin, recorder.now_us()};
      recorder.set_enabled(false);
      accounting.add("kernels", 1);
    }

    // K1-K3 rounds fill the measured time; whole rounds only.
    std::optional<prpb::core::PipelineResult> last;
    Interval round_window;
    std::vector<RoundTimes> untraced;
    const auto t0 = Clock::now();
    do {
      const bool traced = args.trace && !untraced.empty();
      last.reset();
      recorder.set_enabled(traced);
      const std::uint64_t begin = recorder.now_us();
      last = stage.round(hooks(traced));
      round_window = {begin, recorder.now_us()};
      recorder.set_enabled(false);
      (traced ? rounds : untraced).push_back(round_times(*last));
      accounting.add("kernels", 3);
    } while (seconds_since(t0) < args.seconds ||
             untraced.size() + rounds.size() < kMinRounds);
    if (!args.trace) rounds = untraced;
    phase("rounds");

    capture(*last);
    if (args.trace) {
      recorder.set_enabled(true);
      pipeline_layers(stage, recorder, {k0_window, round_window, &*last},
                      fingerprint.triad_gbps, metrics, table);
      recorder.set_enabled(false);
      char line[160];
      std::snprintf(line, sizeof line,
                    "tracing overhead: pipeline %.3f s traced vs %.3f s "
                    "untraced (%+.1f%%)",
                    rounds.back().pipeline_s, untraced.front().pipeline_s,
                    overhead_pct(rounds.back().pipeline_s,
                                 untraced.front().pipeline_s));
      table.emplace_back(line);
    }

    ServingStack stack(std::move(*last), stage.config(), server_hooks());
    last.reset();
    serve(stack, args.seconds * kPipelineServeShare);
    phase("traffic");
    finish(stage, stack);
  }

  void serving_workload() {
    PipelineStage stage(spec, args.seed, args.work_dir / "run");
    std::unique_ptr<ServingStack> stack;
    for (int i = 0; i < kSetups; ++i) {
      // Traced runs keep the first set-up untraced as the overhead baseline.
      const bool traced = args.trace && i > 0;
      stack.reset();
      stage.fresh_store();
      recorder.set_enabled(traced);
      const std::uint64_t begin = recorder.now_us();
      const auto t0 = Clock::now();
      prpb::core::PipelineResult result = stage.full(hooks(traced));
      const double pipeline_s = seconds_since(t0);
      const std::uint64_t end = recorder.now_us();
      recorder.set_enabled(false);
      accounting.add("kernels", 4);
      rounds.push_back(round_times(result));
      capture(result);
      if (args.trace && i + 1 == kSetups) {
        const auto events = recorder.events();
        const Interval k0 = find_span(events, "k0/generate", begin, end);
        recorder.set_enabled(true);
        pipeline_layers(stage, recorder, {k0, {k0.end, end}, &result},
                        fingerprint.triad_gbps, metrics, table);
        recorder.set_enabled(false);
        char line[160];
        std::snprintf(line, sizeof line,
                      "tracing overhead: pipeline %.3f s traced vs %.3f s "
                      "untraced (%+.1f%%)",
                      rounds.back().pipeline_s, rounds.front().pipeline_s,
                      overhead_pct(rounds.back().pipeline_s,
                                   rounds.front().pipeline_s));
        table.emplace_back(line);
      }
      const auto t1 = Clock::now();
      stack = std::make_unique<ServingStack>(std::move(result), stage.config(),
                                             server_hooks());
      setup_s.push_back(pipeline_s + seconds_since(t1));
    }
    phase("set-ups");
    serve(*stack, args.seconds);
    phase("traffic");
    finish(stage, *stack);
  }

  /// Peak memory before any check allocates, then the checks.
  void finish(PipelineStage& stage, const ServingStack& stack) {
    // ppr latency: from the traffic when it carries ppr, else from a short
    // sequential probe after it.
    double ppr_ms = 0;
    if (!args.trace) {
      if (spec.traffic == Traffic::kOpenMixed) {
        ppr_ms = slice_stats(traffic, serve_seconds / kSlices).ppr_p50_ms;
      } else {
        RankOracle oracle{&stack.service().ranks(), {}};
        ppr_ms = median(ppr_probe(stack.port(), stack.service().vertices(),
                                  kPprProbes, args.seed, oracle, traffic));
      }
    }
    account_traffic(traffic);
    const double peak_mib = peak_rss_mib();
    if (spec.traffic == Traffic::kOpenMixed) {
      accounting.detail["generator_lateness_p50_ms"] = traffic.lateness_p50_ms;
      accounting.detail["generator_lateness_p99_ms"] = traffic.lateness_p99_ms;
      accounting.detail["generator_lateness_max_ms"] = traffic.lateness_max_ms;
      invalid = generator_behind(traffic);
    }
    // The wire check runs on the server while the benchmark builds its own
    // matrix.
    CheckLog wire;
    std::thread full_restart([&] {
      try {
        check_full_restart(stack, wire);
      } catch (const std::exception& e) {
        wire.expect(false, std::string("full-restart check failed: ") +
                               e.what());
      }
    });
    const OwnMatrix own = check_pipeline(stage, matrix_digest,
                                         stack.service().ranks(), checks);
    full_restart.join();
    checks.merge(wire);
    check_replies(stack, own, traffic, args.seed, checks);
    phase("checks");

    if (args.trace) return;
    const auto& config = stage.config();
    const double m = static_cast<double>(config.num_edges());
    std::vector<double> k1, k2, k3, wall;
    for (const auto& r : rounds) {
      k1.push_back(m / r.k1_s);
      k2.push_back(m / r.k2_s);
      k3.push_back(config.iterations * m / r.k3_s);
      wall.push_back(r.pipeline_s);
    }
    metrics["setup_s"] = {median(setup_s), "s"};
    metrics["pipeline_s"] = {median(wall), "s"};
    metrics["k1_edges_per_s"] = {median(k1), "edges/s"};
    metrics["k2_edges_per_s"] = {median(k2), "edges/s"};
    metrics["k3_edges_per_s"] = {median(k3), "edges/s"};
    metrics["peak_rss_mb"] = {peak_mib, "MiB"};
    const SliceStats stats = slice_stats(traffic, serve_seconds / kSlices);
    accounting.detail["light_p50_ms"] = stats.light_p50_ms;
    accounting.detail["ppr_p50_ms"] = ppr_ms;
    accounting.detail["light_p99_ms"] = stats.light_p99_ms;
    // An open loop answers at its offered rate while it keeps up.
    accounting.detail["serve_qps"] = spec.traffic == Traffic::kOpenMixed
                                         ? traffic.answered / traffic.elapsed_s
                                         : stats.qps;
    accounting.detail["light_samples"] = traffic.light.size();
    accounting.detail["ppr_samples"] = traffic.ppr.size();
    if (!traffic.ppr.empty()) {
      accounting.detail["ppr_p99_ms"] = stats.ppr_p99_ms;
    }
    accounting.detail["rounds"] = rounds.size();
  }

  void execute() {
    CheckLog self;
    selftest(spec, args.golden, args.work_dir / "selftest", self);
    for (const auto& failure : self.failures()) checks.expect(false, failure);
    phase("selftest");
    accounting.add("selftest_checks", static_cast<double>(self.run()));
    if (spec.pipeline_rounds) {
      pipeline_workload();
    } else {
      serving_workload();
    }
    accounting.add("checks", static_cast<double>(checks.run()));
    accounting.attempted +=
        static_cast<std::uint64_t>(accounting.detail["kernels"]) +
        checks.run() + self.run();
    accounting.failed += checks.failures().size();
  }

  void print() const {
    prpb::util::JsonWriter detail;
    detail.begin_object();
    detail.field("workload", spec.name);
    detail.field("seed", static_cast<std::uint64_t>(args.seed));
    detail.field("trace", args.trace);
    detail.begin_object("accounting");
    for (const auto& [key, value] : accounting.detail) detail.field(key, value);
    detail.end_object();
    detail.begin_array("setup_s");
    for (const double v : setup_s) detail.value(v);
    detail.end_array();
    detail.begin_array("rounds_k1_k2_k3_pipeline_s");
    for (const auto& r : rounds) {
      detail.begin_array();
      for (const double v : {r.k1_s, r.k2_s, r.k3_s, r.pipeline_s}) {
        detail.value(v);
      }
      detail.end_array();
    }
    detail.end_array();
    detail.field("generator_behind", invalid);
    detail.begin_array("check_failures");
    for (const auto& failure : checks.failures()) detail.value(failure);
    detail.end_array();
    detail.end_object();
    std::printf("{\"fingerprint\":%s}\n", fingerprint.json().c_str());
    std::printf("{\"run\":%s}\n", detail.str().c_str());
    for (const auto& line : table) std::printf("# %s\n", line.c_str());
    if (args.trace) {
      for (const auto& [name, metric] : metrics) {
        std::printf("# %-28s %16.6g %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
      }
    }

    prpb::util::JsonWriter out;
    out.begin_object();
    out.field("correct", checks.ok() && !invalid);
    out.field("attempted", static_cast<std::uint64_t>(accounting.attempted));
    out.field("failed", static_cast<std::uint64_t>(accounting.failed));
    out.begin_object("metrics");
    for (const auto& [name, metric] : metrics) {
      out.begin_object(name);
      out.field("value", metric.value);
      out.field("unit", metric.unit);
      out.end_object();
    }
    out.end_object();
    out.end_object();
    std::printf("%s\n", out.str().c_str());
    std::fflush(stdout);
  }
};

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& spec : workloads()) names.push_back(spec.name);
  return names;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (at - static_cast<double>(lo));
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void note(const std::string& line) { std::fprintf(stderr, "%s\n", line.c_str()); }

}  // namespace prpbench

int main(int argc, char** argv) {
  using namespace prpbench;
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& e) {
    note(std::string("prpbench: ") + e.what());
  }
  const WorkloadSpec* spec = find_workload(options.run.workload);
  if (!options.ok || spec == nullptr) {
    std::string names;
    for (const auto& name : workload_names()) names += " " + name;
    note("usage: prpbench --workload <name> --seed <n> --seconds <s> "
         "--trace <0|1> [--golden <file>] [--work-dir <dir>] "
         "[--git-sha <sha>] [--perturb rank|matrix]\nworkloads:" + names);
    return 2;
  }
  RunArgs& args = options.run;
  if (args.golden.empty()) args.golden = "tests/data/golden_checksums.json";
  if (args.work_dir.empty()) {
    args.work_dir = std::filesystem::path(".bench_work") /
                    (spec->name + "-" + std::to_string(::getpid()));
  }
  try {
    Run run(*spec, args);
    // The triad child is forked before this process starts any thread.
    run.fingerprint = host_fingerprint(args.git_sha);
    run.fingerprint.triad_threads =
        spec->backend == "parallel"
            ? static_cast<int>(std::max(1u, std::thread::hardware_concurrency()))
            : 1;
    const std::uint64_t llc = run.fingerprint.llc_bytes;
    run.fingerprint.triad_array_bytes =
        std::max<std::uint64_t>(64ull << 20, ((4 * llc + 2) / 3 + 4095) & ~4095ull);
    run.fingerprint.triad_gbps = probe_triad_gbps(
        run.fingerprint.triad_threads, run.fingerprint.triad_array_bytes);
    {
      RunDir run_dir(args.work_dir);
      run.execute();
    }
    run.print();
    return run.checks.ok() && !run.invalid ? 0 : 1;
  } catch (const std::exception& e) {
    note(std::string("prpbench: run failed: ") + e.what());
    return 2;
  }
}
