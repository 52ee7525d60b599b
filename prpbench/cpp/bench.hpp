// Shared vocabulary of the prpbench program: workload definitions, run
// arguments, the metric map a run reports, operation accounting and the
// small statistics helpers every phase uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace prpbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

/// Traffic a workload's service is measured under.
enum class Traffic {
  kClosedLight,  ///< nproc closed-loop clients, topk/rank/neighbors only
  kOpenMixed,    ///< one open-loop generator at a fixed rate, ppr included
};

/// One named workload. Every workload runs the system's whole flow —
/// generate (K0), K1-K3, load the rank service, serve queries — and differs
/// in where it spends its measured time.
struct WorkloadSpec {
  std::string name;
  std::string backend;
  std::string storage;       ///< "mem" | "dir"
  std::string stage_format;  ///< "binary" | "tsv"
  std::size_t files = 1;
  int scale = 18;
  /// True: K0 is the set-up and repeated K1-K3 rounds fill the measured
  /// time, followed by a short serving phase. False: set-up is the whole
  /// prpb-serve start (pipeline + service load + listen) and traffic fills
  /// the measured time.
  bool pipeline_rounds = false;
  Traffic traffic = Traffic::kClosedLight;
};

const WorkloadSpec* find_workload(const std::string& name);
std::vector<std::string> workload_names();

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// "" (normal run), "rank" or "matrix": corrupt one program output value
  /// before the checks, to show the checks catch it.
  std::string perturb;
  std::filesystem::path golden;    ///< tests/data/golden_checksums.json
  std::filesystem::path work_dir;  ///< working space inside the checkout
  std::string git_sha = "unknown";
};

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Counts every operation a run attempts; `detail` breaks them down
/// (kernels, checks, requests sent/answered/shed/failed, ...).
struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> detail;
  void add(const std::string& key, double value) { detail[key] += value; }
};

/// Outcome of the independent output checks.
class CheckLog {
 public:
  /// Records one check; `what` names it in the failure list.
  void expect(bool ok, const std::string& what);
  /// Takes over another log's checks and failures.
  void merge(const CheckLog& other);
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] std::uint64_t run() const { return run_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::uint64_t run_ = 0;
  std::vector<std::string> failures_;
};

/// Quantile with linear interpolation between order statistics (q in
/// [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process so far, MiB.
double peak_rss_mib();

inline constexpr double kMiB = 1024.0 * 1024.0;

/// Prints one progress/diagnostic line to stderr.
void note(const std::string& line);

}  // namespace prpbench
