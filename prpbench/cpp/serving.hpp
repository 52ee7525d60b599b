// The serving half of every workload: the rank service and server built
// from a pipeline result (as prpb-serve builds them), the two load
// generators, the in-process handler/protocol probes of the traced run,
// and the checks of the replies.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "core/config.hpp"
#include "core/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace prpbench {

/// RankService + listening RankServer with the default server options.
class ServingStack {
 public:
  /// Takes the result's matrix and ranks.
  ServingStack(prpb::core::PipelineResult&& result,
               const prpb::core::PipelineConfig& config,
               const prpb::obs::Hooks& hooks);
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  [[nodiscard]] const prpb::serve::RankService& service() const {
    return *service_;
  }
  [[nodiscard]] std::uint16_t port() const { return server_->port(); }

 private:
  std::unique_ptr<prpb::serve::RankService> service_;
  std::unique_ptr<prpb::serve::RankServer> server_;  // after service_
};

/// Query mix weights (topk, rank, neighbors, ppr) and ppr shape.
struct QueryMix {
  double topk = 45;
  double rank = 30;
  double neighbors = 20;
  double ppr = 0;
};
inline constexpr std::uint32_t kTopk = 10;
inline constexpr std::uint32_t kPprIterations = 3;
inline constexpr std::uint32_t kPprRestart = 8;
/// Arrival rate of the open-loop generator, requests/s.
inline constexpr double kOpenRate = 1000;

/// A reply kept for checking once the benchmark's own matrix exists.
struct KeptReply {
  prpb::serve::Request request;
  std::vector<prpb::serve::RankEntry> entries;
};

struct TrafficResult {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;  ///< shed, error replies and unanswered
  double elapsed_s = 0;
  /// Latency samples; `at_s` (seconds since `epoch`) is the completion time
  /// in the closed loop and the due time in the open loop.
  struct Sample {
    double at_s;
    double ms;
  };
  std::vector<Sample> light;
  std::vector<Sample> ppr;
  /// Send instants (steady clock, seconds since `epoch`), sorted; recorded
  /// only when asked, to pair requests with the server's spans.
  std::vector<double> send_s;
  Clock::time_point epoch;
  /// Open loop: send time minus due time.
  double lateness_p50_ms = 0;
  double lateness_p99_ms = 0;
  double lateness_max_ms = 0;
  std::vector<std::string> errors;  ///< reply check failures
  std::vector<KeptReply> kept;      ///< neighbors and ppr replies to check
};

/// Traffic figures taken per time slice and reported as the median over
/// the slices, so one burst of noise from outside moves one slice only.
struct SliceStats {
  std::size_t slices = 0;
  double qps = 0;  ///< answered requests per second (closed loop)
  double light_p50_ms = 0;
  double light_p99_ms = 0;
  double ppr_p50_ms = 0;
  double ppr_p99_ms = 0;
};
SliceStats slice_stats(const TrafficResult& traffic, double slice_s);

/// Oracle for the replies that need only the rank vector.
struct RankOracle {
  const std::vector<double>* ranks = nullptr;
  std::vector<std::uint64_t> order;  ///< the benchmark's own sort
};

/// nproc closed-loop clients (one connection each) for `seconds`, split
/// into `waves` back-to-back waves that each connect afresh.
TrafficResult closed_loop(std::uint16_t port, std::uint64_t vertices,
                          const QueryMix& mix, double seconds, int waves,
                          std::uint64_t seed, const RankOracle& oracle,
                          bool record_sends);

/// One open-loop generator over nproc connections: Poisson arrivals at
/// `rate` for `seconds`, latency timed from each request's due time.
TrafficResult open_loop(std::uint16_t port, std::uint64_t vertices,
                        const QueryMix& mix, double rate, double seconds,
                        std::uint64_t seed, const RankOracle& oracle,
                        bool record_sends);

/// `count` ppr requests sent one after another over one connection (the
/// ppr latency of workloads whose traffic has no ppr). Counts them in
/// `into` and keeps their replies for the checks; returns latencies, ms.
std::vector<double> ppr_probe(std::uint16_t port, std::uint64_t vertices,
                              int count, std::uint64_t seed,
                              const RankOracle& oracle, TrafficResult& into);

/// True when the open-loop generator fell behind its schedule: its typical
/// request went out over a millisecond late. Single stalls of a few ms are
/// expected — the generator shares the vCPUs with the server's workers —
/// and are counted in the latencies, which run from each due time.
bool generator_behind(const TrafficResult& traffic);

/// serve.* per-layer metrics: direct RankService handler calls, in-process
/// protocol round trips, idle ping RTT, and queue wait from the traced
/// traffic (the server's serve/request spans paired with the sends in
/// FIFO order — the server's queue is one FIFO).
void serving_layers(const ServingStack& stack, std::uint64_t seed,
                    const std::vector<prpb::obs::TraceEvent>& events,
                    std::uint64_t begin_us, std::uint64_t end_us,
                    std::uint64_t epoch_us, const TrafficResult& traffic,
                    MetricMap& out);

/// Checks the kept replies against the benchmark's own matrix, and a few
/// subset-ppr requests over the wire against its own personalized
/// iteration.
void check_replies(const ServingStack& stack, const OwnMatrix& own,
                   const TrafficResult& traffic, std::uint64_t seed,
                   CheckLog& log);

/// A full-restart ppr over the wire must reproduce the kernel-3 rank
/// digest bit for bit.
void check_full_restart(const ServingStack& stack, CheckLog& log);

}  // namespace prpbench
