// Reduces recorded trace spans to exclusive ("self") time per span name:
// a span's duration minus the part of it covered by spans nested inside it
// on the same thread. Spans come from the program (collected through the
// obs::Hooks it already accepts) and from the benchmark's own spans around
// the public calls it makes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace prpbench {

struct SpanTotals {
  std::map<std::string, double> self_s;   ///< exclusive seconds per name
  std::map<std::string, double> total_s;  ///< inclusive seconds per name

  [[nodiscard]] double self(const std::string& name) const;
  [[nodiscard]] double total(const std::string& name) const;
};

/// Aggregates the complete ('X') events that start in [begin_us, end_us).
SpanTotals span_totals(const std::vector<prpb::obs::TraceEvent>& events,
                       std::uint64_t begin_us, std::uint64_t end_us);

/// [start, end) of the first event called `name` that starts in the
/// window; {0, 0} when there is none.
struct Interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};
Interval find_span(const std::vector<prpb::obs::TraceEvent>& events,
                   const std::string& name, std::uint64_t begin_us,
                   std::uint64_t end_us);

}  // namespace prpbench
