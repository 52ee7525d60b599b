#include "layers.hpp"

#include <algorithm>

namespace prpbench {

double SpanTotals::self(const std::string& name) const {
  const auto it = self_s.find(name);
  return it == self_s.end() ? 0.0 : it->second;
}

double SpanTotals::total(const std::string& name) const {
  const auto it = total_s.find(name);
  return it == total_s.end() ? 0.0 : it->second;
}

SpanTotals span_totals(const std::vector<prpb::obs::TraceEvent>& events,
                       std::uint64_t begin_us, std::uint64_t end_us) {
  struct Item {
    const prpb::obs::TraceEvent* event;
    double self_us;
  };
  std::map<std::uint32_t, std::vector<Item>> by_thread;
  for (const auto& e : events) {
    if (e.phase != 'X' || e.ts < begin_us || e.ts >= end_us) continue;
    by_thread[e.tid].push_back({&e, static_cast<double>(e.dur)});
  }

  SpanTotals totals;
  for (auto& [tid, items] : by_thread) {
    // Parents first: earlier start, and the longer span on a tie.
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      if (a.event->ts != b.event->ts) return a.event->ts < b.event->ts;
      return a.event->dur > b.event->dur;
    });
    std::vector<Item*> stack;
    for (Item& item : items) {
      const std::uint64_t start = item.event->ts;
      while (!stack.empty() &&
             stack.back()->event->ts + stack.back()->event->dur <= start) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        // Accumulated codec spans are back-dated, so clip the child to
        // its parent rather than trusting exact nesting.
        Item& parent = *stack.back();
        const std::uint64_t parent_end = parent.event->ts + parent.event->dur;
        const std::uint64_t child_end =
            std::min(parent_end, start + item.event->dur);
        parent.self_us -= static_cast<double>(child_end - start);
      }
      stack.push_back(&item);
    }
    for (const Item& item : items) {
      const std::string& name = item.event->name;
      totals.self_s[name] += std::max(0.0, item.self_us) * 1e-6;
      totals.total_s[name] += static_cast<double>(item.event->dur) * 1e-6;
    }
  }
  return totals;
}

Interval find_span(const std::vector<prpb::obs::TraceEvent>& events,
                   const std::string& name, std::uint64_t begin_us,
                   std::uint64_t end_us) {
  for (const auto& e : events) {
    if (e.phase == 'X' && e.name == name && e.ts >= begin_us &&
        e.ts < end_us) {
      return {e.ts, e.ts + e.dur};
    }
  }
  return {};
}

}  // namespace prpbench
