#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "io/edge_files.hpp"

namespace prpbench {

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

std::uint64_t hash_arrays(std::uint64_t rows, std::uint64_t cols,
                          const std::vector<std::uint64_t>& row_ptr,
                          const std::vector<std::uint64_t>& col,
                          const std::vector<double>& val) {
  std::uint64_t h = mix64(rows ^ mix64(cols));
  for (const auto x : row_ptr) h = mix64(h ^ x);
  for (const auto x : col) h = mix64(h + x);
  for (const double x : val) h = mix64(h ^ bits_of(x));
  return h;
}

}  // namespace

void CheckLog::expect(bool ok, const std::string& what) {
  ++run_;
  if (!ok) failures_.push_back(what);
}

void CheckLog::merge(const CheckLog& other) {
  run_ += other.run_;
  failures_.insert(failures_.end(), other.failures_.begin(),
                   other.failures_.end());
}

void EdgeMultiset::add(std::uint64_t u, std::uint64_t v) {
  const std::uint64_t key = (u << 32) ^ v;
  ++count;
  sum += mix64(key);
  sum2 += mix64(key ^ 0x6a09e667f3bcc909ULL) * 0x9e3779b97f4a7c15ULL;
}

void check_kernel1(prpb::io::StageStore& store, const std::string& k0_stage,
                   const std::string& k1_stage,
                   const prpb::io::StageCodec& codec, CheckLog& log) {
  EdgeMultiset k0;
  prpb::io::stream_all_edges(store, k0_stage, codec,
                             [&](const prpb::gen::EdgeList& batch) {
                               for (const auto& e : batch) k0.add(e.u, e.v);
                             });
  EdgeMultiset k1;
  bool sorted = true;
  bool first = true;
  prpb::gen::Edge last{};
  prpb::io::stream_all_edges(
      store, k1_stage, codec, [&](const prpb::gen::EdgeList& batch) {
        for (const auto& e : batch) {
          if (!first && (e.u < last.u || (e.u == last.u && e.v < last.v))) {
            sorted = false;
          }
          first = false;
          last = e;
          k1.add(e.u, e.v);
        }
      });
  log.expect(sorted, "k1 output is not sorted by (start, end)");
  log.expect(k0.count > 0 && k1 == k0,
             "k1 output is not the k0 edge multiset (" +
                 std::to_string(k1.count) + " vs " +
                 std::to_string(k0.count) + " edges)");
}

std::vector<std::uint64_t> packed_edges(prpb::io::StageStore& store,
                                        const std::string& stage,
                                        const prpb::io::StageCodec& codec) {
  std::vector<std::uint64_t> keys;
  prpb::io::stream_all_edges(store, stage, codec,
                             [&](const prpb::gen::EdgeList& batch) {
                               for (const auto& e : batch) {
                                 keys.push_back((e.u << 32) | e.v);
                               }
                             });
  return keys;
}

OwnMatrix own_kernel2(std::vector<std::uint64_t> keys, std::uint64_t n) {
  // Sorting the packed keys groups duplicates, whose run length is the
  // count-matrix entry.
  std::sort(keys.begin(), keys.end());

  std::vector<double> din(n, 0.0);
  for (const auto key : keys) din[key & 0xffffffffULL] += 1.0;
  double max_din = 0.0;
  for (const double d : din) max_din = std::max(max_din, d);
  std::vector<char> dropped(n, 0);
  for (std::uint64_t c = 0; c < n; ++c) {
    dropped[c] = (max_din > 0.0 && din[c] == max_din) || din[c] == 1.0;
  }

  OwnMatrix m;
  m.n = n;
  m.row_ptr.assign(n + 1, 0);
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t j = i;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    const std::uint64_t row = keys[i] >> 32;
    const std::uint64_t col = keys[i] & 0xffffffffULL;
    if (!dropped[col]) {
      m.col.push_back(col);
      m.val.push_back(static_cast<double>(j - i));
      ++m.row_ptr[row + 1];
    }
    i = j;
  }
  for (std::uint64_t r = 0; r < n; ++r) m.row_ptr[r + 1] += m.row_ptr[r];
  for (std::uint64_t r = 0; r < n; ++r) {
    double out = 0.0;
    for (auto k = m.row_ptr[r]; k < m.row_ptr[r + 1]; ++k) out += m.val[k];
    if (out <= 0.0) continue;
    const double inverse = 1.0 / out;
    for (auto k = m.row_ptr[r]; k < m.row_ptr[r + 1]; ++k) m.val[k] *= inverse;
  }
  return m;
}

std::uint64_t matrix_bits(const OwnMatrix& m) {
  return hash_arrays(m.n, m.n, m.row_ptr, m.col, m.val);
}

std::uint64_t matrix_bits(const prpb::sparse::CsrMatrix& m) {
  return hash_arrays(m.rows(), m.cols(), m.row_ptr(), m.col_idx(),
                     m.values());
}

namespace {
// y = x*A by scattering each row of A.
void scatter(const OwnMatrix& a, const std::vector<double>& x,
             std::vector<double>& y) {
  std::fill(y.begin(), y.end(), 0.0);
  for (std::uint64_t r = 0; r < a.n; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (auto k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      y[a.col[k]] += xr * a.val[k];
    }
  }
}
}  // namespace

std::vector<double> own_pagerank(const OwnMatrix& a, std::vector<double> r,
                                 int iterations, double c) {
  std::vector<double> y(a.n);
  for (int it = 0; it < iterations; ++it) {
    double total = 0.0;
    for (const double x : r) total += x;
    scatter(a, r, y);
    const double teleport = (1.0 - c) * total / static_cast<double>(a.n);
    for (std::uint64_t i = 0; i < a.n; ++i) r[i] = c * y[i] + teleport;
  }
  return r;
}

std::vector<double> own_ppr(const OwnMatrix& a,
                            const std::vector<std::uint64_t>& restart,
                            int iterations, double c) {
  const double size = static_cast<double>(restart.size());
  std::vector<double> r(a.n, 0.0);
  for (const auto v : restart) r[v] = 1.0 / size;
  std::vector<double> y(a.n);
  for (int it = 0; it < iterations; ++it) {
    double total = 0.0;
    for (const double x : r) total += x;
    scatter(a, r, y);
    for (std::uint64_t i = 0; i < a.n; ++i) r[i] = c * y[i];
    for (const auto v : restart) r[v] += (1.0 - c) * total / size;
  }
  return r;
}

double relative_l1(const std::vector<double>& a,
                   const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double diff = 0.0;
  double norm = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff += std::abs(a[i] - b[i]);
    norm += std::abs(b[i]);
  }
  return norm > 0.0 ? diff / norm : diff;
}

std::vector<std::uint64_t> rank_order(const std::vector<double>& ranks) {
  std::vector<std::uint64_t> order(ranks.size());
  for (std::uint64_t v = 0; v < order.size(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint64_t a, std::uint64_t b) {
                     return ranks[a] > ranks[b];
                   });
  return order;
}

std::string check_topk(const std::vector<prpb::serve::RankEntry>& reply,
                       std::uint32_t k, const std::vector<double>& ranks,
                       const std::vector<std::uint64_t>& order) {
  const std::size_t want = std::min<std::size_t>(k, order.size());
  if (reply.size() != want) return "topk: wrong entry count";
  for (std::size_t i = 0; i < want; ++i) {
    if (reply[i].vertex != order[i] || reply[i].rank != ranks[order[i]]) {
      return "topk: entry " + std::to_string(i) + " differs";
    }
  }
  return {};
}

std::string check_neighbors(const std::vector<prpb::serve::RankEntry>& reply,
                            std::uint64_t vertex, const OwnMatrix& a,
                            const std::vector<double>& ranks) {
  const auto begin = a.row_ptr[vertex];
  const auto end = a.row_ptr[vertex + 1];
  if (reply.size() != end - begin) {
    return "neighbors(" + std::to_string(vertex) + "): wrong degree";
  }
  for (auto k = begin; k < end; ++k) {
    const auto& entry = reply[k - begin];
    if (entry.vertex != a.col[k] || entry.rank != a.val[k] * ranks[a.col[k]]) {
      return "neighbors(" + std::to_string(vertex) + "): entry differs";
    }
  }
  return {};
}

std::string check_ppr_top(const std::vector<prpb::serve::RankEntry>& reply,
                          const std::vector<double>& own) {
  if (reply.empty()) return "ppr: empty top list";
  std::vector<char> returned(own.size(), 0);
  double lowest = INFINITY;
  for (const auto& entry : reply) {
    if (entry.vertex >= own.size()) return "ppr: vertex out of range";
    const double expect = own[entry.vertex];
    if (std::abs(entry.rank - expect) > 1e-9 * std::abs(expect) + 1e-300) {
      return "ppr: rank of vertex " + std::to_string(entry.vertex) +
             " differs";
    }
    returned[entry.vertex] = 1;
    lowest = std::min(lowest, expect);
  }
  for (std::size_t v = 0; v < own.size(); ++v) {
    if (!returned[v] && own[v] > lowest * (1 + 1e-9)) {
      return "ppr: vertex " + std::to_string(v) + " omitted from the top";
    }
  }
  return {};
}

}  // namespace prpbench
