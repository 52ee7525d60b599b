// Output checks computed apart from the program. The benchmark decodes stage
// bytes with the program's codecs (they are the stages' format), but every
// property it asserts — sort order, edge multisets, the filtered and
// normalized matrix, the PageRank and personalized-PageRank vectors, the
// query replies — it computes with its own code below.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "gen/edge.hpp"
#include "io/stage_codec.hpp"
#include "io/stage_store.hpp"
#include "serve/protocol.hpp"
#include "sparse/csr.hpp"

namespace prpbench {

/// Order-independent digest of an edge multiset.
struct EdgeMultiset {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;  ///< wrapping sum of one 64-bit mix per edge
  std::uint64_t sum2 = 0; ///< ... and of a second, independent mix
  void add(std::uint64_t u, std::uint64_t v);
  bool operator==(const EdgeMultiset&) const = default;
};

/// Kernel-1 check: the k1 stage is sorted by (start, end) across its
/// shards in shard order, and holds exactly the k0 stage's edges.
void check_kernel1(prpb::io::StageStore& store, const std::string& k0_stage,
                   const std::string& k1_stage,
                   const prpb::io::StageCodec& codec, CheckLog& log);

/// The benchmark's own kernel-2 matrix, in CSR arrays.
struct OwnMatrix {
  std::uint64_t n = 0;
  std::vector<std::uint64_t> row_ptr;
  std::vector<std::uint64_t> col;
  std::vector<double> val;
};

/// Every edge of a stage as a packed (start << 32 | end) key, in stage
/// order.
std::vector<std::uint64_t> packed_edges(prpb::io::StageStore& store,
                                        const std::string& stage,
                                        const prpb::io::StageCodec& codec);

/// Builds the count matrix of the packed edges, zeroes the columns whose
/// in-degree (duplicates counted) is the maximum or exactly 1, and scales
/// every non-empty row by the reciprocal of its remaining out-degree.
OwnMatrix own_kernel2(std::vector<std::uint64_t> keys, std::uint64_t n);

/// Exact digest of CSR arrays (shape, structure and value bits).
std::uint64_t matrix_bits(const OwnMatrix& m);
std::uint64_t matrix_bits(const prpb::sparse::CsrMatrix& m);

/// `iterations` updates r = c*(r*A) + (1-c)*sum(r)/N from `r`.
std::vector<double> own_pagerank(const OwnMatrix& a, std::vector<double> r,
                                 int iterations, double c);

/// Personalized PageRank for a proper restart set S (sorted, distinct):
/// r0 = e_S/|S|, then r = c*(r*A), plus (1-c)*sum(r)/|S| on members of S.
std::vector<double> own_ppr(const OwnMatrix& a,
                            const std::vector<std::uint64_t>& restart,
                            int iterations, double c);

/// sum|a-b| / sum|b|.
double relative_l1(const std::vector<double>& a, const std::vector<double>& b);

/// Relative L1 bound for the benchmark's PageRank against kernel 3. The two
/// differ only in floating-point summation order.
inline constexpr double kRankTolerance = 1e-12;

/// Vertex ids by rank, descending, ties toward the smaller id.
std::vector<std::uint64_t> rank_order(const std::vector<double>& ranks);

/// Reply checks for the rank service's light queries; each returns an
/// empty string when the reply is right, else what is wrong.
std::string check_topk(const std::vector<prpb::serve::RankEntry>& reply,
                       std::uint32_t k, const std::vector<double>& ranks,
                       const std::vector<std::uint64_t>& order);
std::string check_neighbors(const std::vector<prpb::serve::RankEntry>& reply,
                            std::uint64_t vertex, const OwnMatrix& a,
                            const std::vector<double>& ranks);
/// A ppr reply's top entries against the benchmark's own vector: values
/// agree to 1e-9 relative and no omitted vertex outranks a returned one.
std::string check_ppr_top(const std::vector<prpb::serve::RankEntry>& reply,
                          const std::vector<double>& own);

}  // namespace prpbench
