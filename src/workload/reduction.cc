#include "workload/reduction.h"

#include <cstring>
#include <map>
#include <vector>

#include "matrix/combinators.h"
#include "util/check.h"

namespace ektelo {

Partition WorkloadBasedPartition(const LinOp& workload, Rng* rng,
                                 std::size_t repeats) {
  EK_CHECK_GE(repeats, 1u);
  const std::size_t m = workload.rows();
  const std::size_t n = workload.cols();

  // h_k = W^T v_k for `repeats` random v.  Group cells by the exact bit
  // patterns of their (h_1[j], ..., h_r[j]) signatures: identical columns
  // produce bitwise-identical dot products because the summation order in
  // ApplyT is column-independent... strictly, exact equality holds when
  // the arithmetic per column is identical, which is true for every LinOp
  // here since columns are processed independently in ApplyT accumulation.
  std::vector<Vec> sigs(repeats);
  for (std::size_t k = 0; k < repeats; ++k) {
    Vec v(m);
    for (auto& x : v) x = rng->Uniform();
    sigs[k] = workload.ApplyT(v);
  }

  std::map<std::vector<uint64_t>, uint32_t> group_of_sig;
  std::vector<uint32_t> group_of(n);
  std::vector<uint64_t> key(repeats);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < repeats; ++k) {
      uint64_t bits;
      std::memcpy(&bits, &sigs[k][j], sizeof(bits));
      key[k] = bits;
    }
    auto [it, inserted] = group_of_sig.emplace(
        key, static_cast<uint32_t>(group_of_sig.size()));
    group_of[j] = it->second;
  }
  return Partition(std::move(group_of), group_of_sig.size());
}

LinOpPtr ReduceWorkload(LinOpPtr workload, const Partition& p) {
  EK_CHECK_EQ(workload->cols(), p.num_cells());
  return MakeProduct(std::move(workload), p.PseudoInverseOp());
}

Vec ExpandEstimate(const Partition& p, const Vec& reduced) {
  EK_CHECK_EQ(reduced.size(), p.num_groups());
  auto sizes = p.GroupSizes();
  Vec x(p.num_cells());
  for (std::size_t j = 0; j < p.num_cells(); ++j) {
    const uint32_t g = p.group_of(j);
    x[j] = reduced[g] / static_cast<double>(sizes[g]);
  }
  return x;
}

}  // namespace ektelo
