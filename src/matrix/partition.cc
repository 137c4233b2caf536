#include "matrix/partition.h"

#include "util/check.h"

namespace ektelo {

Partition::Partition(std::vector<uint32_t> group_of, std::size_t num_groups)
    : group_of_(std::move(group_of)), num_groups_(num_groups) {
  EK_CHECK_GT(num_groups_, 0u);
  for (uint32_t g : group_of_) EK_CHECK_LT(g, num_groups_);
}

Partition Partition::Identity(std::size_t n) {
  std::vector<uint32_t> g(n);
  for (std::size_t i = 0; i < n; ++i) g[i] = static_cast<uint32_t>(i);
  return Partition(std::move(g), n);
}

Partition Partition::FromIntervals(const std::vector<std::size_t>& cuts,
                                   std::size_t n) {
  EK_CHECK(!cuts.empty());
  EK_CHECK_EQ(cuts.front(), 0u);
  std::vector<uint32_t> g(n);
  std::size_t group = 0;
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    const std::size_t start = cuts[k];
    const std::size_t end = (k + 1 < cuts.size()) ? cuts[k + 1] : n;
    EK_CHECK_LT(start, end);
    EK_CHECK_LE(end, n);
    for (std::size_t i = start; i < end; ++i)
      g[i] = static_cast<uint32_t>(group);
    ++group;
  }
  return Partition(std::move(g), group);
}

std::vector<std::vector<std::size_t>> Partition::Groups() const {
  std::vector<std::vector<std::size_t>> groups(num_groups_);
  for (std::size_t i = 0; i < group_of_.size(); ++i)
    groups[group_of_[i]].push_back(i);
  return groups;
}

std::vector<std::size_t> Partition::GroupSizes() const {
  std::vector<std::size_t> sizes(num_groups_, 0);
  for (uint32_t g : group_of_) ++sizes[g];
  return sizes;
}

CsrMatrix Partition::ReduceMatrix() const {
  std::vector<Triplet> t;
  t.reserve(group_of_.size());
  for (std::size_t j = 0; j < group_of_.size(); ++j)
    t.push_back({group_of_[j], j, 1.0});
  // One entry per column, in column order: no comparison sort needed.
  return CsrMatrix::FromColumnStream(num_groups_, group_of_.size(), t);
}

LinOpPtr Partition::ReduceOp() const { return MakeSparse(ReduceMatrix()); }

CsrMatrix Partition::PseudoInverseMatrix() const {
  std::vector<std::size_t> sizes = GroupSizes();
  std::vector<Triplet> t;
  t.reserve(group_of_.size());
  for (std::size_t j = 0; j < group_of_.size(); ++j) {
    const uint32_t g = group_of_[j];
    EK_CHECK_GT(sizes[g], 0u);
    t.push_back({j, g, 1.0 / static_cast<double>(sizes[g])});
  }
  return CsrMatrix::FromTriplets(group_of_.size(), num_groups_, std::move(t));
}

LinOpPtr Partition::PseudoInverseOp() const {
  return MakeSparse(PseudoInverseMatrix());
}

}  // namespace ektelo
