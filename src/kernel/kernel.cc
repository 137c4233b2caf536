#include "kernel/kernel.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ektelo {

namespace {
// Relative slack for floating-point budget comparisons: a plan that spends
// exactly eps_total in k pieces must not be rejected for rounding error.
constexpr double kBudgetSlack = 1e-9;

// Domain-separation salt between "seed used for this source's own noise
// draws" and "seed used to derive children": a source that both answers
// measurements and spawns children must not correlate the two.
constexpr uint64_t kNoiseSalt = 0xD1B54A32D192ED03ull;

uint64_t NoiseSeed(uint64_t stream_seed) {
  return SplitMix64(stream_seed ^ kNoiseSalt);
}

uint64_t ChildSeed(uint64_t parent_seed, uint64_t child_index) {
  // SplitMix64 over the golden-ratio-strided (parent, index) pair — the
  // keyed-fork derivation of Rng::Fork(key), inlined on raw seeds so a
  // child's lineage seed is a pure function of the path from the root.
  return SplitMix64(parent_seed +
                    0x9E3779B97F4A7C15ull * (child_index + 1));
}
}  // namespace

PreparedTable::PreparedTable(Table table)
    : table_(std::move(table)), counts_(table_.Vectorize()) {}

std::shared_ptr<const PreparedTable> PreparedTable::Make(Table table) {
  return std::shared_ptr<const PreparedTable>(
      new PreparedTable(std::move(table)));
}

ProtectedKernel::ProtectedKernel(Table table, double eps_total, uint64_t seed)
    : ProtectedKernel(PreparedTable::Make(std::move(table)), eps_total, seed) {}

ProtectedKernel::ProtectedKernel(std::shared_ptr<const PreparedTable> table,
                                 double eps_total, uint64_t seed)
    : eps_total_(eps_total) {
  EK_CHECK_GT(eps_total, 0.0);
  EK_CHECK(table != nullptr);
  // Aliasing shared_ptrs: the root table and counts keep the whole
  // prepared table alive without copying either.
  root_counts_ = std::shared_ptr<const Vec>(table, &table->counts_);
  Node root;
  root.is_table = true;
  root.table = std::shared_ptr<const Table>(table, &table->table_);
  root.stability = 1.0;
  root.stream_seed = SplitMix64(seed);
  root.stream = std::make_unique<NoiseStream>(NoiseSeed(root.stream_seed));
  nodes_.push_back(std::move(root));
}

SourceId ProtectedKernel::AddChild(SourceId parent, Node n) {
  Node& p = nodes_[parent];
  n.parent = parent;
  n.stream_seed = ChildSeed(p.stream_seed, p.child_seq++);
  n.stream = std::make_unique<NoiseStream>(NoiseSeed(n.stream_seed));
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

bool ProtectedKernel::IsTableSourceLocked(SourceId id) const {
  EK_CHECK_LT(id, nodes_.size());
  return nodes_[id].is_table && !nodes_[id].is_partition_dummy;
}

bool ProtectedKernel::IsVectorSourceLocked(SourceId id) const {
  EK_CHECK_LT(id, nodes_.size());
  return !nodes_[id].is_table && !nodes_[id].is_partition_dummy;
}

bool ProtectedKernel::IsTableSource(SourceId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return IsTableSourceLocked(id);
}

bool ProtectedKernel::IsVectorSource(SourceId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return IsVectorSourceLocked(id);
}

const Schema& ProtectedKernel::SourceSchema(SourceId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  EK_CHECK(IsTableSourceLocked(id));
  return nodes_[id].table->schema();
}

std::size_t ProtectedKernel::VectorSize(SourceId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  EK_CHECK(IsVectorSourceLocked(id));
  return nodes_[id].vector->size();
}

double ProtectedKernel::SourceStability(SourceId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  EK_CHECK_LT(id, nodes_.size());
  return nodes_[id].stability;
}

Status ProtectedKernel::CheckVector(SourceId id) const {
  if (id >= nodes_.size())
    return Status::NotFound("unknown source id");
  if (!IsVectorSourceLocked(id))
    return Status::InvalidArgument("source is not a vector");
  return Status::Ok();
}

Status ProtectedKernel::CheckTable(SourceId id) const {
  if (id >= nodes_.size())
    return Status::NotFound("unknown source id");
  if (!IsTableSourceLocked(id))
    return Status::InvalidArgument("source is not a table");
  return Status::Ok();
}

// ----------------------------------------------------------- Algorithm 2

Status ProtectedKernel::Request(SourceId sv, double eps) {
  if (eps < 0.0) return Status::InvalidArgument("negative budget request");
  // RequestImpl only mutates budgets after the root check has passed, so a
  // failed request leaves all bookkeeping untouched.  The caller holds
  // mu_ across the whole walk, which is what makes the charge atomic
  // under concurrency: no other request can interleave between the root
  // admission check and the downstream budget commits.
  return RequestImpl(sv, eps);
}

Status ProtectedKernel::RequestImpl(SourceId sv, double eps) {
  Node& n = nodes_[sv];
  if (!n.parent.has_value()) {
    // Root: the only place budget can actually be refused.
    if (n.budget + eps > eps_total_ * (1.0 + kBudgetSlack) + kBudgetSlack) {
      return Status::BudgetExhausted(
          "request of " + std::to_string(eps) + " exceeds remaining " +
          std::to_string(eps_total_ - n.budget));
    }
    n.budget += eps;
    return Status::Ok();
  }
  Node& p = nodes_[*n.parent];
  if (p.is_partition_dummy) {
    // Parallel composition: the partition variable absorbs only the
    // *increase* of the max over its children (Algorithm 2, lines 4-8).
    const double r = std::max(n.budget + eps - p.budget, 0.0);
    EK_CHECK(p.parent.has_value());
    Status st = RequestImpl(*p.parent, r * p.stability);
    if (!st.ok()) return st;
    p.budget += r;
    n.budget += eps;
    return Status::Ok();
  }
  // Sequential composition scaled by this source's stability (line 10).
  Status st = RequestImpl(*n.parent, n.stability * eps);
  if (!st.ok()) return st;
  n.budget += eps;
  return Status::Ok();
}

// ------------------------------------------------ table transformations

// Transformations stage the derived table/vector *outside* the kernel
// lock: existing nodes are immutable and the deque keeps their references
// stable, so only the validity check and the final AddChild need mu_.

StatusOr<SourceId> ProtectedKernel::TWhere(SourceId src, const Predicate& p) {
  const Node* parent = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    EK_RETURN_IF_ERROR(CheckTable(src));
    parent = &nodes_[src];
  }
  Node n;
  n.is_table = true;
  n.stability = 1.0;
  n.table = std::make_shared<const Table>(parent->table->Where(p));
  std::lock_guard<std::mutex> lock(mu_);
  return AddChild(src, std::move(n));
}

StatusOr<SourceId> ProtectedKernel::TSelect(
    SourceId src, const std::vector<std::string>& attrs) {
  const Node* parent = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    EK_RETURN_IF_ERROR(CheckTable(src));
    for (const auto& a : attrs) {
      if (!nodes_[src].table->schema().HasAttr(a))
        return Status::InvalidArgument("unknown attribute: " + a);
    }
    parent = &nodes_[src];
  }
  Node n;
  n.is_table = true;
  n.stability = 1.0;
  n.table = std::make_shared<const Table>(parent->table->Select(attrs));
  std::lock_guard<std::mutex> lock(mu_);
  return AddChild(src, std::move(n));
}

StatusOr<SourceId> ProtectedKernel::TGroupBy(
    SourceId src, const std::vector<std::string>& attrs) {
  const Node* parent = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    EK_RETURN_IF_ERROR(CheckTable(src));
    parent = &nodes_[src];
  }
  Node n;
  n.is_table = true;
  n.stability = 2.0;  // PINQ: one record moves at most two groups
  n.table = std::make_shared<const Table>(parent->table->GroupBy(attrs));
  std::lock_guard<std::mutex> lock(mu_);
  return AddChild(src, std::move(n));
}

StatusOr<SourceId> ProtectedKernel::TVectorize(SourceId src) {
  const Node* parent = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    EK_RETURN_IF_ERROR(CheckTable(src));
    parent = &nodes_[src];
  }
  Node n;
  n.is_table = false;
  n.stability = 1.0;
  // The root's counts were built with its prepared table; every derived
  // table vectorizes its own rows.
  n.vector = src == root() ? root_counts_
                           : std::make_shared<const Vec>(
                                 parent->table->Vectorize());
  std::lock_guard<std::mutex> lock(mu_);
  return AddChild(src, std::move(n));
}

// ----------------------------------------------- vector transformations

StatusOr<SourceId> ProtectedKernel::VReduceByPartition(SourceId src,
                                                       const Partition& p) {
  const Node* parent = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    EK_RETURN_IF_ERROR(CheckVector(src));
    if (p.num_cells() != nodes_[src].vector->size())
      return Status::InvalidArgument("partition size mismatch");
    parent = &nodes_[src];
  }
  Node n;
  n.is_table = false;
  n.stability = 1.0;  // P is 0/1 with exactly one 1 per column
  n.vector = std::make_shared<const Vec>(
      p.ReduceMatrix().Matvec(*parent->vector));
  std::lock_guard<std::mutex> lock(mu_);
  return AddChild(src, std::move(n));
}

StatusOr<SourceId> ProtectedKernel::VTransform(SourceId src, LinOpPtr m) {
  const Node* parent = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    EK_RETURN_IF_ERROR(CheckVector(src));
    if (m->cols() != nodes_[src].vector->size())
      return Status::InvalidArgument("transform shape mismatch");
    parent = &nodes_[src];
  }
  Node n;
  n.is_table = false;
  n.stability = m->SensitivityL1();  // L1->L1 operator norm
  n.vector = std::make_shared<const Vec>(m->Apply(*parent->vector));
  std::lock_guard<std::mutex> lock(mu_);
  return AddChild(src, std::move(n));
}

StatusOr<std::vector<SourceId>> ProtectedKernel::VSplitByPartition(
    SourceId src, const Partition& p) {
  const Node* parent = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    EK_RETURN_IF_ERROR(CheckVector(src));
    if (p.num_cells() != nodes_[src].vector->size())
      return Status::InvalidArgument("partition size mismatch");
    parent = &nodes_[src];
  }
  const Vec& x = *parent->vector;
  auto groups = p.Groups();
  std::vector<Node> staged;
  staged.reserve(groups.size());
  for (const auto& cells : groups) {
    Vec v;
    v.reserve(cells.size());
    for (std::size_t c : cells) v.push_back(x[c]);
    Node child;
    child.is_table = false;
    child.stability = 1.0;
    child.vector = std::make_shared<const Vec>(std::move(v));
    staged.push_back(std::move(child));
  }
  // One lock for the whole family: the dummy partition variable of
  // Sec. 4.4 plus all children, so their lineage indices are contiguous
  // and the split is atomic in the source table.
  std::lock_guard<std::mutex> lock(mu_);
  Node dummy;
  dummy.is_table = false;
  dummy.is_partition_dummy = true;
  dummy.stability = 1.0;
  SourceId dummy_id = AddChild(src, std::move(dummy));
  std::vector<SourceId> children;
  children.reserve(staged.size());
  for (Node& child : staged)
    children.push_back(AddChild(dummy_id, std::move(child)));
  return children;
}

// ------------------------------------------------------- measurements

StatusOr<Vec> ProtectedKernel::VectorLaplace(SourceId src, const LinOp& m,
                                             double eps) {
  if (eps <= 0.0) return Status::InvalidArgument("eps must be positive");
  // Sensitivity is computed from the query matrix; Algorithm 2 applies the
  // upstream transformation stabilities on top.  Computed before taking
  // the kernel lock — it can trigger a materialization of m.
  const double sens = m.SensitivityL1();
  const double scale = sens / eps;
  Node* node = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    EK_RETURN_IF_ERROR(CheckVector(src));
    if (m.cols() != nodes_[src].vector->size())
      return Status::InvalidArgument("measurement shape mismatch");
    EK_RETURN_IF_ERROR(Request(src, eps));
    transcript_.push_back({src, "VectorLaplace[" + m.DebugName() + "]", eps,
                           scale});
    node = &nodes_[src];
  }
  // The heavy apply runs unlocked: node data is immutable and the deque
  // keeps `node` stable while other branches derive sources.
  Vec y = m.Apply(*node->vector);
  if (scale > 0.0) {
    std::lock_guard<std::mutex> lock(node->stream->mu);
    for (double& v : y) v += node->stream->rng.Laplace(scale);
  }
  return y;
}

StatusOr<double> ProtectedKernel::NoisyCount(SourceId src, double eps) {
  if (eps <= 0.0) return Status::InvalidArgument("eps must be positive");
  Node* node = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    EK_RETURN_IF_ERROR(CheckTable(src));
    EK_RETURN_IF_ERROR(Request(src, eps));
    transcript_.push_back({src, "NoisyCount", eps, 1.0 / eps});
    node = &nodes_[src];
  }
  std::lock_guard<std::mutex> lock(node->stream->mu);
  return static_cast<double>(node->table->NumRows()) +
         node->stream->rng.Laplace(1.0 / eps);
}

StatusOr<std::size_t> ProtectedKernel::WorstApprox(SourceId src,
                                                   const LinOp& workload,
                                                   const Vec& xhat,
                                                   double eps,
                                                   double score_sensitivity) {
  if (eps <= 0.0) return Status::InvalidArgument("eps must be positive");
  if (score_sensitivity <= 0.0)
    return Status::InvalidArgument("score sensitivity must be positive");
  Node* node = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    EK_RETURN_IF_ERROR(CheckVector(src));
    if (workload.cols() != nodes_[src].vector->size() ||
        xhat.size() != nodes_[src].vector->size())
      return Status::InvalidArgument("workload/estimate shape mismatch");
    EK_RETURN_IF_ERROR(Request(src, eps));
    transcript_.push_back({src, "WorstApprox", eps, 0.0});
    node = &nodes_[src];
  }
  Vec truth = workload.Apply(*node->vector);
  Vec approx = workload.Apply(xhat);
  std::vector<double> scores(truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i)
    scores[i] = std::abs(truth[i] - approx[i]) / score_sensitivity;
  std::lock_guard<std::mutex> lock(node->stream->mu);
  return node->stream->rng.ExponentialMechanism(scores, eps);
}

StatusOr<std::size_t> ProtectedKernel::ChooseByVectorScores(
    SourceId src, const std::vector<std::function<double(const Vec&)>>& f,
    double eps, double sensitivity) {
  if (eps <= 0.0 || sensitivity <= 0.0)
    return Status::InvalidArgument("eps and sensitivity must be positive");
  if (f.empty()) return Status::InvalidArgument("no candidates");
  Node* node = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    EK_RETURN_IF_ERROR(CheckVector(src));
    EK_RETURN_IF_ERROR(Request(src, eps));
    transcript_.push_back({src, "ChooseByVectorScores", eps, 0.0});
    node = &nodes_[src];
  }
  std::vector<double> scores(f.size());
  for (std::size_t i = 0; i < f.size(); ++i)
    scores[i] = f[i](*node->vector) / sensitivity;
  std::lock_guard<std::mutex> lock(node->stream->mu);
  return node->stream->rng.ExponentialMechanism(scores, eps);
}

StatusOr<std::size_t> ProtectedKernel::ChooseByTableScores(
    SourceId src, const std::vector<std::function<double(const Table&)>>& f,
    double eps, double sensitivity) {
  if (eps <= 0.0 || sensitivity <= 0.0)
    return Status::InvalidArgument("eps and sensitivity must be positive");
  if (f.empty()) return Status::InvalidArgument("no candidates");
  Node* node = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    EK_RETURN_IF_ERROR(CheckTable(src));
    EK_RETURN_IF_ERROR(Request(src, eps));
    transcript_.push_back({src, "ChooseByTableScores", eps, 0.0});
    node = &nodes_[src];
  }
  std::vector<double> scores(f.size());
  for (std::size_t i = 0; i < f.size(); ++i)
    scores[i] = f[i](*node->table) / sensitivity;
  std::lock_guard<std::mutex> lock(node->stream->mu);
  return node->stream->rng.ExponentialMechanism(scores, eps);
}

}  // namespace ektelo
