// The protected kernel (paper Sec. 4): the only component that touches
// private data.
//
// The kernel is initialized with a single protected table and a global
// privacy budget eps_total.  Plans run in untrusted client space and
// interact with the kernel exclusively through:
//
//   * Private operators (transformations): the kernel derives a new data
//     source, records its stability w.r.t. its parent in the
//     transformation graph, and returns only an opaque SourceId.
//   * Private->Public operators (measurements): the kernel charges the
//     request through the budget tracker (Algorithm 2) — which implements
//     sequential composition along transformation chains and parallel
//     composition across the children of a partition — and only then
//     returns a noisy answer.
//
// Budget exhaustion returns Status::kBudgetExhausted; the decision is a
// deterministic function of public bookkeeping state, so the failure path
// leaks nothing about the data (Sec. 4.3).
//
// ---- Thread-safety contract ----
//
// The kernel is safe to call from concurrent plan branches.  The budget
// tracker (Algorithm 2's Request walk), the source-node table and the
// transcript are guarded by one kernel mutex: charges are atomic — a
// refused request changes no bookkeeping, and two racing requests can
// never jointly overspend, because each walk holds the lock from leaf
// check to root commit.  Source nodes are immutable after creation (only
// budgets, child counters and noise streams change, each under a lock),
// and the node table is a deque, so measurements read their source's data
// without locking while other branches derive new sources.
//
// Determinism: noise is NOT drawn from one shared generator (whose draw
// order would depend on thread scheduling) but from a per-source stream
// seeded as a pure function of the source's lineage — SplitMix64-mixed
// (parent seed, child index) pairs rooted at the kernel seed, the keyed
// Rng::Fork discipline.  A measurement's noise therefore depends only on
// (kernel seed, source lineage, per-source draw order), making parallel
// plan execution bitwise-identical to serial as long as concurrent
// branches touch disjoint sources (the Sec. 4.4 partition-children
// discipline; measurements on the *same* source still serialize on that
// source's stream lock and keep their program order).  The transcript
// records entries in charge order, which under parallel branches is a
// scheduling-dependent interleaving of the per-branch orders — compare it
// order-normalized.
//
// Shared root table: a PreparedTable is the frozen pair (protected table,
// its T-Vectorize counts), built once by PreparedTable::Make — the only
// place the counts are computed — and immutable from then on.  Any
// number of kernels, on any threads, may hold one concurrently: the
// root node and TVectorize(root()) alias its table and counts through
// shared_ptr<const ...> (refcounts are atomic; the data is never
// written), so opening a kernel costs O(1) in the table's rows.  Every
// other table source — the results of TWhere/TSelect/TGroupBy — is a
// table of its own, wrapped once when derived and vectorized by its own
// TVectorize; only the root reuses the prepared counts.
#ifndef EKTELO_KERNEL_KERNEL_H_
#define EKTELO_KERNEL_KERNEL_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "data/table.h"
#include "matrix/linop.h"
#include "matrix/partition.h"
#include "util/rng.h"
#include "util/status.h"

namespace ektelo {

using SourceId = std::size_t;

/// A protected table frozen for sharing across kernels: the table plus
/// its T-Vectorize counts.  Make() is the only way to build one, and it
/// computes the counts itself, so the counts always belong to the table.
/// Both stay private to the kernel; only the public schema is exposed.
class PreparedTable {
 public:
  static std::shared_ptr<const PreparedTable> Make(Table table);

  /// Schema (public: domains are data-independent).
  const Schema& schema() const { return table_.schema(); }

 private:
  friend class ProtectedKernel;
  explicit PreparedTable(Table table);

  Table table_;
  Vec counts_;  // table_.Vectorize()
};

class ProtectedKernel {
 public:
  /// Init(T, eps_tot): wraps a prepared protected table as the root
  /// source.  The table and its counts are shared, not copied.
  ProtectedKernel(std::shared_ptr<const PreparedTable> table,
                  double eps_total, uint64_t seed);
  /// Init(T, eps_tot) on a table of the caller's; prepares it first.
  ProtectedKernel(Table table, double eps_total, uint64_t seed);

  SourceId root() const { return 0; }
  double eps_total() const { return eps_total_; }
  /// Budget consumed at the root so far (public bookkeeping).
  double BudgetConsumed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return nodes_[0].budget;
  }
  /// Unspent root budget, clamped at 0: repeated charges that sum to
  /// eps_total can overshoot by an ulp under the tracker's FP slack, and
  /// callers must never observe a negative remainder.
  double BudgetRemaining() const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::max(0.0, eps_total_ - nodes_[0].budget);
  }

  // ---- Public metadata (data-independent, safe to expose) ----
  bool IsTableSource(SourceId id) const;
  bool IsVectorSource(SourceId id) const;
  /// Schema of a table source (domains are public).
  const Schema& SourceSchema(SourceId id) const;
  /// Length of a vector source (derived from public domain metadata).
  std::size_t VectorSize(SourceId id) const;
  /// Stability of `id`'s transformation w.r.t. its parent.
  double SourceStability(SourceId id) const;

  // ---- Private operators: table transformations (Sec. 5.1) ----
  StatusOr<SourceId> TWhere(SourceId src, const Predicate& p);
  StatusOr<SourceId> TSelect(SourceId src,
                             const std::vector<std::string>& attrs);
  StatusOr<SourceId> TGroupBy(SourceId src,
                              const std::vector<std::string>& attrs);
  /// T-Vectorize: table -> count vector over the full domain.
  StatusOr<SourceId> TVectorize(SourceId src);

  // ---- Private operators: vector transformations ----
  /// x' = P x (1-stable; P has one 1 per column).
  StatusOr<SourceId> VReduceByPartition(SourceId src, const Partition& p);
  /// General linear transform x' = M x; stability = max L1 column norm.
  StatusOr<SourceId> VTransform(SourceId src, LinOpPtr m);
  /// Split into one child per partition group.  Introduces the dummy
  /// partition variable of Sec. 4.4, so budget composes in parallel
  /// across children.  Children are returned in group order.
  StatusOr<std::vector<SourceId>> VSplitByPartition(SourceId src,
                                                    const Partition& p);

  // ---- Private->Public operators: measurement (Sec. 5.2) ----
  /// Vector Laplace: returns M x + (sens(M)/eps) * Lap(1)^m, charging eps
  /// through Algorithm 2 (which applies upstream stabilities).
  StatusOr<Vec> VectorLaplace(SourceId src, const LinOp& m, double eps);
  /// |D| + Lap(1/eps) on a table source.
  StatusOr<double> NoisyCount(SourceId src, double eps);
  /// Exponential mechanism: index of the workload row with (noisily) the
  /// largest absolute error |w_i x - w_i xhat| (MWEM's query selection).
  /// score_sensitivity must bound the per-row score sensitivity (1 for
  /// 0/1 workloads).
  StatusOr<std::size_t> WorstApprox(SourceId src, const LinOp& workload,
                                    const Vec& xhat, double eps,
                                    double score_sensitivity = 1.0);
  /// Generic exponential mechanism over scores of the private vector.
  StatusOr<std::size_t> ChooseByVectorScores(
      SourceId src, const std::vector<std::function<double(const Vec&)>>& f,
      double eps, double sensitivity);
  /// Generic exponential mechanism over scores of a private table (used by
  /// PrivBayes' mutual-information structure selection).
  StatusOr<std::size_t> ChooseByTableScores(
      SourceId src, const std::vector<std::function<double(const Table&)>>& f,
      double eps, double sensitivity);

  // ---- Transcript (public; for tests and transparency) ----
  struct TranscriptEntry {
    SourceId source;
    std::string op;
    double eps;
    double noise_scale;
  };
  /// Entries appear in charge order.  Only inspect while no kernel calls
  /// are in flight; under parallel branches the interleaving (and the
  /// SourceId values of concurrently derived sources) is
  /// scheduling-dependent, so compare transcripts order-normalized on
  /// (op, eps, noise_scale).
  const std::vector<TranscriptEntry>& transcript() const {
    return transcript_;
  }

 private:
  /// A source's private noise stream plus the lock that serializes draws
  /// on it.  Separately allocated so Node stays movable and stream locks
  /// are per-source (disjoint branches never contend).
  struct NoiseStream {
    explicit NoiseStream(uint64_t seed) : rng(seed) {}
    std::mutex mu;
    Rng rng;
  };

  struct Node {
    bool is_table = false;
    bool is_partition_dummy = false;
    std::optional<SourceId> parent;
    double stability = 1.0;  // w.r.t. parent
    double budget = 0.0;     // B(sv)
    /// Set on table sources; immutable, and shared with the prepared
    /// table at the root.
    std::shared_ptr<const Table> table;
    /// Set on vector sources; immutable, and shared with the prepared
    /// counts for TVectorize(root()).
    std::shared_ptr<const Vec> vector;
    /// Lineage seed: a pure function of (kernel seed, path of child
    /// indices from the root), from which both this source's noise stream
    /// and its children's seeds derive.
    uint64_t stream_seed = 0;
    /// Children derived from this source so far; the next child's seed
    /// mixes this index.  Guarded by mu_.
    uint64_t child_seq = 0;
    std::unique_ptr<NoiseStream> stream;
  };

  /// Algorithm 2.  Charges eps at `sv` and propagates to the root,
  /// multiplying by stabilities and taking the max across partition
  /// children.  Atomic: on failure no budget state changes.  Caller holds
  /// mu_.
  Status Request(SourceId sv, double eps);
  Status RequestImpl(SourceId sv, double eps);

  /// Appends a child of `parent`, deriving its deterministic stream seed
  /// from the parent's seed and child index.  Caller holds mu_.
  SourceId AddChild(SourceId parent, Node n);
  /// Caller holds mu_.
  Status CheckVector(SourceId id) const;
  Status CheckTable(SourceId id) const;
  bool IsTableSourceLocked(SourceId id) const;
  bool IsVectorSourceLocked(SourceId id) const;

  double eps_total_;
  std::shared_ptr<const Vec> root_counts_;  // the prepared root counts
  mutable std::mutex mu_;  // guards nodes_ structure, budgets, transcript
  // Deque: references to existing nodes stay valid while new sources are
  // appended, so measurements read immutable node data without the lock.
  std::deque<Node> nodes_;
  std::vector<TranscriptEntry> transcript_;
};

}  // namespace ektelo

#endif  // EKTELO_KERNEL_KERNEL_H_
