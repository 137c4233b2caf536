// Process-global metrics registry: lock-free sharded counters, gauges,
// and fixed-log-bucket histograms, exported in Prometheus text format
// (obs/export.h) and surfaced through the serve protocol.
//
// EKTELO's core claim is transparency — plans are inspectable operator
// compositions with explicit accounting — and this layer extends that
// to the *running system*: every subsystem (serve lifecycle, plan
// pipeline, rewrite, solvers, ledger I/O, ParallelFor) reports into one
// registry under one naming scheme, the single source of truth for its
// counters.
//
// Two hard invariants, mirrored from util/failpoint.h:
//
//   1. Observability NEVER changes an answer.  Metrics and spans are
//      passive observers: no RNG, no floating-point state, no
//      scheduling decision consults them.  Replies and plan outputs are
//      bitwise identical with observability armed or disarmed (asserted
//      registry-wide by tests/obs_test.cc).
//   2. The disarmed hot path costs one relaxed atomic load.  Counters
//      are always live (they are the daemon's only request counts, read
//      through the Prometheus scrape, and cost one relaxed add on a
//      cacheline-padded per-thread shard — cheaper than the mutexed
//      ints they replaced), but everything that needs
//      a clock (latency histograms via obs::Span, trace recording)
//      checks a single process-global relaxed atomic and bails.
//
// Arming: EKTELO_OBS=0 disarms timing (default armed: scrapes carry
// latency data out of the box); EKTELO_TRACE=1 arms per-request trace
// recording (default off — see obs/trace.h).  Both have programmatic
// setters for tests and the overhead bench.
//
// Metric references returned by the registry are stable for the process
// lifetime; instrumentation sites hold them in function-local statics.
#ifndef EKTELO_OBS_METRICS_H_
#define EKTELO_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace ektelo::obs {

// ---------------------------------------------------------------- arming

/// Bit set in the process-global arming word.
enum ArmedBit : uint32_t {
  kTimingArmed = 1u << 0,  ///< Span reads the clock + feeds histograms
  kTraceArmed = 1u << 1,   ///< Span records into the current RequestTrace
};

namespace internal {
/// The one word every disarmed fast path loads.  Initialized from
/// EKTELO_OBS / EKTELO_TRACE before main() (metrics.cc); until then it
/// reads 0 = fully disarmed, which only skips pre-main span timing.
extern std::atomic<uint32_t> g_armed;
}  // namespace internal

/// The disarmed-fast-path check: one relaxed atomic load.
inline uint32_t ArmedFlags() {
  return internal::g_armed.load(std::memory_order_relaxed);
}

inline bool TimingEnabled() { return (ArmedFlags() & kTimingArmed) != 0; }
inline bool TraceEnabled() { return (ArmedFlags() & kTraceArmed) != 0; }

/// Programmatic overrides (tests, the overhead bench, the daemon's
/// --trace flag).  Thread-safe; take effect on the next ArmedFlags load.
void SetTimingEnabled(bool on);
void SetTraceEnabled(bool on);

// ----------------------------------------------------------------- clock

/// Monotonic nanoseconds since the first call in this process (one
/// fixed steady_clock base, so every span and log line shares an
/// origin).  Only called on armed paths.
uint64_t NowNs();

/// Small dense id of the calling thread (1-based, assigned on first
/// use).  Stable for the thread's lifetime; keys trace events and
/// selects metric shards.
uint32_t ThreadId();

// --------------------------------------------------------------- metrics

/// Shard count for counters and histograms.  Power of two; threads map
/// by ThreadId() & (kShards - 1), so up to kShards writers never share
/// a cacheline.
inline constexpr std::size_t kMetricShards = 16;

/// Monotone counter: lock-free sharded relaxed adds, aggregated on
/// read.  Constructible standalone (per-instance stats) or registered
/// (Registry::GetCounter) — the registered ones are what the Prometheus
/// exporter walks.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t n = 1) {
    shards_[ThreadId() & (kMetricShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  /// Zeroes every shard.  For per-instance and test counters only — a
  /// registered counter must stay monotone (scrapers read a reset as a
  /// process restart).
  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// Last-write-wins double gauge (budget balances, cache occupancy,
/// degradation flags).  Stored as IEEE-754 bits in one atomic word.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    bits_.store(bits, std::memory_order_relaxed);
  }

  double Value() const {
    const uint64_t bits = bits_.load(std::memory_order_relaxed);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

 private:
  std::atomic<uint64_t> bits_{0};  // bit pattern of +0.0
};

/// Fixed-log-bucket histogram: kBuckets base-2 buckets with
/// deterministic edges kMinEdge * 2^i (microsecond granularity at the
/// bottom, ~9.5 hours at the top when observing seconds) plus an
/// overflow bucket.  Edges are compile-time constants, so bucket
/// placement is a pure function of the observed value — goldens in
/// tests/obs_test.cc pin it.  Observation is a sharded relaxed
/// increment plus a CAS-add into the shard's sum; aggregation happens
/// on read.
class Histogram {
 public:
  static constexpr int kBuckets = 40;
  static constexpr double kMinEdge = 1e-6;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Upper edge of bucket i ("le" label): kMinEdge * 2^i.
  static double BucketEdge(int i);

  /// Index of the bucket counting `v`: the first i with
  /// v <= BucketEdge(i), or kBuckets for the +Inf overflow bucket.
  /// Non-finite and negative values land deterministically (NaN and
  /// anything above the top edge overflow; v <= 0 is bucket 0).
  static int BucketIndex(double v);

  void Observe(double v);

  /// Aggregated per-bucket counts; out[kBuckets] is the overflow.
  void Counts(uint64_t out[kBuckets + 1]) const;
  uint64_t Count() const;
  double Sum() const;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kBuckets + 1> counts{};
    std::atomic<uint64_t> sum_bits{0};  // double bits, CAS-accumulated
  };
  std::array<Shard, kMetricShards> shards_;
};

// -------------------------------------------------------------- registry

enum class MetricType : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

/// One registered metric, for the exporter walk.  Exactly one of the
/// typed pointers is non-null, matching `type`.
struct MetricInfo {
  std::string name;    ///< Prometheus metric name (base, no labels)
  std::string labels;  ///< pre-rendered label pairs, e.g. `tier="mem"`
  std::string help;    ///< HELP text (shared per name; first wins)
  MetricType type = MetricType::kCounter;
  const Counter* counter = nullptr;
  const Gauge* gauge = nullptr;
  const Histogram* histogram = nullptr;
};

/// Name -> metric table.  Registration is idempotent on (name, labels):
/// the first call creates, later calls return the same reference — so
/// instrumentation sites just call Get* in a function-local static.
/// Thread-safe; references stay valid for the process lifetime.
class Registry {
 public:
  /// The process-wide instance every instrumentation site and the serve
  /// exporter share.
  static Registry& Global();

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& GetCounter(const std::string& name, const std::string& help,
                      const std::string& labels = "");
  Gauge& GetGauge(const std::string& name, const std::string& help,
                  const std::string& labels = "");
  Histogram& GetHistogram(const std::string& name, const std::string& help,
                          const std::string& labels = "");

  /// Snapshot of every registered metric in registration order (the
  /// exporter groups consecutive same-name entries under one TYPE/HELP
  /// header).  Pointers stay valid; values are read live by the caller.
  std::vector<MetricInfo> Metrics() const;

 private:
  struct Impl;
  Impl* impl_;  // leaked: registered metrics must outlive static dtors
};

}  // namespace ektelo::obs

#endif  // EKTELO_OBS_METRICS_H_
