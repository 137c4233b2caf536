// Per-request execution tracing: RAII spans with monotonic-clock
// timestamps, ring-buffered into the request's RequestTrace and
// exported as Chrome trace_event JSON (obs/export.h) for Perfetto /
// chrome://tracing.
//
// Privacy boundary: span attributes are DATA-INDEPENDENT only —
// operator kind, matrix shapes/nnz, thread id, prepared-strategy hit or
// miss, epsilon (already public via the ledger).  Never cell values,
// never noisy or true query answers.  Attribute keys and string values
// must be static-duration strings (string literals), which makes accidental
// formatting of data into a span a compile-visible std::string
// conversion rather than a silent leak.
//
// Cost discipline (see obs/metrics.h): the Span constructor performs
// one relaxed atomic flags load; when neither timing nor tracing is
// armed it returns immediately having stored nothing but a null
// pointer and a zero word.  Tracing additionally requires a current
// RequestTrace installed on the thread (ScopedTraceContext), so
// armed-but-outside-a-request threads skip recording too.
//
// Determinism: spans never feed back into execution.  The ring drops
// new events once full (counting drops), so a traced request does the
// same allocations whether it emits 10 events or 10 million.
#ifndef EKTELO_OBS_TRACE_H_
#define EKTELO_OBS_TRACE_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace ektelo::obs {

/// One span attribute.  `key` must be a string literal (static
/// duration).  The value is either a static string or a double —
/// shapes, nnz, iteration counts, epsilon all fit the double without
/// loss at the scales involved.
struct TraceAttr {
  const char* key = nullptr;
  const char* str = nullptr;  // static string value, or null
  double num = 0.0;           // numeric value when str is null
};

/// One completed span, fixed-size so the ring buffer is a flat vector.
struct TraceEvent {
  const char* name = nullptr;  ///< static string: span type, e.g. "serve.charge"
  const char* cat = nullptr;   ///< static string: subsystem, e.g. "serve"
  uint64_t start_ns = 0;       ///< NowNs() at open
  uint64_t dur_ns = 0;         ///< close - open
  uint32_t tid = 0;            ///< obs::ThreadId() of the recording thread
  uint8_t n_attrs = 0;
  TraceAttr attrs[4];
};

/// Ring buffer of spans for one request, plus data-independent request
/// metadata for the exporter.  Thread-safe: worker threads and
/// ParallelFor helpers append concurrently under an internal mutex
/// (only taken when tracing is armed, so the disarmed path never sees
/// it).
class RequestTrace {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit RequestTrace(std::size_t capacity = kDefaultCapacity);
  ~RequestTrace();
  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  /// Appends one completed span; drop-new once full (DroppedCount
  /// reports how many).
  void Record(const TraceEvent& ev);

  std::vector<TraceEvent> Events() const;
  uint64_t DroppedCount() const;

  // Exporter metadata — set once by the owner before publishing.
  std::string request_id;
  std::string tenant;
  std::string plan;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The RequestTrace the calling thread is currently recording into
/// (null outside any request).  Propagated manually across thread
/// hops: ThreadPool::ParallelFor installs the caller's trace in its
/// helpers, and serve workers install the task's trace before
/// executing it.
RequestTrace* CurrentTrace();

/// Installs `t` as the calling thread's current trace; returns the
/// previous one (restore it when done — or use ScopedTraceContext).
RequestTrace* SwapCurrentTrace(RequestTrace* t);

/// RAII install/restore of the thread's current trace.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(RequestTrace* t) : prev_(SwapCurrentTrace(t)) {}
  ~ScopedTraceContext() { SwapCurrentTrace(prev_); }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  RequestTrace* prev_;
};

/// RAII span.  `name` and `cat` must be string literals.  Timing flows
/// into `latency` (if given) on every armed-timing close; the event is
/// recorded only when tracing is armed AND a current trace is
/// installed.  Attributes are capped at 4 (TraceEvent::attrs);
/// excess is ignored.
///
///   obs::Span span("serve.execute", "serve", &ExecSeconds());
///   span.Attr("plan", plan_name_literal);
///   span.Attr("epsilon", request.epsilon);
class Span {
 public:
  Span(const char* name, const char* cat, Histogram* latency = nullptr)
      : latency_(latency) {
    const uint32_t flags = ArmedFlags();  // the one disarmed-path load
    if (flags == 0) return;
    armed_ = flags;
    start_ns_ = NowNs();
    if ((flags & kTraceArmed) != 0) trace_ = CurrentTrace();
    ev_.name = name;
    ev_.cat = cat;
  }

  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Attr(const char* key, const char* static_str) {
    if (trace_ == nullptr || ev_.n_attrs >= 4) return;
    ev_.attrs[ev_.n_attrs++] = TraceAttr{key, static_str, 0.0};
  }
  void Attr(const char* key, double num) {
    if (trace_ == nullptr || ev_.n_attrs >= 4) return;
    ev_.attrs[ev_.n_attrs++] = TraceAttr{key, nullptr, num};
  }

  /// Closes the span early (idempotent; the destructor is then a no-op).
  void Close() {
    if (armed_ == 0) return;
    const uint64_t end_ns = NowNs();
    const uint64_t dur_ns = end_ns - start_ns_;
    if (latency_ != nullptr && (armed_ & kTimingArmed) != 0) {
      latency_->Observe(static_cast<double>(dur_ns) * 1e-9);
    }
    if (trace_ != nullptr) {
      ev_.start_ns = start_ns_;
      ev_.dur_ns = dur_ns;
      ev_.tid = ThreadId();
      trace_->Record(ev_);
    }
    armed_ = 0;
    trace_ = nullptr;
  }

 private:
  uint32_t armed_ = 0;          // flags snapshot; 0 = disarmed/closed
  uint64_t start_ns_ = 0;
  Histogram* latency_ = nullptr;
  RequestTrace* trace_ = nullptr;
  TraceEvent ev_;
};

/// Records a span whose endpoints were measured externally (e.g. queue
/// wait, bounded by timestamps taken on two different threads).  Obeys
/// the same arming rules and attribute cap as Span.
void RecordManualSpan(const char* name, const char* cat, uint64_t start_ns,
                      uint64_t end_ns, Histogram* latency = nullptr,
                      std::initializer_list<TraceAttr> attrs = {});

/// Keeps the last-published request traces for the serve Trace
/// endpoint.  Publishing transfers ownership; Latest() returns shared
/// handles so a concurrent publish can't invalidate a reader.
class TraceStore {
 public:
  static constexpr std::size_t kKeep = 8;

  static TraceStore& Global();

  void Publish(std::shared_ptr<RequestTrace> trace);

  /// Most-recent-first, up to `n` traces.
  std::vector<std::shared_ptr<RequestTrace>> Latest(std::size_t n = kKeep) const;

 private:
  struct Impl;
  Impl* impl_;
  TraceStore();
};

}  // namespace ektelo::obs

#endif  // EKTELO_OBS_TRACE_H_
