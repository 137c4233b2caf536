#include "obs/trace.h"

#include <deque>
#include <mutex>

namespace ektelo::obs {

struct RequestTrace::Impl {
  mutable std::mutex mu;
  std::vector<TraceEvent> ring;
  std::size_t capacity;
  uint64_t dropped = 0;
};

RequestTrace::RequestTrace(std::size_t capacity) : impl_(new Impl()) {
  impl_->capacity = capacity == 0 ? 1 : capacity;
}

RequestTrace::~RequestTrace() = default;

void RequestTrace::Record(const TraceEvent& ev) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->ring.size() >= impl_->capacity) {
    ++impl_->dropped;
    return;
  }
  impl_->ring.push_back(ev);
}

std::vector<TraceEvent> RequestTrace::Events() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->ring;
}

uint64_t RequestTrace::DroppedCount() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->dropped;
}

namespace {
thread_local RequestTrace* t_current_trace = nullptr;
}  // namespace

RequestTrace* CurrentTrace() { return t_current_trace; }

RequestTrace* SwapCurrentTrace(RequestTrace* t) {
  RequestTrace* prev = t_current_trace;
  t_current_trace = t;
  return prev;
}

void RecordManualSpan(const char* name, const char* cat, uint64_t start_ns,
                      uint64_t end_ns, Histogram* latency,
                      std::initializer_list<TraceAttr> attrs) {
  const uint32_t flags = ArmedFlags();
  if (flags == 0) return;
  const uint64_t dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  if (latency != nullptr && (flags & kTimingArmed) != 0) {
    latency->Observe(static_cast<double>(dur_ns) * 1e-9);
  }
  if ((flags & kTraceArmed) != 0) {
    if (RequestTrace* trace = CurrentTrace()) {
      TraceEvent ev;
      ev.name = name;
      ev.cat = cat;
      ev.start_ns = start_ns;
      ev.dur_ns = dur_ns;
      ev.tid = ThreadId();
      for (const TraceAttr& a : attrs) {
        if (ev.n_attrs >= 4) break;
        ev.attrs[ev.n_attrs++] = a;
      }
      trace->Record(ev);
    }
  }
}

struct TraceStore::Impl {
  mutable std::mutex mu;
  std::deque<std::shared_ptr<RequestTrace>> recent;  // newest at back
};

TraceStore::TraceStore() : impl_(new Impl()) {}

TraceStore& TraceStore::Global() {
  static TraceStore* g = new TraceStore();  // leaked, like Registry
  return *g;
}

void TraceStore::Publish(std::shared_ptr<RequestTrace> trace) {
  if (trace == nullptr) return;
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->recent.push_back(std::move(trace));
  while (impl_->recent.size() > kKeep) impl_->recent.pop_front();
}

std::vector<std::shared_ptr<RequestTrace>> TraceStore::Latest(
    std::size_t n) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::shared_ptr<RequestTrace>> out;
  const std::size_t have = impl_->recent.size();
  const std::size_t take = n < have ? n : have;
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    out.push_back(impl_->recent[have - 1 - i]);
  }
  return out;
}

}  // namespace ektelo::obs
