// servebench: one run of one workload of the end-to-end serve benchmark.
//
// A run is one fresh process: it generates the workload's tenants and
// request sequence from --seed, starts a serve::Server in-process on a
// unix socket under --tmp, and drives it through serve::Client in three
// phases:
//
//   1. set-up      Server::Start, then every distinct request shape of the
//                  workload once (the warm-up pass): one at a time, in a
//                  fixed order, with inputs that do not depend on --seed.
//   2. closed loop 4 clients, one connection each, a fixed count of
//                  requests; each client waits for its reply before
//                  sending the next.  sat_rps = median over the phase's
//                  fifths of OK replies per second.
//   3. open loop   seeded Poisson arrivals at the workload's fixed rate
//                  over <= 4 connections; latency is timed from when each
//                  request was due, so a stalled generator still counts.
//
// It checks every reply (length, finiteness, ledger agreement, error
// ceiling, no repeats on the distinct workloads) and prints a digest of
// all reply bytes in request order.  With EKTELO_TRACE=1 in the
// environment (the traced run) it also attributes time to layers from
// the metrics registry, diffed around the open-loop phase, replays the
// executed open-loop requests through the engine's public functions
// under the benchmark's own spans, and writes those spans as Chrome
// trace JSON.
//
// The last stdout line is `RESULT {json}`; servebench/run.py is the
// entry point that builds this binary and turns results into metrics.
//
//   servebench --workload mixed_distinct --seed 1 --seconds 30 --tmp DIR
//   servebench --workload mixed_distinct --seed 1 --tmp DIR --setup-only
//   servebench --describe
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "data/generators.h"
#include "ektelo/ektelo.h"
#include "kernel/handles.h"
#include "linalg/simd/simd.h"
#include "obs/metrics.h"
#include "plans/registry.h"
#include "serve/client.h"
#include "serve/ledger.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

namespace fs = std::filesystem;
using namespace ektelo;
using serve::Client;
using serve::InvokeReply;
using serve::InvokeRequest;
using serve::ReplyCode;
using Clock = std::chrono::steady_clock;

double Sec(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------- workloads

struct TenantDef {
  std::string name;
  std::vector<std::size_t> dims;  // one entry = 1D histogram, two = grid
  double rows = 0.0;              // target record count
  Shape1D shape = Shape1D::kGaussianMix;  // 1D tenants only
  /// Fixed per workload: --seed moves the requests, not the data, so
  /// every seed runs against the same tables.
  uint64_t seed = 0;
};

/// One request shape: a plan on a tenant, with the dims it is sent with.
/// `weight` is its count in every shuffled deck of the measured phases;
/// weight 0 shapes run in the warm-up pass only.
struct ShapeDef {
  std::string tenant;
  std::string plan;
  std::size_t weight = 1;
  std::vector<std::size_t> dims;
  bool striped = false;  // the request carries a stripe dimension
};

struct WorkloadDef {
  std::string name;
  std::string why;
  std::vector<TenantDef> tenants;
  std::vector<ShapeDef> shapes;
  /// true: every request carries fresh ranges, so no two requests of the
  /// run are identical.  false: the warm-up shapes are fixed dashboard
  /// structures that every later request repeats.
  bool distinct = true;
  std::vector<double> eps;
  std::size_t max_width = 1024;  // of each request range
  double open_rate = 0.0;   // open-loop arrivals per second
  double closed_rate = 0.0; // sizes the closed-loop count
  /// Shares of --seconds the closed and open loops are sized for: the
  /// closed loop sends closed_rate x closed_share x seconds requests, the
  /// open loop open_rate x open_share x seconds.
  double closed_share = 0.25, open_share = 0.75;
};

// The thread budget, the same for every workload: two workers each calling
// ParallelFor with one pool helper keep at most 3 compute threads
// runnable, leaving a core of the 4 to the clients.
constexpr std::size_t kWorkers = 2, kPoolThreads = 1, kClients = 4;
constexpr std::size_t kMinRanges = 8, kMaxRanges = 64;  // per request

constexpr double kTenantBudget = 1e9;
constexpr double kScaledErrCeiling = 0.5;
/// Seed of the warm-up requests: --seed moves only the measured phases.
constexpr uint64_t kWarmupSeed = 0x5E7ull;
constexpr std::size_t kReplayExecutions = 256;
constexpr std::size_t kReplayReplies = 64;
constexpr std::size_t kSegments = 5;

/// hot_dashboard: 32 fixed structures over six 1D plans, Zipf-weighted,
/// all at eps 0.01.  After warm-up every request is a response-cache
/// replay.
WorkloadDef HotDashboard() {
  WorkloadDef w;
  w.name = "hot_dashboard";
  w.why =
      "32 fixed dashboard structures replayed from the response cache: the "
      "serve layer does the work, plans/matrix/ledger do none";
  w.tenants = {{"dash", {4096}, 1e5, Shape1D::kGaussianMix, 41}};
  const char* plans[] = {"H2", "HB", "Privelet", "Identity", "Greedy-H",
                         "DAWA"};
  // Zipf(s = 0.8) over ranks 1..32, as integer counts of a 400-card deck.
  double norm = 0.0;
  for (int r = 1; r <= 32; ++r) norm += std::pow(r, -0.8);
  for (int r = 1; r <= 32; ++r) {
    ShapeDef s;
    s.tenant = "dash";
    s.plan = plans[(r - 1) % 6];
    s.weight = std::max<std::size_t>(
        1, std::size_t(std::lround(400.0 * std::pow(r, -0.8) / norm)));
    s.dims = {4096};
    w.shapes.push_back(s);
  }
  w.distinct = false;
  w.eps = {0.01};
  w.max_width = 1024;
  w.open_rate = 4000;
  w.closed_rate = 16000;
  return w;
}

/// mixed_distinct: two 1D tenants, the 1D catalog (HDMM left out), MWEM
/// variants at low weight on the small tenant only; every request fresh.
WorkloadDef MixedDistinct() {
  WorkloadDef w;
  w.name = "mixed_distinct";
  w.why =
      "distinct 1D requests over two tenants: plans, rewrite/cache, solvers "
      "and a durable ledger append on every answer";
  w.tenants = {{"small", {4096}, 1e5, Shape1D::kGaussianMix, 42},
               {"large", {16384}, 1e5, Shape1D::kStep, 43}};
  struct P {
    const char* plan;
    std::size_t small, large;
  };
  // The NNLS variants (c, d) cost 30-50x a median request, and two of
  // them overlapping block both workers for ~0.2 s: they run in the
  // warm-up only (weight 0), like HDMM's absence.  MWEM and variant b are
  // weighted 4:1 so p99 falls inside MWEM's cluster, not on the edge
  // between two clusters.
  const P mix[] = {
      {"Identity", 16, 16},     {"Privelet", 16, 16},   {"H2", 16, 16},
      {"HB", 16, 16},           {"Greedy-H", 16, 16},   {"Uniform", 12, 12},
      {"AHP", 16, 16},          {"DAWA", 16, 16},       {"Workload", 12, 12},
      {"WorkloadLS", 12, 12},   {"MWEM", 4, 0},         {"MWEM variant b", 1, 0},
      {"MWEM variant c", 0, 0}, {"MWEM variant d", 0, 0},
  };
  for (const P& p : mix) {
    w.shapes.push_back({"small", p.plan, p.small, {4096}, false});
    if (p.large > 0)
      w.shapes.push_back({"large", p.plan, p.large, {16384}, false});
  }
  w.eps = {0.05, 0.1, 0.2, 0.4};
  w.max_width = 2048;
  w.open_rate = 190;
  w.closed_rate = 420;
  return w;
}

/// large_domain: one 256x256 grid tenant; the 2D and striped plans plus
/// HB and Privelet over the flattened domain.  Replies are 512 KiB.
WorkloadDef LargeDomain() {
  WorkloadDef w;
  w.name = "large_domain";
  w.why =
      "distinct requests on a 65,536-cell 2D domain: kernel open, linalg "
      "and Haar kernels, ParallelFor and 512 KiB reply frames";
  w.tenants = {{"grid", {256, 256}, 5e5, Shape1D::kGaussianMix, 44}};
  const std::vector<std::size_t> d2 = {256, 256};
  const std::vector<std::size_t> flat = {65536};
  w.shapes = {
      {"grid", "UniformGrid", 3, d2, false},
      {"grid", "QuadTree", 2, d2, false},
      {"grid", "HB-Striped", 3, d2, true},
      {"grid", "HB-Striped_kron", 3, d2, true},
      {"grid", "DAWA-Striped", 3, d2, true},
      {"grid", "HB", 3, flat, false},
      {"grid", "Privelet", 3, flat, false},
      // ~10x the cost of every other shape: set-up only (see NOTES.md).
      {"grid", "AdaptiveGrid", 0, d2, false},
  };
  w.eps = {0.05, 0.1, 0.2};
  w.max_width = 4096;
  // Saturation is ~90 req/s: the open loop gets most of the run so that
  // ~40% utilization still yields 1000 samples in a 40 s run.
  w.open_rate = 36;
  w.closed_rate = 84;
  w.closed_share = 0.2;
  w.open_share = 0.8;
  return w;
}

std::vector<WorkloadDef> AllWorkloads() {
  return {HotDashboard(), MixedDistinct(), LargeDomain()};
}

// --------------------------------------------------------------- inputs

struct Tenant {
  TenantDef def;
  Table table{Schema()};
  Vec truth;          // T-Vectorize of the table: the exact answers
  Vec prefix;         // prefix sums of truth (prefix[i] = sum truth[0,i))
  double rows = 0.0;  // actual record count
  uint64_t seed = 0;
  std::size_t domain() const { return truth.size(); }
};

Tenant MakeTenant(const TenantDef& def) {
  Tenant t;
  t.def = def;
  t.seed = def.seed;
  Rng rng(SplitMix64(t.seed));
  if (def.dims.size() == 1) {
    t.table = TableFromHistogram(
        MakeHistogram1D(def.shape, def.dims[0], def.rows, &rng), "v");
  } else {
    const std::size_t nx = def.dims[0], ny = def.dims[1];
    const Vec hist = MakeHistogram2D(nx, ny, def.rows, &rng);
    Table table(Schema({{"x", nx}, {"y", ny}}));
    std::vector<uint32_t> row(2);
    for (std::size_t i = 0; i < hist.size(); ++i) {
      row[0] = uint32_t(i / ny);
      row[1] = uint32_t(i % ny);
      const auto count = static_cast<std::size_t>(std::llround(hist[i]));
      for (std::size_t c = 0; c < count; ++c) table.AppendRow(row);
    }
    t.table = std::move(table);
  }
  t.truth = t.table.Vectorize();
  t.prefix.assign(t.truth.size() + 1, 0.0);
  for (std::size_t i = 0; i < t.truth.size(); ++i)
    t.prefix[i + 1] = t.prefix[i] + t.truth[i];
  t.rows = double(t.table.NumRows());
  return t;
}

/// The request sequence of one run: `pool` holds the distinct request
/// bodies, `seq` indexes into it in send order.  Warm-up requests come
/// first ([0, warmup)), then the closed loop, then the open loop.
struct Sequence {
  std::vector<InvokeRequest> pool;
  std::vector<uint32_t> seq;
  std::size_t warmup = 0, closed = 0, open = 0;
  std::vector<double> due_s;  // open-loop offsets from the phase start
};

InvokeRequest MakeRequest(const WorkloadDef& w, const ShapeDef& s,
                          const Tenant& t, double eps, Rng* rng) {
  InvokeRequest r;
  r.tenant = s.tenant;
  r.plan = s.plan;
  r.eps = eps;
  r.dims = s.dims;
  const std::size_t m = std::size_t(
      rng->UniformInt(int64_t(kMinRanges), int64_t(kMaxRanges)));
  r.ranges = RandomRanges(m, t.domain(), w.max_width, rng);
  if (s.striped) r.stripe_dim = std::size_t(rng->UniformInt(0, 1));
  if (s.plan.rfind("MWEM", 0) == 0) r.known_total = t.rows;
  return r;
}

/// Structural key of a request's content (everything the server's
/// coalescing hash covers, plus the tenant): equal keys would coalesce.
std::string ContentKey(const InvokeRequest& r) {
  std::ostringstream os;
  os.precision(17);
  os << r.tenant << '|' << r.plan << '|' << r.eps << '|' << r.stripe_dim
     << '|' << r.known_total << '|';
  for (std::size_t d : r.dims) os << d << ',';
  os << '|';
  for (const RangeQuery& q : r.ranges) os << q.lo << '-' << q.hi << ',';
  return os.str();
}

/// `measured` false builds the warm-up requests only (a set-up-only run).
Sequence MakeSequence(const WorkloadDef& w,
                      const std::map<std::string, const Tenant*>& tenants,
                      uint64_t run_seed, double seconds, bool measured) {
  Sequence s;
  Rng rng(SplitMix64(run_seed ^ 0x5E0E9CEull));
  auto tenant_of = [&](const ShapeDef& sh) -> const Tenant& {
    return *tenants.at(sh.tenant);
  };
  // Warm-up: every shape once, in definition order, drawn from a fixed
  // seed so that every run's set-up does the same work.
  Rng warm_rng(SplitMix64(kWarmupSeed));
  for (std::size_t i = 0; i < w.shapes.size(); ++i) {
    const ShapeDef& sh = w.shapes[i];
    s.seq.push_back(uint32_t(i));
    s.pool.push_back(MakeRequest(w, sh, tenant_of(sh),
                                 w.eps[i % w.eps.size()], &warm_rng));
  }
  s.warmup = s.pool.size();
  if (!measured) return s;

  // Measured phases draw from shuffled decks holding shape i `weight`
  // times, its k-th copy at eps[k % |eps|], and each phase is a whole
  // number of decks.  Every run therefore sends the same mix of plans and
  // epsilons in a different order: the seed moves data, ranges and
  // arrival times, not the amount of work.
  struct Card {
    uint32_t shape;
    double eps;
  };
  std::vector<Card> deck;
  for (std::size_t i = 0; i < w.shapes.size(); ++i)
    for (std::size_t k = 0; k < w.shapes[i].weight; ++k)
      deck.push_back({uint32_t(i), w.eps[k % w.eps.size()]});
  const double decks = double(deck.size());
  auto whole_decks = [&](double n) {
    return std::size_t(std::max(1.0, std::round(n / decks)) * decks);
  };
  s.closed = whole_decks(w.closed_rate * w.closed_share * seconds);
  s.open = whole_decks(w.open_rate * w.open_share * seconds);
  std::unordered_set<std::string> seen;
  for (std::size_t i = 0; i < s.warmup; ++i) seen.insert(ContentKey(s.pool[i]));
  std::vector<Card> cards;
  for (std::size_t n = 0; n < s.closed + s.open; ++n) {
    if (cards.empty()) {
      cards = deck;
      for (std::size_t i = cards.size() - 1; i > 0; --i)
        std::swap(cards[i], cards[std::size_t(rng.UniformInt(0, int64_t(i)))]);
    }
    const Card card = cards.back();
    cards.pop_back();
    if (!w.distinct) {
      s.seq.push_back(card.shape);  // a replay of warm-up structure `shape`
      continue;
    }
    const ShapeDef& sh = w.shapes[card.shape];
    InvokeRequest r = MakeRequest(w, sh, tenant_of(sh), card.eps, &rng);
    while (!seen.insert(ContentKey(r)).second)
      r = MakeRequest(w, sh, tenant_of(sh), card.eps, &rng);
    s.seq.push_back(uint32_t(s.pool.size()));
    s.pool.push_back(std::move(r));
  }
  double t = 0.0;
  for (std::size_t i = 0; i < s.open; ++i) {
    t += -std::log(1.0 - rng.Uniform()) / w.open_rate;
    s.due_s.push_back(t);
  }
  return s;
}

// ------------------------------------------------------------- results

struct Outcome {
  double latency_ms = 0.0;  // open loop: from due time; else from send
  double rtt_ms = 0.0;      // from send to reply
  double late_ms = 0.0;     // open loop: send time minus due time
  Clock::time_point done;   // reply arrival
  ReplyCode code = ReplyCode::kOk;
  bool transport_error = false;
  bool coalesced = false;
  bool valid = false;       // OK, right length, all finite
  double eps_charged = 0.0;
  double scaled_err = 0.0;
  uint64_t digest = 0;
};

uint64_t Mix64(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

/// Digest of the estimate bits; false on a non-finite entry.
bool DigestEstimate(const Vec& est, uint64_t* out) {
  uint64_t h = est.size();
  bool finite = true;
  for (double v : est) {
    finite &= std::isfinite(v);
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    h = Mix64(h, bits);
  }
  *out = h;
  return finite;
}

/// DPBench's scaled error of the request's own range answers: RMSE of
/// the answers from `est` against the true table, over the row count
/// (bench::ScaledWorkloadError, evaluated through prefix sums).
double ScaledError(const InvokeRequest& r, const Vec& est, const Tenant& t,
                   std::vector<double>* scratch) {
  scratch->assign(est.size() + 1, 0.0);
  for (std::size_t i = 0; i < est.size(); ++i)
    (*scratch)[i + 1] = (*scratch)[i] + est[i];
  double sq = 0.0;
  for (const RangeQuery& q : r.ranges) {
    const double a = (*scratch)[q.hi + 1] - (*scratch)[q.lo];
    const double b = t.prefix[q.hi + 1] - t.prefix[q.lo];
    sq += (a - b) * (a - b);
  }
  const double rmse = std::sqrt(sq / double(std::max<std::size_t>(1, r.ranges.size())));
  return rmse / std::max(t.rows, 1.0);
}

// ------------------------------------------------------------- spans

/// One span of the benchmark's own trace (Chrome trace "X" event).
struct SpanRec {
  const char* name;
  uint32_t tid;
  double start_us, dur_us;
  uint64_t request;
  std::string parent;  // the enclosing span, or the request's plan@tenant
};

double NowUs(Clock::time_point origin) {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

void WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRec>& spans) {
  std::ofstream f(path);
  f << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"servebench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"request\":%llu,\"of\":\"%s\"}}%s\n",
                  s.name, s.tid, s.start_us, s.dur_us,
                  (unsigned long long)s.request, s.parent.c_str(),
                  i + 1 < spans.size() ? "," : "");
    f << buf;
  }
  f << "],\"displayTimeUnit\":\"ms\"}\n";
}

// ------------------------------------------------------- registry diffs

/// Registry state: counters/gauges by value, histograms by (count, sum),
/// keyed "name{labels}".
struct Snap {
  std::map<std::string, std::pair<double, double>> v;
};

Snap TakeSnap() {
  Snap s;
  for (const obs::MetricInfo& m : obs::Registry::Global().Metrics()) {
    const std::string key = m.name + "{" + m.labels + "}";
    switch (m.type) {
      case obs::MetricType::kCounter:
        s.v[key] = {double(m.counter->Value()), 0.0};
        break;
      case obs::MetricType::kGauge:
        s.v[key] = {m.gauge->Value(), 0.0};
        break;
      case obs::MetricType::kHistogram:
        s.v[key] = {double(m.histogram->Count()), m.histogram->Sum()};
        break;
    }
  }
  return s;
}

/// b - a of a counter value / histogram count (sum = false) or a
/// histogram's sum (sum = true); 0 for a series neither snapshot has.
double Diff(const Snap& a, const Snap& b, const std::string& key,
            bool sum = false) {
  auto get = [&](const Snap& s) {
    auto it = s.v.find(key);
    if (it == s.v.end()) return 0.0;
    return sum ? it->second.second : it->second.first;
  };
  return get(b) - get(a);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  // A failed request is an infinite latency; keep it infinite.
  if (pos == double(lo)) return v[lo];
  if (!std::isfinite(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

/// The median, over consecutive segments of at least kMinSegment samples
/// (at most kSegments of them), of each segment's q-quantile: every
/// segment still has >= 10 samples beyond p99, and a passing disturbance
/// moves one segment, not the result.
constexpr std::size_t kMinSegment = 1000;
double SegmentedPercentile(const std::vector<double>& v, double q) {
  const std::size_t k =
      std::clamp<std::size_t>(v.size() / kMinSegment, 1, kSegments);
  std::vector<double> per;
  for (std::size_t i = 0; i < k; ++i)
    per.push_back(Percentile({v.begin() + std::ptrdiff_t(v.size() * i / k),
                              v.begin() + std::ptrdiff_t(v.size() * (i + 1) / k)},
                             q));
  return Percentile(per, 0.5);
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::string PlanMetricName(std::string plan) {
  std::replace(plan.begin(), plan.end(), ' ', '_');
  return "plans.execute_ms." + plan;
}

// ------------------------------------------------------------ the run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string tmp;
  bool setup_only = false;
  bool describe = false;
};

class Json {
 public:
  void Num(const std::string& k, double v) {
    char buf[64];
    // JSON has no infinity: a percentile that lands on a failed request
    // prints as 1e300 ms, past any limit.
    std::snprintf(buf, sizeof buf, "%.10g",
                  std::isnan(v) ? 0.0 : std::isinf(v) ? 1e300 : v);
    Add(k, buf);
  }
  void Str(const std::string& k, const std::string& v) {
    Add(k, "\"" + v + "\"");
  }
  void Raw(const std::string& k, const std::string& v) { Add(k, v); }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  void Add(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + k + "\":" + v;
  }
  std::string body_;
};

std::string DescribeJson(const WorkloadDef& w) {
  auto list = [](const std::vector<std::size_t>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      s += (i ? "," : "") + std::to_string(v[i]);
    return s + "]";
  };
  Json j;
  j.Str("why", w.why);
  std::string tenants = "[";
  for (std::size_t i = 0; i < w.tenants.size(); ++i) {
    const TenantDef& t = w.tenants[i];
    Json tj;
    tj.Str("name", t.name);
    tj.Raw("dims", list(t.dims));
    tj.Num("rows", t.rows);
    tj.Str("data", t.dims.size() == 1 ? ShapeName(t.shape) : "MakeHistogram2D");
    tj.Num("seed", double(t.seed));
    tenants += (i ? "," : "") + tj.Done();
  }
  j.Raw("tenants", tenants + "]");
  std::string shapes = "[";
  for (std::size_t i = 0; i < w.shapes.size(); ++i) {
    const ShapeDef& s = w.shapes[i];
    Json sj;
    sj.Str("tenant", s.tenant);
    sj.Str("plan", s.plan);
    sj.Num("weight", double(s.weight));
    sj.Raw("dims", list(s.dims));
    shapes += (i ? "," : "") + sj.Done();
  }
  j.Raw("mix", shapes + "]");
  j.Raw("distinct", w.distinct ? "true" : "false");
  std::string eps = "[";
  for (std::size_t i = 0; i < w.eps.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%g", i ? "," : "", w.eps[i]);
    eps += buf;
  }
  j.Raw("eps", eps + "]");
  j.Raw("ranges_per_request", list({kMinRanges, kMaxRanges}));
  j.Num("range_max_width", double(w.max_width));
  j.Num("open_rate_rps", w.open_rate);
  j.Num("closed_count_per_second", w.closed_rate * w.closed_share);
  j.Num("open_count_per_second", w.open_rate * w.open_share);
  j.Num("server_workers", double(kWorkers));
  j.Num("EKTELO_THREADS", double(kPoolThreads));
  j.Num("clients", double(kClients));
  return j.Done();
}

int Fail(const std::string& msg) {
  std::fprintf(stderr, "servebench: %s\n", msg.c_str());
  return 2;
}

int Run(const Args& a) {
  WorkloadDef w;
  bool found = false;
  for (WorkloadDef& d : AllWorkloads())
    if (d.name == a.workload) {
      w = d;
      found = true;
    }
  if (!found) return Fail("unknown workload \"" + a.workload + "\"");
  if (a.tmp.empty()) return Fail("--tmp is required");
  if (ThreadPool::Global().threads() != kPoolThreads)
    return Fail("compute pool has " +
                std::to_string(ThreadPool::Global().threads()) +
                " threads; the workload's budget is EKTELO_THREADS=" +
                std::to_string(kPoolThreads));
  const bool traced = obs::TraceEnabled();

  // ---- inputs (not timed)
  std::vector<Tenant> tenants;
  for (std::size_t i = 0; i < w.tenants.size(); ++i)
    tenants.push_back(MakeTenant(w.tenants[i]));
  std::map<std::string, const Tenant*> by_name;
  for (const Tenant& t : tenants) by_name[t.def.name] = &t;
  const Sequence sq =
      MakeSequence(w, by_name, a.seed, a.seconds, !a.setup_only);
  std::vector<serve::TenantSpec> specs;
  for (const Tenant& t : tenants)
    specs.push_back({t.def.name, t.table, t.seed, kTenantBudget});

  fs::create_directories(a.tmp);
  serve::ServerOptions opts;
  opts.socket_path = (fs::path(a.tmp) / "s.sock").string();
  opts.ledger_dir = (fs::path(a.tmp) / "ledger").string();
  opts.workers = kWorkers;

  std::vector<Outcome> out(sq.seq.size());
  std::vector<std::vector<SpanRec>> spans(kClients);
  std::vector<InvokeReply> kept(kReplayReplies);  // first open-loop replies
  const Clock::time_point origin = Clock::now();

  // One request on connection `c`; fills out[i].
  auto invoke = [&](Client& client, std::size_t c, std::size_t i,
                    std::vector<double>* scratch) {
    InvokeRequest req = sq.pool[sq.seq[i]];
    req.request_id = i;
    const double t0 = traced ? NowUs(origin) : 0.0;
    const Clock::time_point sent = Clock::now();
    StatusOr<InvokeReply> reply = client.Invoke(req);
    const Clock::time_point done = Clock::now();
    if (traced)
      spans[c].push_back({"client.invoke", uint32_t(c + 1), t0,
                          NowUs(origin) - t0, i, req.plan + "@" + req.tenant});
    Outcome& o = out[i];
    o.done = done;
    o.rtt_ms = Sec(sent, done) * 1e3;
    o.latency_ms = o.rtt_ms;
    if (!reply.ok()) {
      o.transport_error = true;
      return sent;
    }
    o.code = reply->code;
    o.coalesced = reply->coalesced;
    o.eps_charged = reply->eps_charged;
    if (reply->code == ReplyCode::kOk) {
      const Tenant& t = *by_name.at(req.tenant);
      o.valid = DigestEstimate(reply->estimate, &o.digest) &&
                reply->estimate.size() == t.domain();
      if (o.valid) o.scaled_err = ScaledError(req, reply->estimate, t, scratch);
      const std::size_t k = i - (sq.warmup + sq.closed);
      if (traced && i >= sq.warmup + sq.closed && k < kept.size())
        kept[k] = std::move(reply).value();
    }
    return sent;
  };

  // ---- phase 1: set-up
  const Snap s0 = TakeSnap();
  const Clock::time_point setup_t0 = Clock::now();
  StatusOr<std::unique_ptr<serve::Server>> server =
      serve::Server::Start(opts, specs);
  if (!server.ok()) return Fail("server start: " + server.status().ToString());
  // Registering the tenants appends ledger records of its own; count
  // charge appends from here on.
  const Snap s_started = TakeSnap();
  serve::ClientOptions copts;
  copts.max_retries = 0;  // a failure is counted, never retried away
  std::vector<Client> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    StatusOr<Client> cl = Client::Connect(opts.socket_path, copts);
    if (!cl.ok()) return Fail("connect: " + cl.status().ToString());
    clients.push_back(std::move(cl).value());
  }
  const Clock::time_point connected = Clock::now();
  // Runs `body(c)` on one thread per connection and joins them all.
  auto on_clients = [&](const std::function<void(std::size_t)>& body) {
    std::vector<std::thread> th;
    for (std::size_t c = 0; c < kClients; ++c) th.emplace_back(body, c);
    for (std::thread& t : th) t.join();
  };
  auto closed_loop = [&](std::size_t begin, std::size_t end) {
    std::atomic<std::size_t> next{begin};
    on_clients([&](std::size_t c) {
      std::vector<double> scratch;
      for (std::size_t i = next++; i < end; i = next++)
        invoke(clients[c], c, i, &scratch);
    });
  };
  // One request at a time, in a fixed order: which executions overlap
  // cannot vary from run to run.
  std::vector<double> warm_scratch;
  for (std::size_t i = 0; i < sq.warmup; ++i)
    invoke(clients[0], 0, i, &warm_scratch);
  const double setup_s = Sec(setup_t0, Clock::now());
  const double start_s = Sec(setup_t0, connected);

  std::vector<double> segment_rps;
  Snap s2, s3;
  if (!a.setup_only) {
    // ---- phase 2: closed loop
    const Clock::time_point c0 = Clock::now();
    closed_loop(sq.warmup, sq.warmup + sq.closed);
    // Throughput of each fifth of the phase's replies, in arrival order;
    // sat_rps is their median, so a passing disturbance moves one fifth.
    std::vector<Clock::time_point> t;
    for (std::size_t i = sq.warmup; i < sq.warmup + sq.closed; ++i)
      if (out[i].code == ReplyCode::kOk && !out[i].transport_error)
        t.push_back(out[i].done);
    std::sort(t.begin(), t.end());
    Clock::time_point from = c0;
    for (std::size_t k = 1; k <= kSegments && !t.empty(); ++k) {
      const std::size_t end = t.size() * k / kSegments;
      const std::size_t begin = t.size() * (k - 1) / kSegments;
      segment_rps.push_back(double(end - begin) /
                            std::max(Sec(from, t[end - 1]), 1e-9));
      from = t[end - 1];
    }
    s2 = TakeSnap();

    // ---- phase 3: open loop
    const std::size_t base = sq.warmup + sq.closed;
    std::atomic<std::size_t> next{0};
    const Clock::time_point o0 = Clock::now() + std::chrono::milliseconds(20);
    on_clients([&](std::size_t c) {
      std::vector<double> scratch;
      for (std::size_t k = next++; k < sq.open; k = next++) {
        const Clock::time_point due =
            o0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(sq.due_s[k]));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent =
            invoke(clients[c], c, base + k, &scratch);
        Outcome& o = out[base + k];
        o.late_ms = Sec(due, sent) * 1e3;
        o.latency_ms = o.rtt_ms + o.late_ms;
      }
    });
    s3 = TakeSnap();
  }

  const serve::StatsReply stats = (*server)->Stats();
  std::string server_trace;
  if (traced) {
    StatusOr<std::string> tr = clients[0].Trace();
    if (tr.ok()) server_trace = *tr;
  }
  clients.clear();
  (*server)->Stop();
  server->reset();

  // ---- phase accounting and correctness
  struct PhaseCount {
    std::size_t sent = 0, ok = 0, failed = 0, refused = 0;
  };
  const std::size_t bounds[4] = {0, sq.warmup, sq.warmup + sq.closed,
                                 sq.warmup + sq.closed + sq.open};
  const char* phase_names[3] = {"setup", "closed", "open"};
  PhaseCount phases[3];
  std::vector<std::string> errors;
  std::map<std::string, double> charged;  // tenant -> sum of eps_charged
  std::vector<double> errs;
  uint64_t digest = 0;
  std::size_t ok_total = 0;
  const std::size_t ran = a.setup_only ? sq.warmup : out.size();
  for (int p = 0; p < 3; ++p)
    for (std::size_t i = bounds[p]; i < bounds[p + 1] && i < ran; ++i) {
      const Outcome& o = out[i];
      PhaseCount& pc = phases[p];
      ++pc.sent;
      if (o.transport_error || o.code == ReplyCode::kExecutionFailed ||
          o.code == ReplyCode::kDurabilityError) {
        ++pc.failed;
      } else if (o.code != ReplyCode::kOk) {
        ++pc.refused;
      } else {
        ++pc.ok;
        ++ok_total;
        if (!o.valid && errors.size() < 8)
          errors.push_back("request " + std::to_string(i) +
                           ": estimate has the wrong length or a non-finite "
                           "value");
        charged[sq.pool[sq.seq[i]].tenant] += o.eps_charged;
        errs.push_back(o.scaled_err);
        if (w.distinct && o.coalesced && errors.size() < 8)
          errors.push_back("request " + std::to_string(i) +
                           " coalesced on a distinct workload");
      }
      digest = Mix64(digest, Mix64(i, o.digest ^ uint64_t(o.code)));
    }
  std::size_t failed_total = 0, attempted = 0;
  for (const PhaseCount& pc : phases) {
    failed_total += pc.failed + pc.refused;
    attempted += pc.sent;
  }
  double spent_total = 0.0;
  for (const serve::StatsReply::Tenant& t : stats.tenants) {
    spent_total += t.spent;
    const double sum = charged[t.name];
    const double tol = 1e-9 * std::max(1.0, sum);
    if (t.spent < sum - tol)
      errors.push_back("tenant " + t.name + ": ledger spent " +
                       std::to_string(t.spent) + " < released " +
                       std::to_string(sum));
    if (failed_total == 0 && std::fabs(t.spent - sum) > tol)
      errors.push_back("tenant " + t.name + ": ledger spent " +
                       std::to_string(t.spent) + " != released " +
                       std::to_string(sum));
  }
  const double scaled_err = Percentile(errs, 0.5);
  if (!(scaled_err < kScaledErrCeiling))
    errors.push_back("median scaled error " + std::to_string(scaled_err) +
                     " above the sanity ceiling");

  for (int p = 0; p < 3; ++p)
    std::printf("phase %-6s sent=%zu ok=%zu failed=%zu refused=%zu\n",
                phase_names[p], phases[p].sent, phases[p].ok,
                phases[p].failed, phases[p].refused);
  std::printf("budget: simd=%s nproc=%u pool=%zu workers=%zu clients=%zu\n",
              simd::Active().name, std::thread::hardware_concurrency(),
              ThreadPool::Global().threads(), kWorkers, kClients);

  Json res;
  res.Num("attempted", double(attempted));
  res.Num("failed", double(failed_total));
  char dbuf[20];
  std::snprintf(dbuf, sizeof dbuf, "%016llx", (unsigned long long)digest);
  res.Str("digest", dbuf);
  res.Num("setup_s", setup_s);
  res.Num("start_s", start_s);

  std::vector<double> lat, late, rtt;
  for (std::size_t i = bounds[2]; i < bounds[3] && !a.setup_only; ++i) {
    const Outcome& o = out[i];
    // A failed or refused request misses every latency limit.
    lat.push_back(o.code == ReplyCode::kOk && !o.transport_error
                      ? o.latency_ms
                      : std::numeric_limits<double>::infinity());
    late.push_back(o.late_ms);
    rtt.push_back(o.rtt_ms);
  }
  if (!a.setup_only) {
    res.Num("sat_rps", Percentile(segment_rps, 0.5));
    res.Num("p50_ms", SegmentedPercentile(lat, 0.5));
    res.Num("p99_ms", SegmentedPercentile(lat, 0.99));
    res.Num("open_samples", double(lat.size()));
    res.Num("rss_mb", PeakRssMb());
    res.Num("eps_per_answer", spent_total / double(std::max<std::size_t>(1, ok_total)));
    res.Num("scaled_err", scaled_err);
    std::printf("open loop: %zu samples at %.0f req/s, lateness p50 %.3f ms "
                "p99 %.3f ms\n",
                lat.size(), w.open_rate, Percentile(late, 0.5),
                Percentile(late, 0.99));
  }

  if (traced && !a.setup_only) {
    // ---- per-layer attribution over the open-loop phase (s2 -> s3);
    // whole-run counts over s0 -> s3.
    const double n3 = double(sq.open);
    const double exec3 =
        Diff(s2, s3, "ektelo_serve_requests{event=\"executed\"}");
    auto per_req = [&](const std::string& key) {
      return n3 > 0 ? Diff(s2, s3, key, true) * 1e3 / n3 : 0.0;
    };
    auto per_exec = [&](const std::string& key, bool sum = true) {
      return exec3 > 0 ? Diff(s2, s3, key, sum) * (sum ? 1e3 : 1.0) / exec3
                       : 0.0;
    };
    Json pl;
    auto stage = [](const char* s) {
      return std::string("ektelo_serve_stage_seconds{stage=\"") + s + "\"}";
    };
    const double total_count = Diff(s2, s3, stage("total"));
    const double request_ms =
        total_count > 0 ? Diff(s2, s3, stage("total"), true) * 1e3 / total_count
                        : 0.0;
    double rtt_mean = 0.0;
    for (double v : rtt) rtt_mean += v;
    rtt_mean /= std::max<std::size_t>(1, rtt.size());
    const double wire_ms = rtt_mean - request_ms;
    const double validate_ms = per_req(stage("validate"));
    const double queue_ms = per_req(stage("queue_wait"));
    const double charge_ms = per_req(stage("charge"));
    pl.Num("serve.request_ms", request_ms);
    pl.Num("serve.wire_ms", wire_ms);
    pl.Num("serve.validate_ms", validate_ms);
    pl.Num("serve.queue_wait_ms", queue_ms);
    pl.Num("serve.charge_ms", charge_ms);
    pl.Num("serve.execute_ms", per_req(stage("execute")));
    auto ev = [](const char* e) {
      return std::string("ektelo_serve_requests{event=\"") + e + "\"}";
    };
    const double received = Diff(s0, s3, ev("received"));
    double refused = 0.0;
    for (const char* e : {"refused_budget", "refused_queue", "refused_bad",
                          "refused_durability", "refused_deadline"})
      refused += Diff(s0, s3, ev(e));
    pl.Num("serve.coalesced_share",
           received > 0 ? Diff(s0, s3, ev("coalesced")) / received : 0.0);
    pl.Num("serve.executions", Diff(s0, s3, ev("executed")));
    pl.Num("serve.refused_share", received > 0 ? refused / received : 0.0);
    pl.Num("ledger.append_ms", per_req("ektelo_ledger_io_seconds{op=\"append\"}"));
    pl.Num("ledger.appends", Diff(s_started, s3, "ektelo_ledger_appends{}"));

    const char* stages[] = {"partition", "select", "measure", "infer"};
    double plan_stage_ms = 0.0;  // per execution
    for (const char* st : stages) {
      const double v = per_exec(
          std::string("ektelo_plan_stage_seconds{stage=\"") + st + "\"}");
      plan_stage_ms += v;
      pl.Num(std::string("plans.") + st + "_ms", v);
    }
    const double hits = Diff(s2, s3, "ektelo_cache_requests{tier=\"mem\",event=\"hit\"}");
    const double misses = Diff(s2, s3, "ektelo_cache_requests{tier=\"mem\",event=\"miss\"}");
    pl.Num("matrix.cache_probe_ms", per_exec("ektelo_cache_probe_seconds{}"));
    pl.Num("matrix.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
    pl.Num("matrix.cache_evictions", Diff(s0, s3, "ektelo_cache_evictions{}"));
    for (const char* sv : {"cg", "lsmr"}) {
      const std::string lab = std::string("{solver=\"") + sv + "\"}";
      pl.Num(std::string("matrix.solver_ms.") + sv,
             per_exec("ektelo_solver_seconds" + lab));
      pl.Num(std::string("matrix.solver_iters.") + sv,
             per_exec("ektelo_solver_iterations" + lab, false));
    }
    // NNLS runs only in the weight-0 MWEM variants c/d, that is in set-up:
    // per solve over the whole run.
    const std::string nnls = "{solver=\"nnls\"}";
    const double nnls_solves = Diff(s0, s3, "ektelo_solver_seconds" + nnls);
    pl.Num("matrix.solver_ms.nnls",
           nnls_solves > 0 ? Diff(s0, s3, "ektelo_solver_seconds" + nnls, true) *
                                 1e3 / nnls_solves
                           : 0.0);
    pl.Num("matrix.solver_iters.nnls",
           nnls_solves > 0
               ? Diff(s0, s3, "ektelo_solver_iterations" + nnls) / nnls_solves
               : 0.0);
    const double for_s = Diff(s2, s3, "ektelo_parallel_for_seconds{}", true);
    const double shard_s =
        Diff(s2, s3, "ektelo_parallel_for_shard_seconds{}", true);
    pl.Num("util.parallel_for_ms", per_exec("ektelo_parallel_for_seconds{}"));
    pl.Num("util.parallel_for_chunks",
           per_exec("ektelo_parallel_for_chunks{}", false));
    // The calling thread drains shards too: pool width + 1 can run them.
    const double width = double(ThreadPool::Global().threads() + 1);
    pl.Num("util.parallel_efficiency",
           for_s > 0 ? shard_s / (for_s * width) : 0.0);

    // ---- in-process replay of the open-loop executions, under the
    // benchmark's own spans.
    std::vector<SpanRec> rs;
    std::map<std::string, std::pair<double, std::size_t>> plan_ms;
    for (const WorkloadDef& d : AllWorkloads())
      for (const ShapeDef& sh : d.shapes) plan_ms[sh.plan];
    double open_ms = 0.0, append_ms = 0.0;
    std::size_t replayed = 0;
    const fs::path scratch_ledger = fs::path(a.tmp) / "replay-ledger";
    std::unique_ptr<serve::BudgetLedger> ledger =
        serve::BudgetLedger::Open(scratch_ledger.string(), {});
    auto span = [&](const char* name, uint64_t id, const InvokeRequest& req,
                    const std::function<void()>& fn) {
      const double t0 = NowUs(origin);
      fn();
      const double d = NowUs(origin) - t0;
      rs.push_back({name, 99, t0, d, id, req.plan + "@" + req.tenant});
      return d / 1e3;
    };
    // The weight-0 shapes' warm-up executions first (their only ones),
    // then up to kReplayExecutions open-loop executions, over which
    // kernel.open_ms and the ledger cross-check are averaged.
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < sq.warmup; ++i)
      if (w.shapes[i].weight == 0) order.push_back(i);
    for (std::size_t i = bounds[2]; i < bounds[3]; ++i) order.push_back(i);
    for (std::size_t i : order) {
      if (replayed == kReplayExecutions) break;
      if (out[i].coalesced || out[i].code != ReplyCode::kOk) continue;
      const bool open_loop = i >= bounds[2];
      const InvokeRequest& req = sq.pool[sq.seq[i]];
      const Tenant& t = *by_name.at(req.tenant);
      if (ledger != nullptr && !ledger->Balance(req.tenant).has_value())
        ledger->CreateTenant(req.tenant, kTenantBudget);
      std::unique_ptr<ProtectedKernel> kernel;
      std::optional<ProtectedVector> x;
      const double kms = span("replay.kernel.open", i, req, [&] {
        kernel = std::make_unique<ProtectedKernel>(t.table, req.eps, t.seed ^ i);
        StatusOr<ProtectedVector> v = ProtectedTable::Root(kernel.get()).Vectorize();
        if (v.ok()) x.emplace(std::move(v).value());
      });
      if (!x.has_value()) {
        errors.push_back("replay: Vectorize failed");
        break;
      }
      Rng crng(t.seed ^ (i * 31));
      PlanInput in;
      in.dims = req.dims;
      in.mode = MatrixMode(req.mode);
      in.rng = &crng;
      in.ranges = req.ranges;
      in.known_total = req.known_total;
      in.stripe_dim = req.stripe_dim;
      BudgetScope scope(req.eps);
      const Plan* plan = PlanRegistry::Global().Find(req.plan);
      bool ok = false;
      const double ms = span("replay.plan.execute", i, req, [&] {
        ok = plan != nullptr && plan->Execute(*x, scope, in).ok();
      });
      if (!ok) {
        errors.push_back("replay: " + req.plan + " failed");
        break;
      }
      plan_ms[req.plan].first += ms;
      plan_ms[req.plan].second += 1;
      if (!open_loop) continue;
      open_ms += kms;
      if (ledger != nullptr)
        append_ms += span("replay.ledger.charge", i, req, [&] {
          ledger->Charge(req.tenant, req.eps);
        });
      ++replayed;
    }
    ledger.reset();
    double enc_ms = 0.0, reply_kib = 0.0;
    std::size_t kept_n = 0;
    for (std::size_t k = 0; k < kept.size() && k < sq.open; ++k) {
      if (kept[k].estimate.empty()) continue;
      const InvokeRequest& req = sq.pool[sq.seq[bounds[2] + k]];
      std::vector<uint8_t> req_bytes, reply_bytes_v;
      enc_ms += span("replay.wire.encode_request", bounds[2] + k, req,
                     [&] { req_bytes = serve::EncodeInvokeRequest(req); });
      reply_bytes_v = serve::EncodeInvokeReply(kept[k]);
      reply_kib += double(reply_bytes_v.size()) / 1024.0;
      InvokeReply back;
      enc_ms += span("replay.wire.decode_reply", bounds[2] + k, req,
                     [&] { serve::DecodeInvokeReply(reply_bytes_v, &back); });
      ++kept_n;
    }
    pl.Num("serve.reply_kb", kept_n > 0 ? reply_kib / double(kept_n) : 0.0);
    const double kernel_open_ms = replayed > 0 ? open_ms / double(replayed) : 0.0;
    pl.Num("kernel.open_ms", kernel_open_ms);
    for (const auto& [plan, v] : plan_ms)
      pl.Num(PlanMetricName(plan), v.second > 0 ? v.first / double(v.second) : 0.0);
    const double exec_share = n3 > 0 ? exec3 / n3 : 0.0;
    const double attributed = wire_ms + validate_ms + queue_ms + charge_ms +
                              (kernel_open_ms + plan_stage_ms) * exec_share;
    pl.Num("attr.unattributed_share", rtt_mean > 0 ? 1.0 - attributed / rtt_mean : 0.0);
    pl.Num("load.lateness_p99_ms", Percentile(late, 0.99));
    res.Raw("per_layer", pl.Done());
    std::printf("replay: %zu executions, kernel open %.3f ms, ledger charge "
                "%.4f ms (server append per request %.4f ms), wire codec "
                "%.4f ms over %zu replies\n",
                replayed, kernel_open_ms,
                replayed > 0 ? append_ms / double(replayed) : 0.0,
                per_req("ektelo_ledger_io_seconds{op=\"append\"}"),
                kept_n > 0 ? enc_ms / double(kept_n) : 0.0, kept_n);

    std::vector<SpanRec> all;
    for (const auto& v : spans) all.insert(all.end(), v.begin(), v.end());
    all.insert(all.end(), rs.begin(), rs.end());
    const std::string stem = (fs::path(a.tmp).parent_path() /
                              (w.name + "-seed" + std::to_string(a.seed)))
                                 .string();
    WriteChromeTrace(stem + ".bench-trace.json", all);
    if (!server_trace.empty()) std::ofstream(stem + ".server-trace.json") << server_trace;
    std::printf("traces: %s.bench-trace.json, %s.server-trace.json\n",
                stem.c_str(), stem.c_str());
  }

  res.Raw("correct", errors.empty() ? "true" : "false");
  std::string err_list = "[";
  for (std::size_t i = 0; i < errors.size(); ++i)
    err_list += (i ? ",\"" : "\"") + errors[i] + "\"";
  res.Raw("errors", err_list + "]");
  fs::remove_all(a.tmp);
  std::printf("RESULT %s\n", res.Done().c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(val().c_str(), nullptr);
    else if (k == "--tmp") a.tmp = val();
    else if (k == "--setup-only") a.setup_only = true;
    else if (k == "--describe") a.describe = true;
    else return Fail("unknown argument " + k);
  }
  if (a.describe) {
    std::string s = "{";
    const std::vector<WorkloadDef> all = AllWorkloads();
    for (std::size_t i = 0; i < all.size(); ++i)
      s += (i ? ",\"" : "\"") + all[i].name + "\":" + DescribeJson(all[i]);
    std::printf("%s}\n", s.c_str());
    return 0;
  }
  if (!(a.seconds > 0.0)) return Fail("--seconds must be positive");
  return Run(a);
}
