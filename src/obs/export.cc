#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace ektelo::obs {
namespace {

// Shortest-ish deterministic rendering of a double: integers print
// without a fraction ("250" not "250.000000"), everything else gets 10
// significant digits — enough for bucket edges (exact powers of two
// times 1e-6) to round-trip stably across platforms.
std::string FormatDouble(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) && v > -1e15 &&
      v < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.10g", v);
  }
  return buf;
}

// Prometheus HELP text escaping: backslash and newline only.
std::string EscapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

const char* TypeName(MetricType t) {
  switch (t) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "untyped";
}

// Series name: counters carry the conventional _total suffix; the base
// name in HELP/TYPE headers matches the suffixed series name, which is
// what promtool expects for counters.
std::string SeriesName(const MetricInfo& m) {
  if (m.type == MetricType::kCounter) return m.name + "_total";
  return m.name;
}

void AppendSample(std::string& out, const std::string& name,
                  const std::string& labels, const std::string& value) {
  out += name;
  if (!labels.empty()) {
    out.push_back('{');
    out += labels;
    out.push_back('}');
  }
  out.push_back(' ');
  out += value;
  out.push_back('\n');
}

// Bucket sample: merges the metric's own labels with the le label.
void AppendBucketSample(std::string& out, const std::string& name,
                        const std::string& labels, const std::string& le,
                        uint64_t cumulative) {
  out += name;
  out += "_bucket{";
  if (!labels.empty()) {
    out += labels;
    out.push_back(',');
  }
  out += "le=\"";
  out += le;
  out += "\"} ";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, cumulative);
  out += buf;
  out.push_back('\n');
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// Microseconds with nanosecond remainder, rendered as a decimal: Chrome
// trace ts/dur are µs doubles.
std::string MicrosFromNanos(uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  return buf;
}

}  // namespace

std::string PrometheusText(const Registry& registry) {
  const std::vector<MetricInfo> metrics = registry.Metrics();
  std::string out;
  out.reserve(metrics.size() * 96);
  std::string last_header;  // suppress repeated HELP/TYPE for label series
  for (const MetricInfo& m : metrics) {
    const std::string series = SeriesName(m);
    if (series != last_header) {
      out += "# HELP ";
      out += series;
      out.push_back(' ');
      out += EscapeHelp(m.help);
      out.push_back('\n');
      out += "# TYPE ";
      out += series;
      out.push_back(' ');
      out += TypeName(m.type);
      out.push_back('\n');
      last_header = series;
    }
    switch (m.type) {
      case MetricType::kCounter: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%" PRIu64, m.counter->Value());
        AppendSample(out, series, m.labels, buf);
        break;
      }
      case MetricType::kGauge: {
        AppendSample(out, series, m.labels, FormatDouble(m.gauge->Value()));
        break;
      }
      case MetricType::kHistogram: {
        uint64_t counts[Histogram::kBuckets + 1];
        m.histogram->Counts(counts);
        uint64_t cumulative = 0;
        for (int i = 0; i < Histogram::kBuckets; ++i) {
          cumulative += counts[i];
          // Every edge prints, empty or not, so a histogram's set of
          // `_bucket` series is fixed from the first scrape on and
          // rate()/diff queries never see a series appear mid-run.
          AppendBucketSample(out, series, m.labels,
                             FormatDouble(Histogram::BucketEdge(i)),
                             cumulative);
        }
        cumulative += counts[Histogram::kBuckets];
        AppendBucketSample(out, series, m.labels, "+Inf", cumulative);
        AppendSample(out, series + "_sum", m.labels,
                     FormatDouble(m.histogram->Sum()));
        char buf[32];
        std::snprintf(buf, sizeof buf, "%" PRIu64, cumulative);
        AppendSample(out, series + "_count", m.labels, buf);
        break;
      }
    }
  }
  return out;
}

std::string ChromeTraceJson(
    const std::vector<std::shared_ptr<RequestTrace>>& traces) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  uint32_t pid = 0;
  for (const std::shared_ptr<RequestTrace>& trace : traces) {
    if (trace == nullptr) continue;
    ++pid;  // one synthetic process per request: groups cleanly in Perfetto
    std::string process_name = "request " + trace->request_id;
    if (!trace->tenant.empty()) process_name += " tenant=" + trace->tenant;
    if (!trace->plan.empty()) process_name += " plan=" + trace->plan;
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":0,\"args\":{\"name\":\"";
    out += JsonEscape(process_name);
    out += "\"}}";
    for (const TraceEvent& ev : trace->Events()) {
      out.push_back(',');
      out += "{\"name\":\"";
      out += JsonEscape(ev.name != nullptr ? ev.name : "");
      out += "\",\"cat\":\"";
      out += JsonEscape(ev.cat != nullptr ? ev.cat : "");
      out += "\",\"ph\":\"X\",\"ts\":";
      out += MicrosFromNanos(ev.start_ns);
      out += ",\"dur\":";
      out += MicrosFromNanos(ev.dur_ns);
      out += ",\"pid\":";
      out += std::to_string(pid);
      out += ",\"tid\":";
      out += std::to_string(ev.tid);
      out += ",\"args\":{";
      for (uint8_t i = 0; i < ev.n_attrs; ++i) {
        if (i != 0) out.push_back(',');
        const TraceAttr& a = ev.attrs[i];
        out.push_back('"');
        out += JsonEscape(a.key != nullptr ? a.key : "");
        out += "\":";
        if (a.str != nullptr) {
          out.push_back('"');
          out += JsonEscape(a.str);
          out.push_back('"');
        } else {
          out += FormatDouble(a.num);
        }
      }
      out += "}}";
    }
    const uint64_t dropped = trace->DroppedCount();
    if (dropped > 0) {
      out += ",{\"name\":\"trace_events_dropped\",\"ph\":\"M\",\"pid\":";
      out += std::to_string(pid);
      out += ",\"tid\":0,\"args\":{\"count\":";
      out += std::to_string(dropped);
      out += "}}";
    }
  }
  out += "]}";
  return out;
}

}  // namespace ektelo::obs
