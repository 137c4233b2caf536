// Rate-limited structured logging: single-line key=value records on
// stderr with severity and a monotonic timestamp, replacing the raw
// fprintf warnings scattered through the serve layer.
//
//   obs::Log(obs::Severity::kWarn, "serve_slow",
//            {{"plan", "DAWA"}, {"ms", "412"}});
//     -> W 12.345678 event=serve_slow plan=DAWA ms=412
//
// Every event name carries an independent rate limit (default: first
// occurrence always logs, then at most one line per interval) so a
// recurring condition cannot flood stderr at request rate.  Suppressed lines are counted and the count is
// attached to the next emitted line as suppressed=N.
//
// Logging never touches request data — values are operational
// (queue depths, paths, error codes), same privacy boundary as span
// attributes (obs/trace.h).
#ifndef EKTELO_OBS_LOG_H_
#define EKTELO_OBS_LOG_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>

namespace ektelo::obs {

enum class Severity : uint8_t { kInfo = 0, kWarn = 1, kError = 2 };

/// One key=value field.  Values containing spaces, '=' or '"' are
/// rendered quoted with minimal escaping.
using LogField = std::pair<std::string, std::string>;

/// Emits one structured line to stderr, subject to the per-event rate
/// limit.  `event` should be a stable lowercase_snake identifier.
/// Returns true if the line was written, false if rate-suppressed.
bool Log(Severity sev, const std::string& event,
         std::initializer_list<LogField> fields);

/// Same, with an explicit minimum interval between lines for this
/// event (seconds; <= 0 disables the limit for this call's event).
bool LogEvery(Severity sev, const std::string& event, double min_interval_s,
              std::initializer_list<LogField> fields);

/// Default per-event minimum interval, seconds.
inline constexpr double kDefaultLogIntervalS = 10.0;

/// Test hook: clears rate-limiter state so each test sees first-line
/// semantics.
void ResetLogRateLimiterForTest();

}  // namespace ektelo::obs

#endif  // EKTELO_OBS_LOG_H_
