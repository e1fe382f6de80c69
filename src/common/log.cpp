#include "common/log.h"

#include <cstdlib>
#include <string_view>

namespace tca {

namespace {
/// Initial verbosity: TCA_LOG=trace|debug|info|warn|error|off overrides the
/// default so tools can be made chatty without a rebuild.
LogLevel initial_level() {
  const char* env = std::getenv("TCA_LOG");
  if (env == nullptr) return LogLevel::kWarn;
  const std::string_view v(env);
  if (v == "trace") return LogLevel::kTrace;
  if (v == "debug") return LogLevel::kDebug;
  if (v == "info") return LogLevel::kInfo;
  if (v == "warn") return LogLevel::kWarn;
  if (v == "error") return LogLevel::kError;
  if (v == "off") return LogLevel::kOff;
  return LogLevel::kWarn;
}
}  // namespace

LogLevel Log::level_ = initial_level();

namespace {
const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void Log::write(LogLevel level, TimePs now, const char* component,
                const std::string& message) {
  if (!enabled(level)) return;
  std::fprintf(stderr, "[%12s] %-5s %-10s %s\n",
               units::format_time(now).c_str(), level_name(level), component,
               message.c_str());
}

}  // namespace tca
