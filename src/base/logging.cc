#include "src/base/logging.h"

#include <mutex>

#include "src/base/status.h"

namespace kflex {

namespace {
// Messages below this level are dropped.
constexpr LogLevel kMinLevel = LogLevel::kInfo;
std::mutex g_log_mutex;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}
}  // namespace

void LogMessage(LogLevel level, const char* file, int line, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(kMinLevel)) {
    return;
  }
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  std::lock_guard<std::mutex> lock(g_log_mutex);
  std::fprintf(stderr, "[%s %s:%d] %s\n", LevelName(level), base, line, message.c_str());
}

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kUnimplemented:
      return "UNIMPLEMENTED";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kVerificationFailed:
      return "VERIFICATION_FAILED";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  return std::string(StatusCodeName(code_)) + ": " + message_;
}

}  // namespace kflex
