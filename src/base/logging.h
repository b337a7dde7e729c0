// Minimal logging and check macros.
#ifndef SRC_BASE_LOGGING_H_
#define SRC_BASE_LOGGING_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace kflex {

enum class LogLevel { kDebug = 0, kInfo, kWarning, kError };

void LogMessage(LogLevel level, const char* file, int line, const std::string& message);

class LogStream {
 public:
  LogStream(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogStream() { LogMessage(level_, file_, line_, stream_.str()); }

  template <typename T>
  LogStream& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace kflex

#define KFLEX_LOG(level) ::kflex::LogStream(::kflex::LogLevel::k##level, __FILE__, __LINE__)

#define KFLEX_CHECK(cond)                                                        \
  do {                                                                           \
    if (!(cond)) {                                                               \
      ::kflex::LogMessage(::kflex::LogLevel::kError, __FILE__, __LINE__,         \
                          "CHECK failed: " #cond);                               \
      std::abort();                                                              \
    }                                                                            \
  } while (0)

#define KFLEX_DCHECK(cond) assert(cond)

#endif  // SRC_BASE_LOGGING_H_
