#include "util/error.h"

#include <sstream>

namespace nanocache {

const char* category_name(ErrorCategory category) {
  switch (category) {
    case ErrorCategory::kConfig:
      return "config";
    case ErrorCategory::kNumericDomain:
      return "numeric-domain";
    case ErrorCategory::kIo:
      return "io";
    case ErrorCategory::kInfeasible:
      return "infeasible";
    case ErrorCategory::kInternal:
      return "internal";
  }
  return "internal";
}

Error::Error(ErrorCategory category, const std::string& what)
    : Error(category, what, "") {}

Error::Error(ErrorCategory category, const std::string& what,
             const std::string& context)
    : std::runtime_error("[" + std::string(category_name(category)) + "] " +
                         what + context),
      category_(category),
      message_size_(std::string_view(runtime_error::what()).size() -
                    context.size()) {}

namespace detail {

void throw_require_failure(ErrorCategory category, const char* condition,
                           const char* file, int line,
                           const std::string& message) {
  std::ostringstream context;
  context << " [" << condition << "] at " << file << ":" << line;
  throw Error(category, "nanocache precondition failed: " + message,
              context.str());
}

}  // namespace detail
}  // namespace nanocache
