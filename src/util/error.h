// Error handling for nanocache.
//
// The library throws nanocache::Error (derived from std::runtime_error) for
// all precondition and model-domain violations.  Every Error carries an
// ErrorCategory so callers (the CLI, the fault-injection harness, serving
// layers) can map failures to distinct recovery paths and exit codes
// without parsing message text.
//
// NC_REQUIRE is the standard argument-validation macro (category kConfig);
// the NC_REQUIRE_* variants attach the other categories.  All of them
// format a caller-supplied message into the exception text, and the failed
// condition and source location into what() only (see Error::message).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace nanocache {

/// Coarse failure taxonomy.  Categories are part of the public contract:
/// the CLI maps them to process exit codes and the fault-injection suite
/// asserts them, so pick the category by what the *caller* should do:
///   kConfig        - the request itself is malformed (bad sizes, ranges,
///                    steps, schemes); fix the inputs and retry.
///   kNumericDomain - an in-principle-valid request hit a numeric domain
///                    violation (NaN/Inf inputs, out-of-fit-domain knobs,
///                    overflowing exp, degenerate fits); recoverable by
///                    falling back to a more robust model path.
///   kIo            - filesystem, socket or serialization failures (an
///                    unusable cache directory or export path, a socket
///                    that cannot bind or connect).
///   kInfeasible    - the request is well-formed but no solution satisfies
///                    its constraints (impossible delay/AMAT budgets).
///   kInternal      - invariant violations inside the library; a bug, not
///                    a user error.
enum class ErrorCategory {
  kConfig,
  kNumericDomain,
  kIo,
  kInfeasible,
  kInternal,
};

/// Stable lower-case name ("config", "numeric-domain", "io", "infeasible",
/// "internal") used in messages, reports and logs.
const char* category_name(ErrorCategory category);

/// Exception type thrown for all nanocache precondition/model violations.
class Error : public std::runtime_error {
 public:
  /// Uncategorized errors are internal: reaching one means a library
  /// invariant broke, not that the caller misused the API.
  explicit Error(const std::string& what)
      : Error(ErrorCategory::kInternal, what) {}

  Error(ErrorCategory category, const std::string& what);

  /// what() additionally carries `context` (NC_REQUIRE's failed condition
  /// and source location) after the message.
  Error(ErrorCategory category, const std::string& what,
        const std::string& context);

  ErrorCategory category() const noexcept { return category_; }

  /// The category prefix and the human-readable text, without the context
  /// what() appends: the form that goes on the wire, the same in every
  /// build.  what() keeps the full text for logs and debuggers.  The view
  /// is valid while this Error lives.
  std::string_view message() const noexcept {
    return std::string_view(what(), message_size_);
  }

 private:
  ErrorCategory category_;
  std::size_t message_size_;
};

namespace detail {
[[noreturn]] void throw_require_failure(ErrorCategory category,
                                        const char* condition,
                                        const char* file, int line,
                                        const std::string& message);
}  // namespace detail

}  // namespace nanocache

#define NC_REQUIRE_CAT_(category, cond, message)                          \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::nanocache::detail::throw_require_failure(                         \
          (category), #cond, __FILE__, __LINE__, (message));              \
    }                                                                     \
  } while (false)

/// Validate a precondition; throws nanocache::Error with context on
/// failure.  Plain NC_REQUIRE is for argument/configuration validation and
/// carries ErrorCategory::kConfig.
#define NC_REQUIRE(cond, message) \
  NC_REQUIRE_CAT_(::nanocache::ErrorCategory::kConfig, cond, message)

/// Category-explicit variants of NC_REQUIRE.
#define NC_REQUIRE_CONFIG(cond, message) \
  NC_REQUIRE_CAT_(::nanocache::ErrorCategory::kConfig, cond, message)
#define NC_REQUIRE_DOMAIN(cond, message) \
  NC_REQUIRE_CAT_(::nanocache::ErrorCategory::kNumericDomain, cond, message)
#define NC_REQUIRE_IO(cond, message) \
  NC_REQUIRE_CAT_(::nanocache::ErrorCategory::kIo, cond, message)
#define NC_REQUIRE_FEASIBLE(cond, message) \
  NC_REQUIRE_CAT_(::nanocache::ErrorCategory::kInfeasible, cond, message)
#define NC_REQUIRE_INTERNAL(cond, message) \
  NC_REQUIRE_CAT_(::nanocache::ErrorCategory::kInternal, cond, message)
