// Shared command-line -> API translation.  The CLI (and any other driver
// binary) parses argv once into CliArgs and converts the result into the
// facade's typed requests and configuration here, so every front end
// understands the same flags (--fitted / --strict / --threads, sizes,
// schemes, targets) with the same spelling and the same validation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "nanocache/requests.h"
#include "nanocache/service.h"
#include "nanocache/types.h"
#include "util/error.h"

namespace nanocache::api {

/// argv split into `command [positional] [--flag [value]]...`.  A flag
/// followed by another flag (or nothing) gets the value "true".
struct CliArgs {
  std::string command;
  std::string positional;
  std::map<std::string, std::string> flags;
};

CliArgs parse_cli_args(int argc, const char* const* argv);

/// Typed flag accessors.  Each parses the whole value and throws
/// Error(kConfig) for anything else: "0.3x", "16x", "-1", "" or an
/// integer that does not fit.
double flag_double(const CliArgs& args, const std::string& key,
                   double fallback);
std::uint64_t flag_uint(const CliArgs& args, const std::string& key,
                        std::uint64_t fallback);
/// Comma-separated non-negative integers ("16384,32768"), each parsed
/// whole; empty when the flag is absent.
std::vector<std::uint64_t> flag_uint_list(const CliArgs& args,
                                          const std::string& key);
bool flag_present(const CliArgs& args, const std::string& key);

/// A --key value narrowed to T: a value T cannot hold is an
/// Error(kConfig), never a wrapped value.
template <typename T>
T narrow_flag(const std::string& key, std::uint64_t value) {
  if (!std::in_range<T>(value)) {
    throw Error(ErrorCategory::kConfig,
                "--" + key + " is out of range: " + std::to_string(value));
  }
  return static_cast<T>(value);
}

/// flag_uint narrowed to T (see narrow_flag).
template <typename T>
T flag_int(const CliArgs& args, const std::string& key, T fallback) {
  return narrow_flag<T>(
      key, flag_uint(args, key, static_cast<std::uint64_t>(fallback)));
}

/// The --scheme flag (I, II or III); Error(kConfig) for any other
/// spelling.
SchemeId scheme_flag(const CliArgs& args, SchemeId fallback);

/// Service configuration from the shared flags: --fitted, --strict,
/// --cache-dir DIR (falling back to $NANOCACHE_CACHE_DIR; empty disables
/// the persistent result cache), --surrogate-dir DIR (falling back to
/// $NANOCACHE_SURROGATE_DIR; empty disables the surrogate serving tier)
/// and --search pruned|exhaustive.
ServiceConfig service_config_from_args(const CliArgs& args);

/// The --threads flag (0 = keep the pool default).  Throws Error(kConfig)
/// for a value that is not a non-negative int.
int threads_from_args(const CliArgs& args);

/// Translate a request-shaped command into the facade request it denotes:
///   cache    -> kEval      (--size, --l2, --vth, --tox)
///   optimize -> kOptimize  (--size, --l2, --scheme, --delay-ps)
///   run schemes|l2|l2split|l1 -> kSweep (--size, --steps, --amat-ps)
///   capabilities -> kCapabilities
/// Unknown commands/experiments yield a typed kConfig failure.  Commands
/// that are not request-shaped (fig1/fig2 rendering, export, ...) are the
/// caller's business via the Service escape hatch.
Outcome<Request> request_from_args(const CliArgs& args);

/// The documented error-taxonomy -> process-exit-code mapping shared by all
/// drivers: config=2, io=3, numeric-domain/infeasible=4, internal=1.
int exit_code_for(ErrorCode code);

}  // namespace nanocache::api
