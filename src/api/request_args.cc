#include "api/request_args.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "api/batch_io.h"
#include "util/enum_name.h"
#include "util/error.h"

namespace nanocache::api {

namespace {

/// `text` parsed whole as a T, or Error(kConfig) naming --key and `what`.
template <typename T>
T parse_whole(const std::string& key, const std::string& text,
              const char* what) {
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    throw Error(ErrorCategory::kConfig,
                "--" + key + " expects " + what + ", got '" + text + "'");
  }
  return value;
}

/// --assoc accepts 1/2/4/8 or "full" (fully associative), like the wire's
/// organization.associativity.
int parse_assoc_flag(const std::string& s) {
  if (s == "full") return -1;
  return parse_whole<int>("assoc", s, "1, 2, 4, 8 or 'full'");
}

/// Shared v3 design-space flags of the cache/optimize commands.
void apply_organization_flags(const CliArgs& args, OrganizationSpec& org) {
  const auto assoc = args.flags.find("assoc");
  if (assoc != args.flags.end()) {
    org.associativity = parse_assoc_flag(assoc->second);
  }
  org.banks = flag_int(args, "banks", org.banks);
  if (org.banks == 1) org.banks = 0;  // same normalization as the parser
}

/// v4 --exactness exact|surrogate|auto (absent = auto, the wire default).
Exactness exactness_flag(const CliArgs& args) {
  const auto it = args.flags.find("exactness");
  if (it == args.flags.end()) return Exactness::kAuto;
  const auto exactness =
      enum_from_name(it->second, exactness_name, Exactness::kSurrogate);
  if (!exactness) {
    throw Error(ErrorCategory::kConfig,
                "--exactness expects 'exact', 'surrogate' or 'auto', got '" +
                    it->second + "'");
  }
  return *exactness;
}

}  // namespace

CliArgs parse_cli_args(int argc, const char* const* argv) {
  CliArgs a;
  if (argc < 2) return a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        a.flags[key] = argv[++i];
      } else {
        a.flags[key] = "true";
      }
    } else if (a.positional.empty()) {
      a.positional = arg;
    }
  }
  return a;
}

double flag_double(const CliArgs& args, const std::string& key,
                   double fallback) {
  const auto it = args.flags.find(key);
  if (it == args.flags.end()) return fallback;
  return parse_whole<double>(key, it->second, "a number");
}

std::uint64_t flag_uint(const CliArgs& args, const std::string& key,
                        std::uint64_t fallback) {
  const auto it = args.flags.find(key);
  if (it == args.flags.end()) return fallback;
  return parse_whole<std::uint64_t>(key, it->second,
                                    "a non-negative integer");
}

std::vector<std::uint64_t> flag_uint_list(const CliArgs& args,
                                          const std::string& key) {
  std::vector<std::uint64_t> values;
  const auto it = args.flags.find(key);
  if (it == args.flags.end()) return values;
  const std::string& s = it->second;
  for (std::size_t begin = 0;;) {
    const std::size_t comma = std::min(s.find(',', begin), s.size());
    values.push_back(parse_whole<std::uint64_t>(
        key, s.substr(begin, comma - begin),
        "comma-separated non-negative integers"));
    if (comma == s.size()) return values;
    begin = comma + 1;
  }
}

SchemeId scheme_flag(const CliArgs& args, SchemeId fallback) {
  const auto it = args.flags.find("scheme");
  if (it == args.flags.end()) return fallback;
  return parse_enum(it->second, scheme_id_name, SchemeId::kIII, "scheme");
}

bool flag_present(const CliArgs& args, const std::string& key) {
  return args.flags.count(key) > 0;
}

ServiceConfig service_config_from_args(const CliArgs& args) {
  ServiceConfig config;
  config.use_fitted_models = flag_present(args, "fitted");
  config.strict_degradation = flag_present(args, "strict");

  // Persistent result cache: --cache-dir wins, then NANOCACHE_CACHE_DIR;
  // neither means no persistence.
  const auto dir = args.flags.find("cache-dir");
  if (dir != args.flags.end()) {
    NC_REQUIRE(dir->second != "true",
               "--cache-dir expects a directory path");
    config.cache_dir = dir->second;
  } else if (const char* env = std::getenv("NANOCACHE_CACHE_DIR")) {
    config.cache_dir = env;
  }

  // Surrogate answer tables: --surrogate-dir wins, then
  // NANOCACHE_SURROGATE_DIR; neither means exact-only serving.
  const auto surrogate = args.flags.find("surrogate-dir");
  if (surrogate != args.flags.end()) {
    NC_REQUIRE(surrogate->second != "true",
               "--surrogate-dir expects a directory path");
    config.surrogate_dir = surrogate->second;
  } else if (const char* env = std::getenv("NANOCACHE_SURROGATE_DIR")) {
    config.surrogate_dir = env;
  }

  const auto search = args.flags.find("search");
  if (search != args.flags.end()) {
    if (search->second == "exhaustive") {
      config.exhaustive_search = true;
    } else {
      NC_REQUIRE(search->second == "pruned",
                 "--search expects 'pruned' or 'exhaustive', got '" +
                     search->second + "'");
    }
  }

  return config;
}

int threads_from_args(const CliArgs& args) {
  return flag_int(args, "threads", 0);
}

Outcome<Request> request_from_args(const CliArgs& args) {
  return parse_outcome<Request>([&]() -> Request {
    Request r;
    if (args.command == "capabilities") {
      r.kind = RequestKind::kCapabilities;
      return r;
    }
    if (args.command == "cache") {
      r.kind = RequestKind::kEval;
      r.eval.target.level = flag_present(args, "l2") ? Level::kL2 : Level::kL1;
      r.eval.target.size_bytes =
          flag_uint(args, "size", r.eval.target.size_bytes);
      r.eval.knobs.vth_v = flag_double(args, "vth", r.eval.knobs.vth_v);
      r.eval.knobs.tox_a = flag_double(args, "tox", r.eval.knobs.tox_a);
      apply_organization_flags(args, r.eval.organization);
      r.eval.node_nm = flag_int(args, "node", 0);
      r.eval.exactness = exactness_flag(args);
      return r;
    }
    if (args.command == "optimize") {
      r.kind = RequestKind::kOptimize;
      r.optimize.target.level =
          flag_present(args, "l2") ? Level::kL2 : Level::kL1;
      r.optimize.target.size_bytes =
          flag_uint(args, "size", r.optimize.target.size_bytes);
      r.optimize.scheme = scheme_flag(args, r.optimize.scheme);
      r.optimize.delay.target_ps =
          flag_double(args, "delay-ps", r.optimize.delay.target_ps);
      apply_organization_flags(args, r.optimize.organization);
      r.optimize.node_nm = flag_int(args, "node", 0);
      if (flag_present(args, "power-gating")) {
        r.optimize.power_gating.enabled = true;
      }
      r.optimize.power_gating.perf_loss_budget = flag_double(
          args, "perf-loss-budget", r.optimize.power_gating.perf_loss_budget);
      r.optimize.exactness = exactness_flag(args);
      return r;
    }
    if (args.command == "run") {
      r.kind = RequestKind::kSweep;
      if (args.positional == "schemes") {
        r.sweep.kind = SweepKind::kSchemes;
        r.sweep.target.size_bytes = flag_uint(args, "size", 0);
        r.sweep.ladder_steps = flag_int(args, "steps", 9);
      } else if (args.positional == "l2" || args.positional == "l2split") {
        r.sweep.kind = SweepKind::kL2Sizes;
        r.sweep.l2_scheme =
            args.positional == "l2split" ? SchemeId::kII : SchemeId::kIII;
        r.sweep.delay.target_ps = flag_double(args, "amat-ps", 0.0);
      } else if (args.positional == "l1") {
        r.sweep.kind = SweepKind::kL1Sizes;
        r.sweep.delay.target_ps = flag_double(args, "amat-ps", 0.0);
      } else {
        throw Error(ErrorCategory::kConfig,
                    "experiment '" + args.positional +
                        "' is not request-shaped (expected schemes, l2, "
                        "l2split or l1)");
      }
      r.sweep.node_nm = flag_int(args, "node", 0);
      return r;
    }
    throw Error(ErrorCategory::kConfig,
                "command '" + args.command + "' has no request translation");
  });
}

int exit_code_for(ErrorCode code) {
  switch (code) {
    case ErrorCode::kConfig: return 2;
    case ErrorCode::kIo: return 3;
    case ErrorCode::kNumericDomain:
    case ErrorCode::kInfeasible: return 4;
    case ErrorCode::kInternal: return 1;
  }
  return 1;
}

}  // namespace nanocache::api
