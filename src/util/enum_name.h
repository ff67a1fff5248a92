// The inverse of an enum's `*_name` function (level_name, ...): every
// parser reads enum spellings through it, so each is written down once.
#pragma once

#include <optional>
#include <string>

#include "util/error.h"

namespace nanocache {

/// The enumerator of E whose name is `spelling`, or nullopt.  E's
/// enumerators must run 0..last without gaps (the default numbering).
template <typename E>
std::optional<E> enum_from_name(const std::string& spelling,
                                const char* (*name)(E), E last) {
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    if (spelling == name(static_cast<E>(i))) return static_cast<E>(i);
  }
  return std::nullopt;
}

/// enum_from_name, failing with Error(kConfig) "unknown <noun> '<spelling>'".
template <typename E>
E parse_enum(const std::string& spelling, const char* (*name)(E), E last,
             const char* noun) {
  if (const auto e = enum_from_name(spelling, name, last)) return *e;
  throw Error(ErrorCategory::kConfig,
              std::string("unknown ") + noun + " '" + spelling + "'");
}

}  // namespace nanocache
