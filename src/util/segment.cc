#include "util/segment.h"

#include <fstream>

#include "util/error.h"
#include "util/hash.h"
#include "util/json.h"

namespace nanocache::segment {

namespace {

std::string checksum(const std::string& key, const std::string& value) {
  return fnv1a64_hex(key + '\n' + value);
}

/// The value of `field` as a string; throws Error when absent or mistyped.
const std::string& string_field(const json::ValuePtr& root, const char* field) {
  const auto v = root->get(field);
  NC_REQUIRE(v != nullptr, std::string("segment line lacks '") + field + "'");
  return v->as_string();
}

}  // namespace

std::string header_line(const Header& header) {
  std::string line = "{";
  line += json::quote(header.magic);
  line += ':' + std::to_string(header.version) + ",\"fingerprint\":";
  line += json::quote(header.fingerprint);
  if (!header.stamp.empty()) line += ",\"stamp\":" + json::quote(header.stamp);
  return line + "}\n";
}

std::string entry_line(const std::string& key, const std::string& value) {
  return "{\"key\":" + json::quote(key) +
         ",\"checksum\":" + json::quote(checksum(key, value)) +
         ",\"value\":" + json::quote(value) + "}\n";
}

ReadResult read(
    const std::string& path, const Header& expected,
    const std::function<void(std::string key, std::string value)>& on_entry) {
  ReadResult result;
  std::ifstream in(path, std::ios::binary);
  std::string line;
  if (!std::getline(in, line)) return result;
  try {
    const auto header = json::parse(line);
    const auto version = header->get(expected.magic);
    NC_REQUIRE(version != nullptr && version->as_int() == expected.version &&
                   string_field(header, "fingerprint") == expected.fingerprint,
               "segment header mismatch");
    if (header->get("stamp")) result.stamp = string_field(header, "stamp");
  } catch (const Error&) {
    result.status = Status::kRejected;
    return result;
  }
  result.status = Status::kLoaded;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      const auto entry = json::parse(line);
      const std::string& key = string_field(entry, "key");
      const std::string& value = string_field(entry, "value");
      NC_REQUIRE(string_field(entry, "checksum") == checksum(key, value),
                 "segment entry checksum mismatch");
      on_entry(key, value);
    } catch (const Error&) {
      ++result.corrupt_lines;
    }
  }
  return result;
}

}  // namespace nanocache::segment
