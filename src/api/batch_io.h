// JSONL wire format of the batch API (schema v2, see docs/API.md).
//
// One JSON object per line.  Requests carry their payload fields at top
// level, discriminated by "kind", with the shared GridSpec/DelayConstraint
// structs as nested "target"/"delay"/"knobs" objects; schema_version 1
// lines (flat fields) are still accepted and normalized to v2 on parse.
// Unknown keys are ignored (additive schema evolution without a version
// bump).  Responses serialize with a fixed key order and
// shortest-round-trip number formatting, so equal response structs always
// produce equal bytes — the batch determinism contract.
#pragma once

#include <exception>
#include <iosfwd>
#include <string>

#include "nanocache/requests.h"
#include "nanocache/responses.h"
#include "nanocache/service.h"
#include "nanocache/types.h"
#include "util/error.h"
#include "util/json.h"

namespace nanocache::api {

/// Parse one JSONL request line.  Malformed JSON, a wrong schema_version,
/// an unknown kind, or a type-mismatched field yield a typed kConfig
/// failure (kIo for stream-level problems is the caller's business).
Outcome<Request> parse_request_json(const std::string& line);

/// parse_request_json for a line whose JSON the caller already parsed
/// (the server inspects the root for control requests first): the same
/// schema checks and the same error codes and messages.
/// parse_request_json(line) == parse_request_value(json::parse(line))
/// whenever the line is well-formed JSON.
Outcome<Request> parse_request_value(const json::ValuePtr& root);

/// Canonical JSON encoding of a request (round-trips through
/// parse_request_json).  All payload fields of the active kind are written
/// explicitly, defaults included; `id` is written only when non-empty.
std::string request_to_json(const Request& request);

/// Deterministic JSON encoding of a response (single line, no trailing
/// newline).  Key order is fixed; `id` is written only when non-empty;
/// `kind` + payload appear on ok responses, `error` on failed ones.
std::string response_to_json(const Response& response);

/// Exact inverse of response_to_json, used by the persistent disk cache:
/// for any response R, parse_response_json(response_to_json(R)) followed by
/// response_to_json reproduces the original bytes (doubles are
/// shortest-round-trip, conditional omissions map back to defaults).
/// Malformed or truncated lines yield a typed kConfig/kInternal failure.
Outcome<Response> parse_response_json(const std::string& line);

/// The request's identity: its canonical request line, i.e.
/// request_to_json without the id, prefixed "v<N>|" only when
/// schema_version N is unsupported.  Equal keys <=> the service would run
/// the identical computation, because the line round-trips through
/// parse_request_json.  Batch dedup and the disk cache both key on it.
/// Empty when the request has no wire spelling (a non-finite double,
/// reachable only from C++): such a request is never deduped or persisted.
std::string request_canonical_key(const Request& request);

/// `response_to_json`, hardened for the per-line batch path: when the
/// response itself cannot be serialized (a non-finite double in a payload
/// field — NaN/Inf are not JSON and format_double refuses them), the
/// failure is folded into an error response IN PLACE carrying the same id,
/// instead of aborting the whole stream.  Error responses contain no
/// doubles, so the fallback line always serializes.
std::string response_line(const Response& response);

/// Run a parse step, mapping a thrown kConfig Error to a kConfig failure
/// and anything else to kInternal, with the exception text (without any
/// source location) as message.
/// Every request parser (JSONL lines, CLI flags) reports failures this way.
template <typename T, typename Fn>
Outcome<T> parse_outcome(Fn&& parse) {
  try {
    return parse();
  } catch (const Error& e) {
    const ErrorCode code = e.category() == ErrorCategory::kConfig
                               ? ErrorCode::kConfig
                               : ErrorCode::kInternal;
    return Outcome<T>::failure(code, std::string(e.message()));
  } catch (const std::exception& e) {
    return Outcome<T>::failure(ErrorCode::kInternal, e.what());
  }
}

/// Drive a whole JSONL stream through Service::run_batch: every non-empty
/// input line produces exactly one output line in input order (parse
/// failures become error responses in place).  Returns the batch stats
/// (parse-failed lines count as requests but never as hits).
BatchStats run_batch_jsonl(const Service& service, std::istream& in,
                           std::ostream& out);

}  // namespace nanocache::api
