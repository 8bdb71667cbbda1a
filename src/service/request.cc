#include "service/request.h"

#include <charconv>
#include <optional>
#include <vector>

#include "core/semantics.h"
#include "util/strings.h"

namespace iodb {

namespace {

// Parses a non-negative decimal integer; rejects empty, signs, trailing
// junk.
bool ParseNonNegative(std::string_view text, long long* out) {
  long long value = 0;
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) return false;
  if (value < 0) return false;
  *out = value;
  return true;
}

// Splits off the next whitespace-delimited token of `rest`; returns empty
// when exhausted. `rest` is advanced past the token and any following
// whitespace.
std::string_view NextToken(std::string_view& rest) {
  rest = StripWhitespace(rest);
  size_t end = 0;
  while (end < rest.size() && rest[end] != ' ' && rest[end] != '\t') ++end;
  std::string_view token = rest.substr(0, end);
  rest = StripWhitespace(rest.substr(end));
  return token;
}

}  // namespace

Status ParseEvalFlag(std::string_view flag, EvalRequest* request) {
  auto value_of = [flag](std::string_view name) {
    return flag.starts_with(name) ? std::optional(flag.substr(name.size()))
                                  : std::nullopt;
  };
  auto bad = [flag](const char* what) {
    return Status::InvalidArgument(what + std::string(" '") +
                                   std::string(flag) + "'");
  };
  if (flag == "--countermodel") {
    request->options.want_countermodel = true;
  } else if (flag == "--explain") {
    request->explain = true;
  } else if (flag == "--identity") {
    request->report_identity = true;
  } else if (auto value = value_of("--semantics=")) {
    std::optional<OrderSemantics> semantics = ParseOrderSemantics(*value);
    if (!semantics.has_value()) return bad("unknown semantics in");
    request->options.semantics = *semantics;
  } else if (auto value = value_of("--engine=")) {
    std::optional<EngineKind> engine = ParseEngineKind(*value);
    if (!engine.has_value()) return bad("unknown engine in");
    request->options.engine = *engine;
  } else if (auto value = value_of("--deadline-ms=")) {
    if (!ParseNonNegative(*value, &request->deadline_ms)) {
      return bad("bad deadline in");
    }
  } else if (auto value = value_of("--step-budget=")) {
    if (!ParseNonNegative(*value, &request->step_budget)) {
      return bad("bad step budget in");
    }
  } else if (auto value = value_of("--costing=")) {
    if (*value != "on" && *value != "off") {
      return Status::InvalidArgument("bad costing value in '" +
                                     std::string(flag) + "' (want on|off)");
    }
    request->costing = *value == "on" ? 1 : 0;
  } else {
    return bad("unknown flag");
  }
  return Status::Ok();
}

Result<EvalRequest> ParseEvalRequest(const std::string& line) {
  std::string_view rest = line;
  EvalRequest request;
  request.db = std::string(NextToken(rest));
  if (request.db.empty()) {
    return Status::InvalidArgument("EVAL request needs a database name");
  }
  while (rest.starts_with("--")) {
    Status status = ParseEvalFlag(NextToken(rest), &request);
    if (!status.ok()) return status;
  }
  request.query = std::string(rest);
  if (request.query.empty()) {
    return Status::InvalidArgument("EVAL request needs a query");
  }
  return request;
}

std::string FormatEvalRequest(const EvalRequest& request) {
  std::string out = request.db;
  if (request.options.semantics != OrderSemantics::kFinite) {
    out += std::string(" --semantics=") +
           OrderSemanticsName(request.options.semantics);
  }
  if (request.options.engine != EngineKind::kAuto) {
    out += std::string(" --engine=") + EngineKindName(request.options.engine);
  }
  if (request.deadline_ms >= 0) {
    out += " --deadline-ms=" + std::to_string(request.deadline_ms);
  }
  if (request.step_budget >= 0) {
    out += " --step-budget=" + std::to_string(request.step_budget);
  }
  if (request.costing >= 0) {
    out += std::string(" --costing=") + (request.costing > 0 ? "on" : "off");
  }
  if (request.options.want_countermodel) out += " --countermodel";
  if (request.explain) out += " --explain";
  if (request.report_identity) out += " --identity";
  return out + " " + request.query;
}

std::string FormatResponseLine(const EvalResponse& response) {
  std::string out = response.entailed ? "ENTAILED" : "NOT ENTAILED";
  out += std::string("  [engine: ") + EngineKindName(response.engine_used) +
         ", cache: " + (response.plan_cache_hit ? "hit" : "miss");
  if (response.report_identity) {
    out += ", db: " + std::to_string(response.db_uid) + "@" +
           std::to_string(response.db_revision);
  }
  return out + "]";
}

}  // namespace iodb
