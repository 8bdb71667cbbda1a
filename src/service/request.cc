#include "service/request.h"

#include <optional>
#include <vector>

#include "core/semantics.h"
#include "util/strings.h"

namespace iodb {

namespace {

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
    std::optional<long long> ms = ParseInteger(*value, 0);
    if (!ms.has_value()) return bad("bad deadline in");
    request->deadline_ms = *ms;
  } else if (auto value = value_of("--step-budget=")) {
    std::optional<long long> steps = ParseInteger(*value, 0);
    if (!steps.has_value()) return bad("bad step budget in");
    request->step_budget = *steps;
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
