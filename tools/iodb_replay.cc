// iodb_replay: replays an iodb_serve session script through the
// EvaluationService and reports throughput and latency percentiles
// (the bench-style counterpart of iodb_serve — same requests, measured).
//
// Script format: the iodb_serve protocol (see tools/iodb_serve.cc),
// restricted to the verbs a replay needs. Request lines are the wire
// form of service/request.h, parsed by ParseEvalRequest as the server
// parses them, so the same script can be piped into iodb_serve.
//
//   LOAD <name>    parser-format database text up to a line "END";
//                  loads run once, untimed, before the first request,
//                  and must precede it in the script
//   EVAL <request> one request, served by one Eval call
//   BATCH <n>      the next n lines (n in [1, 65536]) are request lines,
//                  served as one EvalBatch through the worker pool; a
//                  batched request's latency is its batch's duration
//   QUIT           ends the script (as does the end of the file)
//
// Blank lines and '#' comments are skipped. Any other verb, a bad
// request line, a LOAD without END or after the first request, and a
// BATCH with a bad count or fewer than n lines exit 2, naming the line.
// Usage:
//
//   iodb_replay SCRIPT [--repeat=K] [--workers=N] [--plan-cache=N]
//               [--trace-plans] [--db-snapshot=NAME=PATH ...]
//
// --trace-plans prints one plan-choice line per request of the first
// round ("plan: #<i> db=<name> engine=<engine> schedule=<summary>"), the
// observable record of what the cost-based planner picked per request.
//
// --db-snapshot registers the binary snapshot at PATH (written by
// iodb_pack or the durable registry) under NAME before the script's own
// loads run, so a replay against a large database skips the text parser
// entirely. The flag repeats.
//
// --repeat=K replays the request sequence K times, so steady-state
// cached-plan throughput is measurable separately from the cold first
// pass. Exit code: 0 on success (even if some requests fail — failures
// are counted and reported), 2 on a malformed script or flags.
//
// Reporting: the "verdicts:" line counts every non-ok response as an
// error (stable across versions); the "outcomes:" line splits responses
// by status — ok / deadline-exceeded / cancelled / other errors — and
// the latency percentiles cover only requests that ran to completion
// (an exhausted request's latency is its budget, not the service's);
// when no request completed, the percentiles print "n/a".

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.h"
#include "service/service.h"
#include "storage/snapshot.h"
#include "util/strings.h"

namespace {

using namespace iodb;

int Fail(const std::string& message) {
  std::fprintf(stderr, "iodb_replay: %s\n", message.c_str());
  return 2;
}

// Parses the integer flag `arg` ("--name=N") into `out`: one whole
// decimal integer that fits an int.
bool IntFlag(const std::string& arg, int* out) {
  std::optional<long long> value = ParseInteger(
      std::string_view(arg).substr(arg.find('=') + 1), INT_MIN, INT_MAX);
  if (value.has_value()) *out = static_cast<int>(*value);
  return value.has_value();
}

// One parsed script: the loads to apply up front and the requests to
// replay, grouped into the steps the script serves them in.
struct Script {
  struct Step {
    size_t begin = 0;    // first request, an index into `requests`
    size_t size = 1;     // one for EVAL, n for BATCH n
    bool batch = false;  // BATCH: one EvalBatch; EVAL: one Eval
  };
  std::vector<std::pair<std::string, std::string>> loads;  // (name, text)
  std::vector<EvalRequest> requests;
  std::vector<Step> steps;
};

Status LineError(int line, const std::string& message) {
  return Status::InvalidArgument("line " + std::to_string(line) + ": " +
                                 message);
}

// Reads a script line by line; every error names the offending line.
Result<Script> ReadScript(std::istream& in) {
  Script script;
  int line_number = 0;
  std::string line;
  auto next = [&] {
    if (!std::getline(in, line)) return false;
    ++line_number;
    return true;
  };
  auto add_request = [&](const std::string& request_line) {
    Result<EvalRequest> request = ParseEvalRequest(request_line);
    if (!request.ok()) {
      return LineError(line_number, request.status().message());
    }
    script.requests.push_back(std::move(request.value()));
    return Status::Ok();
  };
  while (next()) {
    const int verb_line = line_number;
    std::string_view rest = StripWhitespace(line);
    if (rest.empty() || rest[0] == '#') continue;
    const size_t space = rest.find(' ');
    const std::string verb(rest.substr(0, space));
    const std::string args(space == std::string_view::npos
                               ? std::string_view()
                               : StripWhitespace(rest.substr(space)));
    if (verb == "QUIT") break;
    if (verb == "LOAD") {
      if (args.empty()) {
        return LineError(verb_line, "LOAD needs a database name");
      }
      if (!script.requests.empty()) {
        return LineError(verb_line, "LOAD after the first request");
      }
      std::string text;
      while (true) {
        if (!next()) {
          return LineError(verb_line, "unterminated LOAD (missing END)");
        }
        if (StripWhitespace(line) == "END") break;
        text += line;
        text += '\n';
      }
      script.loads.emplace_back(args, std::move(text));
    } else if (verb == "EVAL") {
      script.steps.push_back({script.requests.size(), 1, false});
      Status status = add_request(args);
      if (!status.ok()) return status;
    } else if (verb == "BATCH") {
      const std::optional<int> count = server::ParseBatchCount(args);
      if (!count.has_value()) {
        return LineError(verb_line,
                         "BATCH needs a request count in [1, " +
                             std::to_string(server::kMaxBatchRequests) + "]");
      }
      const int n = *count;
      script.steps.push_back(
          {script.requests.size(), static_cast<size_t>(n), true});
      for (int i = 0; i < n; ++i) {
        if (!next()) {
          return LineError(verb_line, "BATCH " + std::to_string(n) +
                                          " ends after " + std::to_string(i) +
                                          " request line(s)");
        }
        Status status = add_request(line);
        if (!status.ok()) return status;
      }
    } else {
      return LineError(verb_line, "unknown verb '" + verb + "'");
    }
  }
  if (script.requests.empty()) {
    return Status::InvalidArgument("script has no requests");
  }
  return script;
}

double Percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0;
  size_t index = static_cast<size_t>(q * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[index];
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Fail("usage: iodb_replay SCRIPT [--repeat=K] [--workers=N] "
                "[--plan-cache=N] [--trace-plans] "
                "[--db-snapshot=NAME=PATH ...]");
  }
  ServiceOptions options;
  int repeat = 1;
  bool trace_plans = false;
  int plan_cache = static_cast<int>(options.plan_cache_capacity);
  std::vector<std::pair<std::string, std::string>> snapshots;  // (name, path)
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--repeat=", 0) == 0) {
      if (!IntFlag(arg, &repeat)) return Fail("bad integer in '" + arg + "'");
    } else if (arg.rfind("--workers=", 0) == 0) {
      if (!IntFlag(arg, &options.num_workers)) {
        return Fail("bad integer in '" + arg + "'");
      }
    } else if (arg.rfind("--plan-cache=", 0) == 0) {
      if (!IntFlag(arg, &plan_cache)) {
        return Fail("bad integer in '" + arg + "'");
      }
    } else if (arg == "--trace-plans") {
      trace_plans = true;
    } else if (arg.rfind("--db-snapshot=", 0) == 0) {
      const std::string value = arg.substr(14);
      const size_t eq = value.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == value.size()) {
        return Fail("--db-snapshot needs NAME=PATH");
      }
      snapshots.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else {
      return Fail("unknown flag '" + arg + "'");
    }
  }
  if (repeat <= 0 || plan_cache <= 0) {
    return Fail("--repeat and --plan-cache must be positive");
  }
  options.plan_cache_capacity = static_cast<size_t>(plan_cache);

  std::ifstream file(argv[1]);
  if (!file) return Fail(std::string("cannot open ") + argv[1]);
  Result<Script> read = ReadScript(file);
  if (!read.ok()) {
    return Fail(std::string(argv[1]) + ": " + read.status().message());
  }
  const Script& script = read.value();

  EvaluationService service(options);
  for (const auto& [name, path] : snapshots) {
    Result<Database> db = storage::OpenSnapshotInto(path, service.vocab());
    if (!db.ok()) {
      return Fail("snapshot '" + path + "': " + db.status().ToString());
    }
    Result<DbInfo> info = service.Register(name, std::move(db.value()));
    if (!info.ok()) {
      return Fail("snapshot '" + name + "': " + info.status().ToString());
    }
  }
  for (const auto& [name, db_text] : script.loads) {
    Result<DbInfo> info = service.Load(name, db_text);
    if (!info.ok()) {
      return Fail("load '" + name + "': " + info.status().ToString());
    }
  }

  using Clock = std::chrono::steady_clock;
  std::vector<double> latencies_us;
  long long entailed = 0, not_entailed = 0, errors = 0;
  long long deadline_exceeded = 0, cancelled = 0, other_errors = 0;
  const auto replay_start = Clock::now();
  for (int round = 0; round < repeat; ++round) {
    for (const Script::Step& step : script.steps) {
      const std::span<const EvalRequest> requests(
          script.requests.data() + step.begin, step.size);
      const auto start = Clock::now();
      std::vector<Result<EvalResponse>> responses;
      if (step.batch) {
        responses = service.EvalBatch(requests);
      } else {
        responses.push_back(service.Eval(requests[0]));
      }
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - start)
              .count();
      if (trace_plans && round == 0) {
        for (size_t k = 0; k < responses.size(); ++k) {
          const size_t i = step.begin + k;
          if (responses[k].ok()) {
            std::printf("plan: #%zu db=%s engine=%s schedule=%s\n", i,
                        requests[k].db.c_str(),
                        EngineKindName(responses[k].value().engine_used),
                        responses[k].value().plan_summary.c_str());
          } else {
            std::printf("plan: #%zu db=%s error\n", i,
                        requests[k].db.c_str());
          }
        }
      }
      for (const Result<EvalResponse>& response : responses) {
        if (!response.ok()) {
          ++errors;
          // Exhausted requests are excluded from the latency population:
          // their duration measures the configured budget, not the
          // service. Other errors (bad database, parse) stay in.
          switch (response.status().code()) {
            case StatusCode::kDeadlineExceeded:
              ++deadline_exceeded;
              continue;
            case StatusCode::kCancelled:
              ++cancelled;
              continue;
            default:
              ++other_errors;
              break;
          }
        } else if (response.value().entailed) {
          ++entailed;
        } else {
          ++not_entailed;
        }
        latencies_us.push_back(us);  // a request waits for its whole batch
      }
    }
  }
  const double total_s =
      std::chrono::duration<double>(Clock::now() - replay_start).count();

  std::sort(latencies_us.begin(), latencies_us.end());
  const long long total = entailed + not_entailed + errors;
  const ServiceStats stats = service.stats();
  std::printf("replayed %lld request(s) in %.3f s (%.1f req/s, repeat=%d)\n",
              total, total_s, total > 0 ? total / total_s : 0.0, repeat);
  std::printf("verdicts: %lld entailed, %lld not entailed, %lld error(s)\n",
              entailed, not_entailed, errors);
  std::printf("outcomes: %lld ok, %lld deadline-exceeded, %lld cancelled, "
              "%lld error(s)\n",
              entailed + not_entailed, deadline_exceeded, cancelled,
              other_errors);
  if (latencies_us.empty()) {
    // Every request was excluded (exhausted or cancelled): there is no
    // latency population. "0.0" here would read as a real measurement.
    std::printf("latency us: p50=n/a p90=n/a p99=n/a max=n/a\n");
  } else {
    std::printf("latency us: p50=%.1f p90=%.1f p99=%.1f max=%.1f\n",
                Percentile(latencies_us, 0.50), Percentile(latencies_us, 0.90),
                Percentile(latencies_us, 0.99), latencies_us.back());
  }
  std::printf("plan cache: %lld hit(s), %lld miss(es), %lld eviction(s), "
              "%lld compiled\n",
              stats.plan_cache.hits, stats.plan_cache.misses,
              stats.plan_cache.evictions, stats.plans_compiled);
  return 0;
}
