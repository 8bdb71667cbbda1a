// The traced run: the workload's request stream replayed in-process, one
// operation at a time, through the public functions of each layer on the
// request path, with a span around every call:
//
//   read  : server.request_parse (ParseEvalRequest), service.pin
//           (Snapshot), stats.planner_for (PlannerFor), core.parse_query
//           (ParseQuery), service.plan_lookup (FingerprintPlanInputs +
//           PlanCache::Get), core.prepare (Prepare, on a miss),
//           core.evaluate.<engine> (PreparedQuery::Evaluate),
//           server.render (FormatResponseLine)
//   batch : server.request_parse per member, service.batch (EvalBatch),
//           server.render per member
//   write : storage.mutation_parse (ParseMutationText), service.mutate
//           (Mutate) with, through its own callbacks, core.fork (Mutate
//           entry to the mutate callback), storage.apply (ApplyWalRecords),
//           core.norm_view (NormView of the fresh fork, growing the graph
//           reachability index), stats.stats_for (StatsFor),
//           storage.wal_append (AppendWalGroup) and storage.wal_sync
//           (SyncWal); the self time of service.mutate is what Publish
//           does beyond them.
//
// The replay mirrors what EvaluationService::Eval and
// DurableRegistry::AppendText do, from the outside, with the workload's
// mix of reads, BATCHes and writes (writes on the wall clock at their
// rate). A layer a workload does not reach reports 0. An
// in-process SocketServer over the same state gives the wire round trip
// for the same requests. Spans are kept in memory and, when the run ends,
// the first requests' spans are written as JSON lines beside the work
// directory.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>

#include "bench.h"
#include "core/parser.h"
#include "core/prepare.h"
#include "server/server.h"
#include "stats/stats.h"
#include "storage/wal.h"
#include "wire.h"

namespace wirebench {

using namespace iodb;
namespace fs = std::filesystem;

namespace {

enum SpanName {
  kRead,
  kBatchOp,
  kWrite,
  kRequestParse,
  kRender,
  kPin,
  kPlannerFor,
  kParseQuery,
  kPlanLookup,
  kPrepare,
  kEvaluate,  // renamed to the engine-specific name once known
  kEvaluateBruteForce,
  kEvaluatePaths,
  kEvaluateBoundedWidth,
  kEvaluateDisjunctive,
  kEvalBatch,
  kMutationParse,
  kMutate,
  kFork,
  kApply,
  kNormView,
  kStatsFor,
  kWalAppend,
  kWalSync,
  kNumSpanNames,
};

const char* const kSpanNames[kNumSpanNames] = {
    "read",
    "batch",
    "write",
    "server.request_parse",
    "server.render",
    "service.pin",
    "stats.planner_for",
    "core.parse_query",
    "service.plan_lookup",
    "core.prepare",
    "core.evaluate",
    "core.evaluate.brute-force",
    "core.evaluate.path-decomposition",
    "core.evaluate.bounded-width",
    "core.evaluate.disjunctive-search",
    "service.batch",
    "storage.mutation_parse",
    "service.mutate",
    "core.fork",
    "storage.apply",
    "core.norm_view",
    "stats.stats_for",
    "storage.wal_append",
    "storage.wal_sync",
};

SpanName EvaluateSpan(EngineKind engine) {
  switch (engine) {
    case EngineKind::kBruteForce: return kEvaluateBruteForce;
    case EngineKind::kPathDecomposition: return kEvaluatePaths;
    case EngineKind::kBoundedWidth: return kEvaluateBoundedWidth;
    case EngineKind::kDisjunctiveSearch: return kEvaluateDisjunctive;
    case EngineKind::kAuto: break;
  }
  return kEvaluate;
}

// Records spans for one single-threaded replay. Spans of one request are
// contiguous; when a request's root span ends its spans are folded into
// per-name durations and self times, and only the first kKeptRequests
// requests' spans stay in memory for the span file.
class Tracer {
 public:
  static constexpr long long kKeptRequests = 2000;

  struct Span {
    SpanName name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;  // index into spans_, -1 for a request's root
    long long request;
  };

  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }

  int Begin(SpanName name) {
    if (!on_) return -1;
    if (current_ < 0) {
      ++request_;
      root_ = static_cast<int>(spans_.size());
    }
    spans_.push_back({name, Clock::now(), {}, current_, request_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void End(int index) {
    if (index < 0) return;
    Span& span = spans_[static_cast<size_t>(index)];
    span.end = Clock::now();
    current_ = span.parent;
    if (current_ < 0) Fold();
  }

  // A span measured outside Begin/End, as a child of the open span.
  void Record(SpanName name, Clock::time_point start, Clock::time_point end) {
    if (!on_) return;
    spans_.push_back({name, start, end, current_, request_});
  }

  void Rename(int index, SpanName name) {
    if (index >= 0) spans_[static_cast<size_t>(index)].name = name;
  }

  const std::vector<double>& durations(SpanName name) const {
    return durations_[name];
  }
  const std::vector<double>& self(SpanName name) const { return self_[name]; }
  double root_us() const { return root_us_; }
  double layer_self_us() const { return layer_self_us_; }
  long long requests() const { return request_; }
  // Per write: ParseMutationText plus ApplyWalRecords.
  const std::vector<double>& parse_apply() const { return parse_apply_us_; }

  bool WriteSpans(const std::string& path) const {
    std::ofstream out(path);
    const Clock::time_point origin =
        spans_.empty() ? Clock::time_point() : spans_.front().start;
    for (const Span& span : spans_) {
      out << "{\"name\":\"" << kSpanNames[span.name] << "\",\"start_ns\":"
          << std::chrono::nanoseconds(span.start - origin).count()
          << ",\"end_ns\":"
          << std::chrono::nanoseconds(span.end - origin).count()
          << ",\"parent\":" << span.parent
          << ",\"request\":" << span.request << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  void Fold() {
    const size_t begin = static_cast<size_t>(root_);
    std::vector<double> child_us(spans_.size() - begin, 0);
    for (size_t i = begin + 1; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      child_us[static_cast<size_t>(span.parent) - begin] +=
          Micros(span.end - span.start);
    }
    double parse_apply = 0;
    for (size_t i = begin; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const double us = Micros(span.end - span.start);
      const double self = us - child_us[i - begin];
      durations_[span.name].push_back(us);
      self_[span.name].push_back(self);
      if (span.name == kMutationParse || span.name == kApply) parse_apply += us;
      if (i == begin) {
        root_us_ += us;
      } else {
        layer_self_us_ += self;
      }
    }
    if (spans_[begin].name == kWrite) parse_apply_us_.push_back(parse_apply);
    if (request_ > kKeptRequests) spans_.resize(begin);
  }

  bool on_;
  std::vector<Span> spans_;
  int current_ = -1;
  int root_ = 0;
  long long request_ = 0;
  std::vector<double> durations_[kNumSpanNames];
  std::vector<double> self_[kNumSpanNames];
  std::vector<double> parse_apply_us_;
  double root_us_ = 0;
  double layer_self_us_ = 0;
};

class Scope {
 public:
  Scope(Tracer& tracer, SpanName name)
      : tracer_(tracer), index_(tracer.Begin(name)) {}
  ~Scope() { tracer_.End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// Runs `body` inside a span and returns its result.
template <typename Body>
auto Timed(Tracer& tracer, SpanName name, const Body& body) {
  Scope scope(tracer, name);
  return body();
}

class Replayer {
 public:
  Replayer(const Workload& w, const RunConfig& config, RunResult& result)
      : w_(w), config_(config), result_(result) {}

  // Builds the serving state: the data directory, the registry and the
  // in-process socket server.
  bool SetUp();
  void Run();

 private:
  EvaluationService& service() { return state_->service(); }

  void Read(const ReadReq& request, Tracer& tracer);
  void Batch(const std::vector<int>& members, Tracer& tracer);
  void Write(const AppendReq& append, Tracer& tracer);
  void Check(const ReadReq& request, const std::string& reply);
  // Sum of member PreparedQuery::Evaluate times of a batch, evaluated one
  // by one right after it (nothing publishes in between, so against the
  // versions the batch saw).
  double MemberEvaluateUs(const std::vector<int>& members);

  const Workload& w_;
  const RunConfig& config_;
  RunResult& result_;
  std::string data_;
  std::unique_ptr<server::ServingState> state_;
  std::unique_ptr<server::SocketServer> server_;
  std::vector<double> open_s_;
  std::vector<double> load_parse_us_;
  long long states_visited_ = 0;
  long long models_enumerated_ = 0;
  long long evaluations_ = 0;
  long long fsyncs_ = 0;
  long long writes_ = 0;
  uint64_t append_bytes_ = 0;
  std::map<std::string, std::shared_ptr<const PreparedQuery>> member_plans_;
};

bool Replayer::SetUp() {
  data_ = config_.work_dir + "/data";
  fs::remove_all(config_.work_dir);
  fs::create_directories(config_.work_dir);
  ServiceOptions options;
  options.num_workers = kWorkers;
  options.use_cost_model = w_.costing;
  storage::WalSyncOptions sync;
  sync.policy = w_.sync_commit ? storage::WalSyncPolicy::kCommit
                               : storage::WalSyncPolicy::kNone;
  auto fail = [&](const std::string& what, const Status& status) {
    result_.Fail(what + ": " + status.ToString());
    return false;
  };
  if (w_.reopen) {
    // Pre-build untimed, then time reopening it (snapshot decode + WAL
    // replay) as often as the end-to-end run sets up.
    Result<std::unique_ptr<storage::DurableRegistry>> built =
        storage::DurableRegistry::Open(data_, options, sync);
    if (!built.ok()) return fail("pre-build", built.status());
    for (const DbText& db : w_.dbs) {
      Result<DbInfo> info = built.value()->Load(db.name, db.text);
      if (!info.ok()) return fail("pre-build LOAD", info.status());
    }
    for (const AppendReq& append : w_.prebuild) {
      Result<DbInfo> info = built.value()->AppendText(append.db, append.text);
      if (!info.ok()) return fail("pre-build APPEND", info.status());
    }
    built.value().reset();
    for (int k = 0; k < 5; ++k) {
      const Clock::time_point t0 = Clock::now();
      Result<std::unique_ptr<storage::DurableRegistry>> reopened =
          storage::DurableRegistry::Open(data_, options, sync);
      open_s_.push_back(Seconds(Clock::now() - t0));
      if (!reopened.ok()) return fail("reopen", reopened.status());
    }
  }
  state_ = std::make_unique<server::ServingState>(options, sync);
  const Clock::time_point t0 = Clock::now();
  Status status = state_->OpenRegistry(data_);
  if (!w_.reopen) open_s_.push_back(Seconds(Clock::now() - t0));
  if (!status.ok()) return fail("open", status);
  for (const DbText& db : w_.dbs) {
    // Timed on a scratch vocabulary; the registry's Load parses again.
    auto scratch = std::make_shared<Vocabulary>();
    const Clock::time_point p0 = Clock::now();
    Result<Database> parsed = ParseDatabase(db.text, scratch);
    load_parse_us_.push_back(Micros(Clock::now() - p0));
    if (!parsed.ok()) return fail("parse " + db.name, parsed.status());
    if (!w_.reopen) {
      Result<DbInfo> info = state_->registry()->Load(db.name, db.text);
      if (!info.ok()) return fail("LOAD " + db.name, info.status());
    }
  }
  server::ServerOptions server_options;
  server_options.unix_path = config_.work_dir + "/s.sock";
  Result<std::unique_ptr<server::SocketServer>> server =
      server::SocketServer::Start(state_.get(), server_options);
  if (!server.ok()) return fail("socket server", server.status());
  server_ = std::move(server.value());
  return true;
}

void Replayer::Check(const ReadReq& request, const std::string& reply) {
  ++result_.attempted;
  bool entailed = false;
  if (!ParseVerdict(reply, &entailed)) {
    ++result_.failed;
    if (result_.notes.size() < 10) {
      result_.notes.push_back("failed: EVAL " + request.line + " -> " + reply);
    }
  } else if (entailed != request.expected) {
    ++result_.failed;
    result_.Fail("verdict mismatch: EVAL " + request.line + " -> " + reply);
  }
}

void Replayer::Read(const ReadReq& wire, Tracer& tracer) {
  Scope root(tracer, kRead);
  Result<EvalRequest> request = Timed(tracer, kRequestParse, [&] {
    return ParseEvalRequest(wire.line);
  });
  EvaluationService::DatabasePtr db =
      Timed(tracer, kPin, [&] { return service().Snapshot(request.value().db); });
  EntailOptions options = request.value().options;
  const bool costing = request.value().costing >= 0 ? request.value().costing > 0
                                                    : w_.costing;
  options.planner = Timed(tracer, kPlannerFor, [&] {
    return costing ? stats::PlannerFor(*db) : nullptr;
  });
  Result<Query> query = Timed(tracer, kParseQuery, [&] {
    return ParseQuery(request.value().query, service().vocab());
  });
  PlanKey key;
  std::shared_ptr<const PreparedQuery> plan = Timed(tracer, kPlanLookup, [&] {
    key = {service().vocab()->uid(),
           FingerprintPlanInputs(query.value(), options)};
    return service().plan_cache().Get(key);
  });
  const bool hit = plan != nullptr;
  if (!hit) {
    Result<PreparedQuery> prepared = Timed(tracer, kPrepare, [&] {
      return Prepare(service().vocab(), query.value(), options);
    });
    plan = std::make_shared<const PreparedQuery>(std::move(prepared.value()));
    service().plan_cache().Put(key, plan);
  }
  ExecBudget budget;
  if (request.value().deadline_ms >= 0) {
    budget.SetDeadlineAfterMs(request.value().deadline_ms);
  }
  const int evaluate = tracer.Begin(kEvaluate);
  Result<EntailResult> result =
      plan->Evaluate(*db, budget.limited() ? &budget : nullptr);
  tracer.End(evaluate);
  if (!result.ok()) {
    Check(wire, "ERR " + result.status().ToString());
    return;
  }
  tracer.Rename(evaluate, EvaluateSpan(result.value().engine_used));
  if (tracer.on()) {
    ++evaluations_;
    states_visited_ += result.value().states_visited;
    models_enumerated_ += result.value().models_enumerated;
  }
  EvalResponse response;
  response.entailed = result.value().entailed;
  response.engine_used = result.value().engine_used;
  response.plan_cache_hit = hit;
  response.db_uid = db->uid();
  response.db_revision = db->revision();
  response.report_identity = request.value().report_identity;
  const std::string line =
      Timed(tracer, kRender, [&] { return FormatResponseLine(response); });
  Check(wire, line);
}

void Replayer::Batch(const std::vector<int>& members, Tracer& tracer) {
  Scope root(tracer, kBatchOp);
  std::vector<EvalRequest> requests;
  for (int index : members) {
    requests.push_back(Timed(tracer, kRequestParse, [&] {
      return ParseEvalRequest(w_.pool[static_cast<size_t>(index)].line);
    }).value());
  }
  std::vector<Result<EvalResponse>> responses =
      Timed(tracer, kEvalBatch, [&] { return service().EvalBatch(requests); });
  for (size_t i = 0; i < members.size(); ++i) {
    const ReadReq& wire = w_.pool[static_cast<size_t>(members[i])];
    if (!responses[i].ok()) {
      Check(wire, "ERR " + responses[i].status().ToString());
      continue;
    }
    Check(wire, Timed(tracer, kRender, [&] {
      return FormatResponseLine(responses[i].value());
    }));
  }
}

double Replayer::MemberEvaluateUs(const std::vector<int>& members) {
  double total = 0;
  for (int index : members) {
    const ReadReq& wire = w_.pool[static_cast<size_t>(index)];
    const EvalRequest request = ParseEvalRequest(wire.line).value();
    EvaluationService::DatabasePtr db = service().Snapshot(request.db);
    std::shared_ptr<const PreparedQuery>& plan = member_plans_[wire.line];
    if (plan == nullptr) {
      EntailOptions options = request.options;
      if (request.costing >= 0 ? request.costing > 0 : w_.costing) {
        options.planner = stats::PlannerFor(*db);
      }
      plan = std::make_shared<const PreparedQuery>(
          Prepare(service().vocab(),
                  ParseQuery(request.query, service().vocab()).value(), options)
              .value());
    }
    const Clock::time_point t0 = Clock::now();
    (void)plan->Evaluate(*db);
    total += Micros(Clock::now() - t0);
  }
  return total;
}

void Replayer::Write(const AppendReq& append, Tracer& tracer) {
  Scope root(tracer, kWrite);
  ++result_.attempted;
  ++writes_;
  append_bytes_ += append.text.size();
  Result<std::vector<storage::WalRecord>> records =
      Timed(tracer, kMutationParse, [&] {
        return storage::ParseMutationText(append.text, service().vocab());
      });
  if (!records.ok()) {
    ++result_.failed;
    result_.notes.push_back("failed: APPEND " + records.status().ToString());
    return;
  }
  const std::string wal = state_->registry()->WalPath(append.db);
  Result<DbInfo> info = Timed(tracer, kMutate, [&] {
    const Clock::time_point call = Clock::now();
    return service().Mutate(
        append.db,
        [&](Database* next) {
          tracer.Record(kFork, call, Clock::now());
          Status status = Timed(tracer, kApply, [&] {
            return storage::ApplyWalRecords(records.value(), next);
          });
          if (!status.ok()) return status;
          Result<const NormDb*> view =
              Timed(tracer, kNormView, [&] { return next->NormView(); });
          return view.ok() ? Status::Ok() : view.status();
        },
        [&](const Database& next) {
          Timed(tracer, kStatsFor, [&] { return stats::StatsFor(next); });
          Status status = Timed(tracer, kWalAppend, [&] {
            return storage::AppendWalGroup(wal, records.value(), false);
          });
          if (!status.ok() || !w_.sync_commit) return status;
          ++fsyncs_;
          return Timed(tracer, kWalSync, [&] { return storage::SyncWal(wal); });
        });
  });
  if (!info.ok()) {
    ++result_.failed;
    result_.notes.push_back("failed: APPEND " + info.status().ToString());
  }
}

// The median of `values` (0 when empty).
double P50(const std::vector<double>& values) { return Percentile(values, 0.5); }

void Replayer::Run() {
  const double seconds = config_.seconds;
  Tracer tracer(true);
  for (int index : w_.warmup) Read(w_.pool[static_cast<size_t>(index)], tracer);
  const PlanCacheStats cache_before = service().plan_cache().stats();

  // Main traced pass, half the run: the workload's reads, its BATCHes
  // (one operation in batch_every) and its writes at their rate.
  std::vector<size_t> cursor(w_.streams.size(), 0);
  size_t reader = 0;
  auto next_read = [&] {
    const std::vector<int>& stream = w_.streams[reader];
    const int index = stream[cursor[reader]++ % stream.size()];
    reader = (reader + 1) % w_.streams.size();
    return index;
  };
  std::vector<double> batch_speedups;
  std::set<std::string> written;
  for (const AppendReq& append : w_.appends) written.insert(append.db);
  uint64_t wal_before = 0;
  for (const std::string& db : written) {
    wal_before += state_->registry()->WalBytes(db).value();
  }
  const double pass_s = seconds * 0.5;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + FromSeconds(pass_s);
  size_t writes = 0;
  long long ops = 0;
  for (Clock::time_point now = start; now < end; now = Clock::now()) {
    if (writes < w_.appends.size() &&
        static_cast<double>(writes) < Seconds(now - start) * w_.write_rate) {
      Write(w_.appends[writes++], tracer);
    } else if (w_.batch_every > 0 && ++ops % w_.batch_every == 0) {
      std::vector<int> members;
      for (int i = 0; i < kBatchSize; ++i) members.push_back(next_read());
      Batch(members, tracer);
      batch_speedups.push_back(MemberEvaluateUs(members) /
                               tracer.durations(kEvalBatch).back());
    } else {
      Read(w_.pool[static_cast<size_t>(next_read())], tracer);
    }
  }
  const double traced_s = Seconds(Clock::now() - start);
  uint64_t wal_after = 0;
  for (const std::string& db : written) {
    wal_after += state_->registry()->WalBytes(db).value();
  }
  const PlanCacheStats cache_after = service().plan_cache().stats();

  // Tracing overhead: the same reads replayed traced and untraced in
  // alternating order, chunk by chunk, for a quarter of the run.
  double traced_us = 0;
  double untraced_us = 0;
  const Clock::time_point overhead_end = Clock::now() + FromSeconds(seconds * 0.25);
  for (int chunk = 0; Clock::now() < overhead_end; ++chunk) {
    std::vector<int> reads;
    for (int i = 0; i < 64; ++i) reads.push_back(next_read());
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass + chunk) % 2 == 0;
      Tracer scratch(traced);
      const Clock::time_point t0 = Clock::now();
      for (int index : reads) Read(w_.pool[static_cast<size_t>(index)], scratch);
      (traced ? traced_us : untraced_us) += Micros(Clock::now() - t0);
    }
  }

  // Service and wire: the same reads through EvaluationService::Eval and
  // over the in-process server's socket, interleaved, for the rest.
  std::vector<double> eval_us;
  std::vector<double> wire_us;
  Conn conn;
  if (!conn.Connect(config_.work_dir + "/s.sock")) {
    result_.Fail("cannot connect to the in-process server");
  }
  const Clock::time_point wire_end = Clock::now() + FromSeconds(seconds * 0.2);
  // Alternating which goes first, so that neither side always finds the
  // plan the other just compiled.
  for (bool eval_first = true; Clock::now() < wire_end; eval_first = !eval_first) {
    const ReadReq& wire = w_.pool[static_cast<size_t>(next_read())];
    const EvalRequest request = ParseEvalRequest(wire.line).value();
    for (int side = 0; side < 2; ++side) {
      const Clock::time_point t0 = Clock::now();
      if ((side == 0) == eval_first) {
        Result<EvalResponse> response = service().Eval(request);
        eval_us.push_back(Micros(Clock::now() - t0));
        Check(wire, response.ok() ? FormatResponseLine(response.value())
                                  : "ERR " + response.status().ToString());
      } else {
        std::string reply;
        if (!conn.Send("EVAL " + wire.line + "\n") || !conn.ReadLine(&reply)) {
          reply.clear();
        }
        wire_us.push_back(Micros(Clock::now() - t0));
        Check(wire, reply);
      }
    }
  }
  const server::SocketServer::Stats server_stats = server_->stats();
  server_->Stop();

  const std::string span_file =
      fs::path(config_.work_dir).parent_path().string() + "/spans-" + w_.name +
      ".jsonl";
  if (!tracer.WriteSpans(span_file)) {
    result_.notes.push_back("could not write " + span_file);
  }

  const double lookups = static_cast<double>(
      (cache_after.hits - cache_before.hits) +
      (cache_after.misses - cache_before.misses));
  const std::vector<double> mutate = tracer.durations(kMutate);
  result_.Add("server.wire_overhead_us", P50(wire_us) - P50(eval_us), "us");
  result_.Add("server.request_parse_us", P50(tracer.durations(kRequestParse)), "us");
  result_.Add("server.render_us", P50(tracer.durations(kRender)), "us");
  result_.Add("server.sessions_rejected",
              static_cast<double>(server_stats.sessions_rejected), "count");
  result_.Add("service.eval_us.p50", P50(eval_us), "us");
  result_.Add("service.eval_us.p99", Percentile(eval_us, 0.99), "us");
  result_.Add("service.pin_us", P50(tracer.durations(kPin)), "us");
  result_.Add("service.plan_lookup_us", P50(tracer.durations(kPlanLookup)), "us");
  result_.Add("service.plan_cache.hit_ratio",
              lookups == 0 ? 0 : (cache_after.hits - cache_before.hits) / lookups,
              "ratio");
  result_.Add("service.plan_cache.evictions_per_req",
              lookups == 0 ? 0
                           : (cache_after.evictions - cache_before.evictions) /
                                 lookups,
              "ratio");
  result_.Add("service.plan_cache.lookups", lookups, "count");
  result_.Add("service.batch_us", P50(tracer.durations(kEvalBatch)), "us");
  result_.Add("service.batch_speedup", P50(batch_speedups), "ratio");
  result_.Add("service.mutate_us.p50", P50(mutate), "us");
  result_.Add("service.mutate_us.p99", Percentile(mutate, 0.99), "us");
  result_.Add("service.publish_residue_us", P50(tracer.self(kMutate)), "us");
  result_.Add("core.parse_query_us", P50(tracer.durations(kParseQuery)), "us");
  result_.Add("core.prepare_us", P50(tracer.durations(kPrepare)), "us");
  for (SpanName name : {kEvaluateBruteForce, kEvaluatePaths,
                        kEvaluateBoundedWidth, kEvaluateDisjunctive}) {
    // "core.evaluate.<engine>" -> "core.evaluate_us.<engine>"
    const std::string engine = std::string(kSpanNames[name]).substr(14);
    const std::vector<double>& times = tracer.durations(name);
    result_.Add("core.evaluate_us." + engine + ".p50", P50(times), "us");
    result_.Add("core.evaluate_us." + engine + ".p99", Percentile(times, 0.99),
                "us");
    result_.AddExtra("core.evaluate_n." + engine,
                     static_cast<double>(times.size()), "count");
  }
  const double evaluations = std::max<double>(1, static_cast<double>(evaluations_));
  result_.Add("core.states_visited_per_req",
              static_cast<double>(states_visited_) / evaluations, "count");
  result_.Add("core.models_enumerated_per_req",
              static_cast<double>(models_enumerated_) / evaluations, "count");
  result_.Add("core.fork_us", P50(tracer.durations(kFork)), "us");
  result_.Add("core.norm_view_us", P50(tracer.durations(kNormView)), "us");
  result_.Add("core.load_parse_us", P50(load_parse_us_), "us");
  result_.Add("stats.stats_for_us", P50(tracer.durations(kStatsFor)), "us");
  result_.Add("stats.planner_for_us", P50(tracer.durations(kPlannerFor)), "us");
  result_.Add("storage.parse_apply_us",
              P50(tracer.parse_apply()), "us");
  result_.Add("storage.wal_append_us", P50(tracer.durations(kWalAppend)), "us");
  result_.Add("storage.wal_sync_us.p50", P50(tracer.durations(kWalSync)), "us");
  result_.Add("storage.wal_sync_us.p99",
              Percentile(tracer.durations(kWalSync), 0.99), "us");
  result_.Add("storage.fsyncs_per_append",
              writes_ == 0 ? 0 : static_cast<double>(fsyncs_) / static_cast<double>(writes_),
              "ratio");
  result_.Add("storage.wal_bytes_per_user_byte",
              append_bytes_ == 0 ? 0
                                 : static_cast<double>(wal_after - wal_before) /
                                       static_cast<double>(append_bytes_),
              "ratio");
  result_.Add("storage.open_s", P50(open_s_), "s");
  result_.Add("trace.coverage", tracer.layer_self_us() / tracer.root_us(), "ratio");
  result_.Add("trace.overhead_ratio", traced_us / untraced_us, "ratio");

  result_.AddExtra("trace.requests", static_cast<double>(tracer.requests()), "count");
  result_.AddExtra("trace.traced_pass_s", traced_s, "s");
  result_.AddExtra("trace.writes", static_cast<double>(writes_), "count");
  result_.AddExtra("trace.batches", static_cast<double>(tracer.durations(kEvalBatch).size()), "count");
  result_.AddExtra("trace.wire_samples", static_cast<double>(wire_us.size()), "count");
  result_.AddExtra("server.wire_p50_us", P50(wire_us), "us");
  for (int name = 0; name < kNumSpanNames; ++name) {
    const std::vector<double>& self = tracer.self(static_cast<SpanName>(name));
    if (self.empty()) continue;
    double sum = 0;
    for (double v : self) sum += v;
    result_.AddExtra(std::string("self_us_total.") + kSpanNames[name], sum, "us");
  }
}

}  // namespace

RunResult RunTraced(const Workload& workload, const RunConfig& config) {
  RunResult result;
  {
    Replayer replayer(workload, config, result);
    if (replayer.SetUp()) replayer.Run();
  }
  std::error_code ec;
  fs::remove_all(config.work_dir, ec);
  return result;
}

}  // namespace wirebench
