// Service-level governance (service/service.h, service/request.h): the
// wire-form deadline/step-budget flags, ServiceOptions defaults and
// per-request overrides, batch group budgets, and cancellation through
// Eval / EvalBatch.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "service/request.h"
#include "service/service.h"

namespace iodb {
namespace {

constexpr char kDbText[] = "P(u)\nQ(v)\nu < v\n";
constexpr char kQuery[] = "exists t1 t2: P(t1) & t1 < t2 & Q(t2)";

// --- Wire form -------------------------------------------------------------

TEST(EvalRequestGovernanceTest, ParsesDeadlineAndStepBudgetFlags) {
  Result<EvalRequest> request = ParseEvalRequest(
      "db --deadline-ms=250 --step-budget=5000 exists t: P(t)");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request.value().db, "db");
  EXPECT_EQ(request.value().deadline_ms, 250);
  EXPECT_EQ(request.value().step_budget, 5000);
  EXPECT_EQ(request.value().query, "exists t: P(t)");
}

TEST(EvalRequestGovernanceTest, DefaultsAreUnlimited) {
  Result<EvalRequest> request = ParseEvalRequest("db exists t: P(t)");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request.value().deadline_ms, -1);
  EXPECT_EQ(request.value().step_budget, -1);
}

TEST(EvalRequestGovernanceTest, RejectsMalformedValues) {
  for (const char* line :
       {"db --deadline-ms= exists t: P(t)", "db --deadline-ms=-5 q",
        "db --deadline-ms=12x q", "db --step-budget=abc q",
        "db --step-budget= q"}) {
    EXPECT_FALSE(ParseEvalRequest(line).ok()) << line;
  }
}

TEST(EvalRequestGovernanceTest, FormatRoundTrips) {
  EvalRequest request;
  request.db = "orders";
  request.query = "exists t: P(t)";
  request.deadline_ms = 75;
  request.step_budget = 123456;
  request.options.want_countermodel = true;
  const std::string line = FormatEvalRequest(request);
  EXPECT_NE(line.find("--deadline-ms=75"), std::string::npos) << line;
  EXPECT_NE(line.find("--step-budget=123456"), std::string::npos) << line;
  Result<EvalRequest> reparsed = ParseEvalRequest(line);
  ASSERT_TRUE(reparsed.ok()) << line << ": " << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value().db, request.db);
  EXPECT_EQ(reparsed.value().query, request.query);
  EXPECT_EQ(reparsed.value().deadline_ms, request.deadline_ms);
  EXPECT_EQ(reparsed.value().step_budget, request.step_budget);
  EXPECT_EQ(reparsed.value().options.want_countermodel, true);
  // Unlimited requests render without governance flags.
  request.deadline_ms = -1;
  request.step_budget = -1;
  const std::string plain = FormatEvalRequest(request);
  EXPECT_EQ(plain.find("--deadline-ms"), std::string::npos) << plain;
  EXPECT_EQ(plain.find("--step-budget"), std::string::npos) << plain;
}

// --- Eval ------------------------------------------------------------------

EvalRequest MakeRequest(long long deadline_ms = -1,
                        long long step_budget = -1) {
  EvalRequest request;
  request.db = "t";
  request.query = kQuery;
  request.deadline_ms = deadline_ms;
  request.step_budget = step_budget;
  return request;
}

TEST(ServiceGovernanceTest, UnlimitedRequestSucceeds) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("t", kDbText).ok());
  Result<EvalResponse> response = service.Eval(MakeRequest());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response.value().entailed);
}

TEST(ServiceGovernanceTest, ZeroStepBudgetFailsTyped) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("t", kDbText).ok());
  Result<EvalResponse> response =
      service.Eval(MakeRequest(/*deadline_ms=*/-1, /*step_budget=*/0));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(response.status().message().find("step budget"),
            std::string::npos)
      << response.status().ToString();
}

TEST(ServiceGovernanceTest, ExpiredDeadlineFailsAdmission) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("t", kDbText).ok());
  Result<EvalResponse> response =
      service.Eval(MakeRequest(/*deadline_ms=*/0));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ServiceGovernanceTest, ServiceDefaultAppliesAndRequestOverrides) {
  ServiceOptions options;
  options.default_step_budget = 0;  // everything exhausts by default
  EvaluationService service(options);
  ASSERT_TRUE(service.Load("t", kDbText).ok());

  Result<EvalResponse> defaulted = service.Eval(MakeRequest());
  ASSERT_FALSE(defaulted.ok());
  EXPECT_EQ(defaulted.status().code(), StatusCode::kDeadlineExceeded);

  // A request-level budget overrides the default (and a generous one
  // completes normally).
  Result<EvalResponse> overridden =
      service.Eval(MakeRequest(/*deadline_ms=*/-1, /*step_budget=*/1 << 20));
  ASSERT_TRUE(overridden.ok()) << overridden.status().ToString();
  EXPECT_TRUE(overridden.value().entailed);
}

TEST(ServiceGovernanceTest, PreCancelledTokenFailsWithCancelled) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("t", kDbText).ok());
  CancelToken token;
  token.Cancel();
  Result<EvalResponse> response = service.Eval(MakeRequest(), &token);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kCancelled);
}

// --- EvalBatch -------------------------------------------------------------

TEST(ServiceGovernanceTest, BatchGroupSharesSmallestBudget) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("t", kDbText).ok());
  // Same query => same plan group. One member carries a zero step
  // budget, so the whole group's shared budget is zero and BOTH members
  // fail fast with the typed status.
  std::vector<EvalRequest> requests = {MakeRequest(),
                                       MakeRequest(-1, /*step_budget=*/0)};
  std::vector<Result<EvalResponse>> responses = service.EvalBatch(requests);
  ASSERT_EQ(responses.size(), 2u);
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_FALSE(responses[i].ok()) << "member " << i;
    EXPECT_EQ(responses[i].status().code(), StatusCode::kDeadlineExceeded)
        << "member " << i << ": " << responses[i].status().ToString();
  }
}

TEST(ServiceGovernanceTest, BatchGovernanceIsPerPlanGroup) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("t", kDbText).ok());
  // Different query texts compile to different plans, so the exhausted
  // group must not drag the unlimited group down.
  EvalRequest limited = MakeRequest(-1, /*step_budget=*/0);
  EvalRequest unlimited = MakeRequest();
  unlimited.query = "exists t: P(t)";
  std::vector<EvalRequest> requests = {limited, unlimited};
  std::vector<Result<EvalResponse>> responses = service.EvalBatch(requests);
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_FALSE(responses[0].ok());
  EXPECT_EQ(responses[0].status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(responses[1].ok()) << responses[1].status().ToString();
  EXPECT_TRUE(responses[1].value().entailed);
}

TEST(ServiceGovernanceTest, BatchCancelTokenCancelsEveryGroup) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("t", kDbText).ok());
  CancelToken token;
  token.Cancel();
  std::vector<EvalRequest> requests = {MakeRequest(), MakeRequest()};
  std::vector<Result<EvalResponse>> responses =
      service.EvalBatch(requests, &token);
  ASSERT_EQ(responses.size(), 2u);
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_FALSE(responses[i].ok()) << "member " << i;
    EXPECT_EQ(responses[i].status().code(), StatusCode::kCancelled)
        << "member " << i;
  }
}

TEST(ServiceGovernanceTest, ConcurrentGroupsKeepTheirOwnBudgets) {
  // Members of a batch fan out across the pool together; a group whose
  // shared budget trips still fails alone while the other groups run
  // beside it, and a pre-cancelled token still fails every group.
  ServiceOptions options;
  options.num_workers = 4;
  EvaluationService service(options);
  ASSERT_TRUE(service.Load("t", kDbText).ok());
  EvalRequest limited = MakeRequest(-1, /*step_budget=*/0);
  std::vector<EvalRequest> requests = {limited};
  for (const char* query :
       {"exists t: P(t)", "exists t: Q(t)", "exists t1 t2: P(t1) & t1 <= t2",
        "exists t: P(t) | exists s: Q(s)"}) {
    EvalRequest unlimited = MakeRequest();
    unlimited.query = query;
    requests.push_back(unlimited);
  }
  requests.push_back(limited);
  std::vector<Result<EvalResponse>> responses = service.EvalBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i : {size_t{0}, requests.size() - 1}) {
    ASSERT_FALSE(responses[i].ok()) << "member " << i;
    EXPECT_EQ(responses[i].status().code(), StatusCode::kDeadlineExceeded)
        << "member " << i;
  }
  for (size_t i = 1; i + 1 < requests.size(); ++i) {
    ASSERT_TRUE(responses[i].ok())
        << "member " << i << ": " << responses[i].status().ToString();
    EXPECT_TRUE(responses[i].value().entailed) << "member " << i;
  }

  CancelToken token;
  token.Cancel();
  responses = service.EvalBatch(requests, &token);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_FALSE(responses[i].ok()) << "member " << i;
    EXPECT_EQ(responses[i].status().code(), StatusCode::kCancelled)
        << "member " << i;
  }
}

// A mixed batch: distinct plans over every engine, repeated (query, db)
// pairs, an unknown database and a query that fails to parse.
std::vector<EvalRequest> MixedBatch() {
  struct Member {
    const char* db;
    const char* query;
    EngineKind engine;
  };
  const Member members[] = {
      {"a", "exists t1 t2: P(t1) & t1 < t2 & Q(t2)", EngineKind::kAuto},
      {"b", "exists t1 t2: Q(t1) & t1 < t2 & P(t2)", EngineKind::kAuto},
      {"c", "exists t1 t2: P(t1) & t1 < t2 & Q(t2) | exists t: R(t)",
       EngineKind::kAuto},
      {"a", "exists t1 t2: P(t1) & P(t2) & t1 != t2", EngineKind::kAuto},
      {"b", "exists t1 t2: P(t1) & t1 <= t2 & Q(t2)",
       EngineKind::kPathDecomposition},
      {"c", "exists t1 t2: Q(t1) & t1 < t2 & R(t2)", EngineKind::kBruteForce},
      {"a", "exists t1 t2: P(t1) & t1 < t2 & Q(t2)", EngineKind::kAuto},
      {"missing", "exists t: P(t)", EngineKind::kAuto},
      {"b", "exists t: P(t) &", EngineKind::kAuto},
      {"c", "exists t1 t2: P(t1) & t1 < t2 & Q(t2) | exists t: R(t)",
       EngineKind::kAuto},
      {"b", "exists t1 t2: Q(t1) & t1 < t2 & P(t2)", EngineKind::kAuto},
      {"c", "exists t: Q(t) | exists s: R(s)", EngineKind::kDisjunctiveSearch},
  };
  std::vector<EvalRequest> requests;
  for (const Member& member : members) {
    EvalRequest request;
    request.db = member.db;
    request.query = member.query;
    request.options.engine = member.engine;
    request.options.want_countermodel = true;
    request.explain = true;  // renders the evaluation counters
    requests.push_back(request);
  }
  return requests;
}

Status LoadMixedDatabases(EvaluationService& service) {
  const std::pair<const char*, const char*> dbs[] = {
      {"a", "P(u)\nQ(v)\nP(w)\nu < v\nw <= v\n"},
      {"b", "P(u)\nQ(v)\nP(x)\nQ(y)\nu < y\n"},
      {"c", "P(u)\nQ(v)\nR(w)\nQ(x)\nu < v\nx <= w\n"},
  };
  for (const auto& [name, text] : dbs) {
    Result<DbInfo> info = service.Load(name, text);
    if (!info.ok()) return info.status();
  }
  return Status::Ok();
}

// A batch member must report exactly what the same single Eval reports:
// status, verdict, engine, countermodel, the --explain counters and the
// pinned version.
void ExpectSameResponse(const Result<EvalResponse>& got,
                        const Result<EvalResponse>& want,
                        const std::string& where) {
  ASSERT_EQ(got.ok(), want.ok()) << where;
  if (!want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString()) << where;
    return;
  }
  EXPECT_EQ(got.value().entailed, want.value().entailed) << where;
  EXPECT_EQ(got.value().engine_used, want.value().engine_used) << where;
  ASSERT_EQ(got.value().countermodel.has_value(),
            want.value().countermodel.has_value())
      << where;
  if (want.value().countermodel.has_value()) {
    EXPECT_EQ(got.value().countermodel->ToString(),
              want.value().countermodel->ToString())
        << where;
  }
  EXPECT_EQ(got.value().explain, want.value().explain) << where;
  EXPECT_EQ(got.value().db_uid, want.value().db_uid) << where;
  EXPECT_EQ(got.value().db_revision, want.value().db_revision) << where;
}

TEST(ServiceGovernanceTest, BatchMembersMatchSingleEvals) {
  const std::vector<EvalRequest> requests = MixedBatch();
  for (int workers : {1, 2, 4}) {
    ServiceOptions options;
    options.num_workers = workers;
    EvaluationService service(options);
    ASSERT_TRUE(LoadMixedDatabases(service).ok());
    std::vector<Result<EvalResponse>> singles;
    for (const EvalRequest& request : requests) {
      singles.push_back(service.Eval(request));
    }
    const std::vector<Result<EvalResponse>> batch =
        service.EvalBatch(requests);
    ASSERT_EQ(batch.size(), requests.size());
    int failed = 0;
    for (size_t i = 0; i < requests.size(); ++i) {
      const std::string where =
          "workers " + std::to_string(workers) + " slot " + std::to_string(i);
      if (!singles[i].ok()) ++failed;
      ExpectSameResponse(batch[i], singles[i], where);
      // A one-member batch runs its lone pair through the same fan-out,
      // so it reports the single Eval's counters too.
      const std::vector<Result<EvalResponse>> lone =
          service.EvalBatch(std::span<const EvalRequest>(&requests[i], 1));
      ASSERT_EQ(lone.size(), 1u) << where;
      ExpectSameResponse(lone[0], singles[i], where + " (one-member batch)");
    }
    EXPECT_EQ(failed, 2) << "workers " << workers;
  }
}

TEST(ServiceGovernanceTest, GovernedRequestsDoNotPolluteStats) {
  // Governance is evaluation-time state: a governed and an ungoverned
  // request for the same (query, options) share one cached plan.
  EvaluationService service;
  ASSERT_TRUE(service.Load("t", kDbText).ok());
  ASSERT_TRUE(service.Eval(MakeRequest()).ok());
  Result<EvalResponse> governed =
      service.Eval(MakeRequest(-1, /*step_budget=*/1 << 20));
  ASSERT_TRUE(governed.ok());
  EXPECT_TRUE(governed.value().plan_cache_hit);
  EXPECT_EQ(service.stats().plans_compiled, 1);
}

}  // namespace
}  // namespace iodb
