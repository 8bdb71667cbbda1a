// EvaluationService request-path throughput: what the plan cache and the
// batch scheduler buy over per-request compilation.
//
// The cold/cached pairs serve the same request stream two ways: the cold
// side clears the plan cache before every request (every EVAL pays parse
// + Prepare() + evaluate, the lifecycle a caller without the service
// hand-manages), the cached side compiles once and then only parses and
// evaluates. The acceptance bar for the serving layer is cached >= 2x
// cold on the compile-heavy shapes. The batch benchmarks measure the
// EvalBatch path (every distinct (plan, database) member fans out across
// the worker pool in one go) by worker count.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/printer.h"
#include "service/service.h"
#include "util/random.h"
#include "workload/generators.h"

namespace iodb {
namespace {

// --- Standing alert: compile-heavy query, small hot database ---------------
// Three "!=" atoms blow up into 2^3 disjuncts at compile time (Section 7);
// evaluation against the 5-atom database is cheap. The classic
// prepared-statement shape.

struct AlertFixture {
  EvaluationService service;

  AlertFixture() {
    Result<DbInfo> info =
        service.Load("alert", "P(u)\nP(v)\nP(w)\nu < v\nv < w");
    IODB_CHECK(info.ok());
  }
};

EvalRequest AlertRequest() {
  EvalRequest request;
  request.db = "alert";
  request.query =
      "exists t1 t2 t3: P(t1) & P(t2) & P(t3) & "
      "t1 != t2 & t1 != t3 & t2 != t3";
  return request;
}

void BM_ServiceAlertCold(benchmark::State& state) {
  AlertFixture fixture;
  const EvalRequest request = AlertRequest();
  for (auto _ : state) {
    fixture.service.plan_cache().Clear();
    Result<EvalResponse> response = fixture.service.Eval(request);
    IODB_CHECK(response.ok());
    benchmark::DoNotOptimize(response.value().entailed);
  }
}
BENCHMARK(BM_ServiceAlertCold);

void BM_ServiceAlertCached(benchmark::State& state) {
  AlertFixture fixture;
  const EvalRequest request = AlertRequest();
  IODB_CHECK(fixture.service.Eval(request).ok());  // warm the cache
  for (auto _ : state) {
    Result<EvalResponse> response = fixture.service.Eval(request);
    IODB_CHECK(response.ok());
    IODB_CHECK(response.value().plan_cache_hit);
    benchmark::DoNotOptimize(response.value().entailed);
  }
}
BENCHMARK(BM_ServiceAlertCached);

// --- Monadic workload: generated k-observer fleet --------------------------
// A fleet of random width-2 observer databases sharing one vocabulary,
// probed by a generated disjunctive sequential pattern — the paper's
// motivating workload served through the request path. Args: fleet size.

struct FleetFixture {
  EvaluationService service;
  std::vector<EvalRequest> requests;

  explicit FleetFixture(int fleet_size, ServiceOptions options = {})
      : service(options) {
    Rng rng(2026);
    MonadicDbParams params;
    params.num_chains = 2;
    params.chain_length = 8;
    for (int i = 0; i < fleet_size; ++i) {
      Database db = RandomMonadicDb(params, service.vocab(), rng);
      Result<DbInfo> info =
          service.Register("fleet" + std::to_string(i), std::move(db));
      IODB_CHECK(info.ok());
    }
    Query pattern = RandomDisjunctiveSequentialQuery(
        /*num_disjuncts=*/3, /*length=*/4, /*num_predicates=*/3,
        /*label_probability=*/0.4, /*le_probability=*/0.2, service.vocab(),
        rng);
    const std::string text = ToString(pattern);
    for (int i = 0; i < fleet_size; ++i) {
      EvalRequest request;
      request.db = "fleet" + std::to_string(i);
      request.query = text;
      requests.push_back(std::move(request));
    }
  }
};

void BM_ServiceFleetCold(benchmark::State& state) {
  FleetFixture fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (const EvalRequest& request : fixture.requests) {
      fixture.service.plan_cache().Clear();
      Result<EvalResponse> response = fixture.service.Eval(request);
      IODB_CHECK(response.ok());
      benchmark::DoNotOptimize(response.value().entailed);
    }
  }
}
BENCHMARK(BM_ServiceFleetCold)->Arg(16);

void BM_ServiceFleetCached(benchmark::State& state) {
  FleetFixture fixture(static_cast<int>(state.range(0)));
  IODB_CHECK(fixture.service.Eval(fixture.requests[0]).ok());
  for (auto _ : state) {
    for (const EvalRequest& request : fixture.requests) {
      Result<EvalResponse> response = fixture.service.Eval(request);
      IODB_CHECK(response.ok());
      benchmark::DoNotOptimize(response.value().entailed);
    }
  }
}
BENCHMARK(BM_ServiceFleetCached)->Arg(16);

// --- Batch path: one EvalBatch vs a loop of Evals --------------------------
// Same fleet requests served as one batch. Workers > 1 additionally fans
// the group across the pool (needs real cores to pay off). Args: (fleet
// size, workers).

void BM_ServiceFleetBatch(benchmark::State& state) {
  ServiceOptions options;
  options.num_workers = static_cast<int>(state.range(1));
  FleetFixture fixture(static_cast<int>(state.range(0)), options);
  for (auto _ : state) {
    std::vector<Result<EvalResponse>> responses =
        fixture.service.EvalBatch(fixture.requests);
    for (const Result<EvalResponse>& response : responses) {
      IODB_CHECK(response.ok());
      benchmark::DoNotOptimize(response.value().entailed);
    }
  }
}
BENCHMARK(BM_ServiceFleetBatch)
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({16, 4})
    ->UseRealTime();

// --- Mixed batch: distinct plans, one member each ---------------------------
// The wire shape of a BATCH: 8 members with 8 distinct plans over 8
// databases, so no two members share a plan group and only the batch-wide
// fan-out can run them side by side. Args: workers.

void BM_ServiceMixedBatch(benchmark::State& state) {
  constexpr int kMembers = 8;
  ServiceOptions options;
  options.num_workers = static_cast<int>(state.range(0));
  FleetFixture fixture(kMembers, options);
  Rng rng(2027);
  for (EvalRequest& request : fixture.requests) {
    request.query = ToString(RandomDisjunctiveSequentialQuery(
        /*num_disjuncts=*/3, /*length=*/4, /*num_predicates=*/3,
        /*label_probability=*/0.4, /*le_probability=*/0.2,
        fixture.service.vocab(), rng));
  }
  for (auto _ : state) {
    std::vector<Result<EvalResponse>> responses =
        fixture.service.EvalBatch(fixture.requests);
    for (const Result<EvalResponse>& response : responses) {
      IODB_CHECK(response.ok());
      benchmark::DoNotOptimize(response.value().entailed);
    }
  }
}
BENCHMARK(BM_ServiceMixedBatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace
}  // namespace iodb
