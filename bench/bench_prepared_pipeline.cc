// Prepared vs. unprepared repeated evaluation: the compile-once /
// evaluate-many payoff of the core/prepare.h pipeline.
//
// Each pair of benchmarks runs the same (db, query) workload two ways:
// `Entails()` in a loop re-compiles the query on every call, while the
// prepared variant calls `Prepare()` once and then only
// `PreparedQuery::Evaluate()`. Both sides share the database-side
// normalization memoization (Database::NormView and the per-plan
// transformed-db cache), so the gap isolates query-compilation cost —
// constant elimination, inequality rewriting, normalization, the
// rational-closure transform, the object/order split. The batch pair
// runs one query across a fleet of databases the same two ways.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/engine.h"
#include "core/parser.h"
#include "core/prepare.h"
#include "util/random.h"
#include "workload/scenarios.h"

namespace iodb {
namespace {

// --- Standing alert: compile-heavy query, small hot database ---------------
// A monitoring-style standing query whose three "!=" atoms blow up into
// 2^3 disjuncts during compilation (Section 7); the database being
// re-checked is small. This is the classic prepared-statement shape:
// compilation dwarfs a single evaluation.

struct AlertFixture {
  VocabularyPtr vocab = std::make_shared<Vocabulary>();
  Database db;
  Query query;

  AlertFixture()
      : db(MustParseDb("P(u)\nP(v)\nP(w)\nu < v\nv < w")),
        query(MustParseQuery(
            "exists t1 t2 t3: P(t1) & P(t2) & P(t3) & "
            "t1 != t2 & t1 != t3 & t2 != t3")) {}

  Database MustParseDb(const char* text) {
    Result<Database> parsed = ParseDatabase(text, vocab);
    IODB_CHECK(parsed.ok());
    return std::move(parsed.value());
  }
  Query MustParseQuery(const char* text) {
    Result<Query> parsed = ParseQuery(text, vocab);
    IODB_CHECK(parsed.ok());
    return std::move(parsed.value());
  }
};

void BM_AlertUnprepared(benchmark::State& state) {
  AlertFixture fixture;
  for (auto _ : state) {
    Result<EntailResult> result = Entails(fixture.db, fixture.query);
    IODB_CHECK(result.ok());
    benchmark::DoNotOptimize(result.value().entailed);
  }
}
BENCHMARK(BM_AlertUnprepared);

void BM_AlertPrepared(benchmark::State& state) {
  AlertFixture fixture;
  PreparedQuery plan = MustPrepare(fixture.vocab, fixture.query);
  for (auto _ : state) {
    Result<EntailResult> result = plan.Evaluate(fixture.db);
    IODB_CHECK(result.ok());
    benchmark::DoNotOptimize(result.value().entailed);
  }
}
BENCHMARK(BM_AlertPrepared);

// --- Espionage (Example 1.1): constants + rational semantics ---------------
// Five disjuncts with constants under the dense-order reading: every
// unprepared call pays constant shifting, normalization of all disjuncts
// and the Corollary 2.6 closure.

void BM_EspionageUnprepared(benchmark::State& state) {
  EspionageScenario scenario = MakeEspionageScenario();
  EntailOptions dense;
  dense.semantics = OrderSemantics::kRational;
  for (auto _ : state) {
    Result<EntailResult> result =
        Entails(scenario.db, scenario.twice_either, dense);
    IODB_CHECK(result.ok());
    benchmark::DoNotOptimize(result.value().entailed);
  }
}
BENCHMARK(BM_EspionageUnprepared);

void BM_EspionagePrepared(benchmark::State& state) {
  EspionageScenario scenario = MakeEspionageScenario();
  EntailOptions dense;
  dense.semantics = OrderSemantics::kRational;
  PreparedQuery plan = MustPrepare(scenario.vocab, scenario.twice_either,
                                   dense);
  for (auto _ : state) {
    Result<EntailResult> result = plan.Evaluate(scenario.db);
    IODB_CHECK(result.ok());
    benchmark::DoNotOptimize(result.value().entailed);
  }
}
BENCHMARK(BM_EspionagePrepared);

// --- Scheduling: constant-free monadic disjunct ----------------------------
// The forbidden-pattern check against a partially ordered plan; the
// prepared side reduces to the bounded-width engine run alone.

void BM_SchedulingUnprepared(benchmark::State& state) {
  Rng rng(7);
  SchedulingScenario scenario =
      MakeSchedulingScenario(static_cast<int>(state.range(0)), 4, rng);
  for (auto _ : state) {
    Result<EntailResult> result = Entails(scenario.db, scenario.forbidden);
    IODB_CHECK(result.ok());
    benchmark::DoNotOptimize(result.value().entailed);
  }
}
BENCHMARK(BM_SchedulingUnprepared)->Arg(2)->Arg(4);

void BM_SchedulingPrepared(benchmark::State& state) {
  Rng rng(7);
  SchedulingScenario scenario =
      MakeSchedulingScenario(static_cast<int>(state.range(0)), 4, rng);
  PreparedQuery plan = PrepareForbiddenPlan(scenario);
  for (auto _ : state) {
    Result<EntailResult> result = plan.Evaluate(scenario.db);
    IODB_CHECK(result.ok());
    benchmark::DoNotOptimize(result.value().entailed);
  }
}
BENCHMARK(BM_SchedulingPrepared)->Arg(2)->Arg(4);

// --- Batch: one plan, many databases ---------------------------------------
// A fleet of plan variants checked against the same compiled forbidden
// pattern. (Spreading a fleet across workers is the service's batch
// fan-out; bench_service_throughput's BM_ServiceFleetBatch measures it.)

std::vector<SchedulingScenario> MakeFleet(int n) {
  auto vocab = std::make_shared<Vocabulary>();
  std::vector<SchedulingScenario> fleet;
  fleet.reserve(n);
  for (int i = 0; i < n; ++i) {
    Rng rng(100 + i);
    fleet.push_back(MakeSchedulingScenario(2, 4, rng, vocab));
  }
  return fleet;
}

void BM_BatchUnprepared(benchmark::State& state) {
  std::vector<SchedulingScenario> fleet =
      MakeFleet(static_cast<int>(state.range(0)));
  // All fleet members share the forbidden pattern; take it from the first.
  const Query& forbidden = fleet[0].forbidden;
  for (auto _ : state) {
    for (const SchedulingScenario& scenario : fleet) {
      Result<EntailResult> result = Entails(scenario.db, forbidden);
      IODB_CHECK(result.ok());
      benchmark::DoNotOptimize(result.value().entailed);
    }
  }
}
BENCHMARK(BM_BatchUnprepared)->Arg(16);

void BM_BatchPrepared(benchmark::State& state) {
  std::vector<SchedulingScenario> fleet =
      MakeFleet(static_cast<int>(state.range(0)));
  PreparedQuery plan = PrepareForbiddenPlan(fleet[0]);
  for (auto _ : state) {
    for (const SchedulingScenario& scenario : fleet) {
      Result<EntailResult> result = plan.Evaluate(scenario.db);
      IODB_CHECK(result.ok());
      benchmark::DoNotOptimize(result.value().entailed);
    }
  }
}
BENCHMARK(BM_BatchPrepared)->Arg(16);

}  // namespace
}  // namespace iodb
