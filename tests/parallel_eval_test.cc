// One plan evaluated against many databases at once — the shape of the
// service's batch fan-out (ParallelFor over PreparedQuery::Evaluate on
// distinct Database objects). The concurrent runs must return results
// identical to the serial ones — verdict, engine, countermodel and work
// counters — regardless of worker count, with results landing in their
// input slots.

#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/parser.h"
#include "core/prepare.h"
#include "util/parallel.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/scenarios.h"

namespace iodb {
namespace {

// Evaluates `plan` against every database on up to `workers` threads;
// result[i] is dbs[i]'s verdict. The databases must be distinct objects
// (a Database's NormView fills lazily).
std::vector<Result<EntailResult>> EvaluateFleet(
    const PreparedQuery& plan, const std::vector<const Database*>& dbs,
    int workers) {
  std::vector<Result<EntailResult>> results(dbs.size(), EntailResult{});
  ParallelFor(static_cast<int>(dbs.size()), workers,
              [&](int i) { results[i] = plan.Evaluate(*dbs[i]); });
  return results;
}

void ExpectSameResults(const std::vector<Result<EntailResult>>& serial,
                       const std::vector<Result<EntailResult>>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].ok(), parallel[i].ok()) << "slot " << i;
    if (!serial[i].ok()) continue;
    EXPECT_EQ(serial[i].value().entailed, parallel[i].value().entailed)
        << "slot " << i;
    EXPECT_EQ(serial[i].value().engine_used, parallel[i].value().engine_used)
        << "slot " << i;
    ASSERT_EQ(serial[i].value().countermodel.has_value(),
              parallel[i].value().countermodel.has_value())
        << "slot " << i;
    if (serial[i].value().countermodel.has_value()) {
      EXPECT_EQ(serial[i].value().countermodel->ToString(),
                parallel[i].value().countermodel->ToString())
          << "slot " << i;
    }
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int workers : {1, 2, 4, 7}) {
    std::vector<std::atomic<int>> hits(33);
    for (auto& h : hits) h = 0;
    ParallelFor(33, workers, [&](int i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "workers " << workers << " i " << i;
    }
  }
}

TEST(ParallelEvaluateBatchTest, SchedulingFleetMatchesSerial) {
  auto vocab = std::make_shared<Vocabulary>();
  std::vector<SchedulingScenario> fleet;
  for (int i = 0; i < 12; ++i) {
    Rng rng(900 + i);
    fleet.push_back(MakeSchedulingScenario(2, 4, rng, vocab));
  }
  PreparedQuery plan = PrepareForbiddenPlan(fleet[0]);
  std::vector<const Database*> dbs;
  for (const SchedulingScenario& scenario : fleet) dbs.push_back(&scenario.db);

  // The concurrent run goes first, so the lazy per-database fills happen
  // on the workers.
  const std::vector<Result<EntailResult>> cold = EvaluateFleet(plan, dbs, 4);
  const std::vector<Result<EntailResult>> serial =
      EvaluateFleet(plan, dbs, /*workers=*/1);
  ExpectSameResults(serial, cold);
  ExpectSameResults(serial, EvaluateFleet(plan, dbs, 2));
}

TEST(ParallelEvaluateBatchTest, TransformPlansShareTheGuardedCache) {
  // A query with constants forces the per-plan transformed-db cache (the
  // markers must be injected per database); parallel workers share it.
  auto vocab = std::make_shared<Vocabulary>();
  std::vector<Database> fleet;
  for (int i = 0; i < 8; ++i) {
    Rng rng(3000 + i);
    MonadicDbParams params;
    params.num_chains = 2;
    params.chain_length = 3;
    params.num_predicates = 2;
    Database db = RandomMonadicDb(params, vocab, rng);
    db.GetOrAddConstant("pivot", Sort::kOrder);
    db.AddOrder("c0_0", OrderRel::kLe, "pivot");
    fleet.push_back(std::move(db));
  }
  Result<Query> query =
      ParseQuery("exists t: P0(t) & pivot <= t", vocab);
  ASSERT_TRUE(query.ok());
  Result<PreparedQuery> plan = Prepare(vocab, query.value());
  ASSERT_TRUE(plan.ok());

  std::vector<const Database*> dbs;
  for (const Database& db : fleet) dbs.push_back(&db);
  // Cold round first (every worker misses the cache and inserts), then
  // warm rounds that hit it.
  std::vector<Result<EntailResult>> rounds[3];
  for (auto& round : rounds) round = EvaluateFleet(plan.value(), dbs, 4);
  const std::vector<Result<EntailResult>> serial =
      EvaluateFleet(plan.value(), dbs, /*workers=*/1);
  for (const auto& round : rounds) ExpectSameResults(serial, round);
}

TEST(ParallelEvaluateBatchTest, BatchSlotsReportIdenticalCounters) {
  // Counter-aggregation audit: each evaluation owns its counters, so a
  // serial fleet run and a 4-worker run report identical per-slot work
  // counters.
  auto vocab = std::make_shared<Vocabulary>();
  std::vector<SchedulingScenario> fleet;
  for (int i = 0; i < 6; ++i) {
    Rng rng(4400 + i);
    fleet.push_back(MakeSchedulingScenario(2, 4, rng, vocab));
  }
  PreparedQuery plan = PrepareForbiddenPlan(fleet[0]);
  std::vector<const Database*> dbs;
  for (const SchedulingScenario& scenario : fleet) dbs.push_back(&scenario.db);

  const std::vector<Result<EntailResult>> parallel =
      EvaluateFleet(plan, dbs, 4);
  const std::vector<Result<EntailResult>> serial =
      EvaluateFleet(plan, dbs, /*workers=*/1);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].ok(), parallel[i].ok()) << "slot " << i;
    if (!serial[i].ok()) continue;
    EXPECT_EQ(parallel[i].value().models_enumerated,
              serial[i].value().models_enumerated)
        << "slot " << i;
    EXPECT_EQ(parallel[i].value().groups_pushed,
              serial[i].value().groups_pushed)
        << "slot " << i;
    EXPECT_EQ(parallel[i].value().groups_popped,
              serial[i].value().groups_popped)
        << "slot " << i;
    const ModelCheckStats& s = serial[i].value().check_stats;
    const ModelCheckStats& p = parallel[i].value().check_stats;
    EXPECT_EQ(p.assignments_tried, s.assignments_tried) << "slot " << i;
    EXPECT_EQ(p.index_probes, s.index_probes) << "slot " << i;
    EXPECT_EQ(p.facts_scanned, s.facts_scanned) << "slot " << i;
    EXPECT_EQ(p.reach_probes, s.reach_probes) << "slot " << i;
    EXPECT_EQ(p.reach_fast_hits, s.reach_fast_hits) << "slot " << i;
    EXPECT_EQ(p.reach_fallbacks, s.reach_fallbacks) << "slot " << i;
    EXPECT_EQ(p.index_rebuilds, s.index_rebuilds) << "slot " << i;
  }
}

}  // namespace
}  // namespace iodb
