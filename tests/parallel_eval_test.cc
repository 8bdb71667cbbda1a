// EvaluateBatch with num_workers > 1 and the sharded brute-force
// enumeration: the parallel paths must return results identical to the
// serial num_workers = 1 run — verdict, engine, and countermodel —
// regardless of worker count, with results landing in their input slots.

#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/entail_bruteforce.h"
#include "core/parser.h"
#include "core/prepare.h"
#include "util/parallel.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/scenarios.h"

namespace iodb {
namespace {

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

  const std::vector<Result<EntailResult>> serial =
      plan.EvaluateBatch(dbs, /*num_workers=*/1);
  for (int workers : {2, 4}) {
    ExpectSameResults(serial, plan.EvaluateBatch(dbs, workers));
  }
}

TEST(ParallelEvaluateBatchTest, DuplicateDatabasePointersShareOneEvaluation) {
  auto vocab = std::make_shared<Vocabulary>();
  Rng rng(42);
  SchedulingScenario scenario = MakeSchedulingScenario(2, 3, rng, vocab);
  PreparedQuery plan = PrepareForbiddenPlan(scenario);
  std::vector<const Database*> dbs(5, &scenario.db);
  const std::vector<Result<EntailResult>> serial =
      plan.EvaluateBatch(dbs, /*num_workers=*/1);
  ExpectSameResults(serial, plan.EvaluateBatch(dbs, 4));
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
  const std::vector<Result<EntailResult>> serial =
      plan.value().EvaluateBatch(dbs, /*num_workers=*/1);
  for (int round = 0; round < 3; ++round) {  // warm + cached rounds
    ExpectSameResults(serial, plan.value().EvaluateBatch(dbs, 4));
  }
}

TEST(ParallelBruteForceTest, SubtreeShardingMatchesSerialOnRandomCorpus) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    auto vocab = std::make_shared<Vocabulary>();
    Rng rng(seed);
    MonadicDbParams params;
    params.num_chains = rng.UniformInt(1, 3);
    params.chain_length = rng.UniformInt(1, 3);
    params.num_predicates = 2;
    params.le_probability = 0.4;
    Database db = RandomMonadicDb(params, vocab, rng);
    Query query = RandomDisjunctiveSequentialQuery(
        rng.UniformInt(1, 2), rng.UniformInt(1, 3), 2, 0.5, 0.4, vocab, rng);
    Result<NormQuery> norm_query = NormalizeQuery(query);
    ASSERT_TRUE(norm_query.ok());
    Result<NormDb> norm = Normalize(db);
    ASSERT_TRUE(norm.ok());

    EngineContext context;
    context.want_countermodel = true;
    const EngineOutcome serial =
        EntailBruteForce(norm.value(), norm_query.value(), context);
    for (int workers : {2, 4}) {
      context.num_threads = workers;
      const EngineOutcome parallel =
          EntailBruteForce(norm.value(), norm_query.value(), context);
      EXPECT_EQ(parallel.entailed, serial.entailed)
          << "seed " << seed << " workers " << workers;
      ASSERT_EQ(parallel.countermodel.has_value(),
                serial.countermodel.has_value())
          << "seed " << seed << " workers " << workers;
      if (serial.countermodel.has_value()) {
        // The deterministic merge reports exactly the serial search's
        // countermodel (first one of the lowest subtree containing any).
        EXPECT_EQ(parallel.countermodel->ToString(),
                  serial.countermodel->ToString())
            << "seed " << seed << " workers " << workers;
      }
      if (serial.entailed) {
        // No early exit: the sharded counters are exact — including the
        // reachability-probe counters (the parallel engine counts the
        // depth-0 probes once, in the root-collection pass, and each
        // subtree worker counts exactly its own subtree's probes).
        EXPECT_EQ(parallel.models_enumerated, serial.models_enumerated)
            << "seed " << seed << " workers " << workers;
        EXPECT_EQ(parallel.groups_pushed, serial.groups_pushed)
            << "seed " << seed << " workers " << workers;
        EXPECT_EQ(parallel.groups_popped, serial.groups_popped)
            << "seed " << seed << " workers " << workers;
        EXPECT_EQ(parallel.check_stats.reach_probes,
                  serial.check_stats.reach_probes)
            << "seed " << seed << " workers " << workers;
        EXPECT_EQ(parallel.check_stats.reach_fast_hits,
                  serial.check_stats.reach_fast_hits)
            << "seed " << seed << " workers " << workers;
        EXPECT_EQ(parallel.check_stats.reach_fallbacks,
                  serial.check_stats.reach_fallbacks)
            << "seed " << seed << " workers " << workers;
        EXPECT_EQ(parallel.check_stats.index_rebuilds,
                  serial.check_stats.index_rebuilds)
            << "seed " << seed << " workers " << workers;
        EXPECT_EQ(parallel.check_stats.assignments_tried,
                  serial.check_stats.assignments_tried)
            << "seed " << seed << " workers " << workers;
      }
    }
  }
}

TEST(ParallelBruteForceTest, NotEntailedDecisionsReportSerialCounters) {
  // A not-entailed sharded decision merges the counters of subtrees
  // 0..winner only (the serial search stops in the winner's subtree
  // too), so its work counters and countermodel are exactly the serial
  // run's, whatever the sibling subtrees above the winner had done.
  int not_entailed = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    auto vocab = std::make_shared<Vocabulary>();
    Rng rng(7000 + seed);
    MonadicDbParams params;
    params.num_chains = 3;
    params.chain_length = rng.UniformInt(1, 3);
    params.num_predicates = 2;
    params.le_probability = 0.3;
    Database db = RandomMonadicDb(params, vocab, rng);
    Query query = RandomDisjunctiveSequentialQuery(
        rng.UniformInt(1, 2), rng.UniformInt(1, 3), 2, 0.5, 0.4, vocab, rng);
    Result<NormQuery> norm_query = NormalizeQuery(query);
    ASSERT_TRUE(norm_query.ok());
    Result<NormDb> norm = Normalize(db);
    ASSERT_TRUE(norm.ok());

    EngineContext context;
    context.want_countermodel = true;
    const EngineOutcome serial =
        EntailBruteForce(norm.value(), norm_query.value(), context);
    if (serial.entailed) continue;
    ++not_entailed;
    ASSERT_TRUE(serial.countermodel.has_value()) << "seed " << seed;
    for (int workers : {2, 4}) {
      for (int round = 0; round < 3; ++round) {
        context.num_threads = workers;
        const EngineOutcome parallel =
            EntailBruteForce(norm.value(), norm_query.value(), context);
        const std::string where = "seed " + std::to_string(seed) +
                                  " workers " + std::to_string(workers);
        ASSERT_FALSE(parallel.entailed) << where;
        ASSERT_TRUE(parallel.countermodel.has_value()) << where;
        EXPECT_EQ(parallel.countermodel->ToString(),
                  serial.countermodel->ToString())
            << where;
        EXPECT_EQ(parallel.models_enumerated, serial.models_enumerated)
            << where;
        EXPECT_EQ(parallel.groups_pushed, serial.groups_pushed) << where;
        EXPECT_EQ(parallel.groups_popped, serial.groups_popped) << where;
        EXPECT_EQ(parallel.check_stats.assignments_tried,
                  serial.check_stats.assignments_tried)
            << where;
      }
    }
  }
  EXPECT_GE(not_entailed, 10);
}

TEST(ParallelEvaluateBatchTest, BatchSlotsReportIdenticalCounters) {
  // Counter-aggregation audit: per-worker ModelCheckStats must merge into
  // each slot exactly once — a serial batch and a 4-worker batch report
  // identical per-slot counters, and duplicate database pointers (which
  // the parallel path dedups and copies) must carry the counters too.
  auto vocab = std::make_shared<Vocabulary>();
  std::vector<SchedulingScenario> fleet;
  for (int i = 0; i < 6; ++i) {
    Rng rng(4400 + i);
    fleet.push_back(MakeSchedulingScenario(2, 4, rng, vocab));
  }
  PreparedQuery plan = PrepareForbiddenPlan(fleet[0]);
  std::vector<const Database*> dbs;
  for (const SchedulingScenario& scenario : fleet) dbs.push_back(&scenario.db);
  dbs.push_back(&fleet[2].db);  // duplicate slots
  dbs.push_back(&fleet[0].db);

  const std::vector<Result<EntailResult>> serial =
      plan.EvaluateBatch(dbs, /*num_workers=*/1);
  const std::vector<Result<EntailResult>> parallel =
      plan.EvaluateBatch(dbs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].ok(), parallel[i].ok()) << "slot " << i;
    if (!serial[i].ok()) continue;
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

TEST(ParallelEvaluateBatchTest, SingleDatabaseShardsTheEnumeration) {
  // One hard brute-force query: the batch API shards enumeration subtrees.
  auto vocab = std::make_shared<Vocabulary>();
  Rng rng(77);
  MonadicDbParams params;
  params.num_chains = 3;
  params.chain_length = 3;
  params.num_predicates = 2;
  Database db = RandomMonadicDb(params, vocab, rng);
  db.AddNotEqual("c0_0", "c1_0");  // inequality forces brute force
  Query query = RandomSequentialQuery(3, 2, 0.5, 0.4, vocab, rng);
  EntailOptions brute;
  brute.engine = EngineKind::kBruteForce;
  Result<PreparedQuery> plan = Prepare(vocab, query, brute);
  ASSERT_TRUE(plan.ok());

  std::vector<const Database*> dbs{&db};
  const std::vector<Result<EntailResult>> serial =
      plan.value().EvaluateBatch(dbs, /*num_workers=*/1);
  ExpectSameResults(serial, plan.value().EvaluateBatch(dbs, 4));
}

}  // namespace
}  // namespace iodb
