// ExecBudget / CancelToken semantics and the engine governance
// invariants (util/budget.h, core/prepare.h):
//
//   * an unlimited budget is observationally free and a governed run
//     that does not exhaust it is bit-identical to an ungoverned run
//     (verdict, countermodel, every work counter);
//   * exhaustion surfaces as the typed kDeadlineExceeded / kCancelled
//     status with partial work counters attached to the budget;
//   * a wall-clock deadline is honored promptly (stride-bounded
//     overshoot) even in the middle of an astronomically large
//     enumeration.

#include "util/budget.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/parser.h"
#include "core/prepare.h"
#include "core/printer.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/random.h"
#include "workload/generators.h"

namespace iodb {
namespace {

TEST(ExecBudgetTest, UnlimitedBudgetIsPassive) {
  ExecBudget budget;
  EXPECT_FALSE(budget.limited());
  for (int i = 0; i < 10000; ++i) EXPECT_TRUE(budget.Charge());
  EXPECT_TRUE(budget.Poll());
  EXPECT_FALSE(budget.exhausted());
  EXPECT_EQ(budget.steps_charged(), 0);  // fast path does not count
}

TEST(ExecBudgetTest, StepLimitTripsStickyAndTyped) {
  ExecBudget budget;
  budget.SetStepLimit(10);
  EXPECT_TRUE(budget.limited());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(budget.Charge()) << "step " << i;
  }
  EXPECT_FALSE(budget.Charge());
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.exhaustion(), BudgetExhaustion::kSteps);
  // Sticky: every later charge and poll fails.
  EXPECT_FALSE(budget.Charge());
  EXPECT_FALSE(budget.Poll());

  Status status = budget.ToStatus("unit test");
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("step budget"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("unit test"), std::string::npos);
}

TEST(ExecBudgetTest, ExpiredDeadlineFailsAdmission) {
  ExecBudget budget;
  budget.SetDeadlineAfterMs(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_FALSE(budget.Poll());
  EXPECT_EQ(budget.exhaustion(), BudgetExhaustion::kDeadline);
  EXPECT_EQ(budget.ToStatus("admission").code(),
            StatusCode::kDeadlineExceeded);
}

TEST(ExecBudgetTest, CancelTokenObservedAndTyped) {
  CancelToken token;
  ExecBudget budget;
  budget.SetCancelToken(&token);
  EXPECT_TRUE(budget.limited());
  EXPECT_TRUE(budget.Poll());
  token.Cancel();
  EXPECT_FALSE(budget.Poll());
  EXPECT_EQ(budget.exhaustion(), BudgetExhaustion::kCancelled);
  EXPECT_EQ(budget.ToStatus("cancel test").code(), StatusCode::kCancelled);
}

TEST(ExecBudgetTest, PartialCountersAccumulate) {
  ExecBudget budget;
  ExecBudget::Partial first;
  first.states_visited = 3;
  first.groups_pushed = 7;
  budget.MergePartial(first);
  ExecBudget::Partial second;
  second.states_visited = 2;
  second.models_enumerated = 5;
  budget.MergePartial(second);
  EXPECT_EQ(budget.partial().states_visited, 5);
  EXPECT_EQ(budget.partial().groups_pushed, 7);
  EXPECT_EQ(budget.partial().models_enumerated, 5);
}

// --- Engine governance -----------------------------------------------------

// A database whose minimal-model space is astronomically large: three
// mutually unordered chains of 7 interleave in 21!/(7!)^3 ≈ 4·10^8
// ways, so any full enumeration must be cut short by the budget.
std::string HardDbText() {
  // R is declared but labels nothing (the hard query needs it).
  std::string out = "pred R(order)\n";
  for (char chain : {'a', 'b', 'c'}) {
    for (int i = 1; i <= 7; ++i) {
      out += std::string("P(") + chain + std::to_string(i) + ")\n";
      if (i > 1) {
        out += std::string(1, chain) + std::to_string(i - 1) + " < " +
               chain + std::to_string(i) + "\n";
      }
    }
  }
  return out;
}

struct HardInstance {
  VocabularyPtr vocab = std::make_shared<Vocabulary>();
  Database db;
  Query query;

  HardInstance()
      : db([&] {
          Result<Database> parsed = ParseDatabase(HardDbText(), vocab);
          IODB_CHECK(parsed.ok());
          return std::move(parsed.value());
        }()),
        query([&] {
          // R labels nothing, so the query is false in every model and
          // its countermodels are ALL minimal models of the database.
          Result<Query> parsed = ParseQuery(
              "exists t1 t2: R(t1) & t1 < t2 & R(t2)", vocab);
          IODB_CHECK(parsed.ok());
          return std::move(parsed.value());
        }()) {}
};

TEST(BudgetGovernanceTest, StepBudgetCutsEnumerationWithPartialStats) {
  HardInstance instance;
  ExecBudget budget;
  budget.SetStepLimit(500);
  long long seen = 0;
  Result<long long> result = EnumerateCountermodels(
      instance.db, instance.query,
      [&](const FiniteModel&) {
        ++seen;
        return true;
      },
      {}, &budget);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("step budget"), std::string::npos)
      << result.status().message();
  EXPECT_GE(budget.steps_charged(), 500);
  // Partial progress was salvaged onto the budget.
  const ExecBudget::Partial partial = budget.partial();
  EXPECT_GT(partial.states_visited + partial.groups_pushed +
                partial.models_enumerated,
            0);
}

TEST(BudgetGovernanceTest, DeadlineIsHonoredPromptly) {
  HardInstance instance;
  ExecBudget budget;
  constexpr long long kDeadlineMs = 25;
  budget.SetDeadlineAfterMs(kDeadlineMs);
  const auto start = std::chrono::steady_clock::now();
  Result<long long> result = EnumerateCountermodels(
      instance.db, instance.query, [](const FiniteModel&) { return true; },
      {}, &budget);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(budget.exhaustion(), BudgetExhaustion::kDeadline);
  // The stride probe bounds overshoot to well under 10 ms of work on
  // this workload; the assertion is looser only to absorb CI scheduling
  // noise and sanitizer slowdowns.
  EXPECT_LT(elapsed_ms, kDeadlineMs + 150)
      << "deadline overshoot " << (elapsed_ms - kDeadlineMs) << " ms";
}

TEST(BudgetGovernanceTest, CancelTokenAbortsInFlightEvaluation) {
  HardInstance instance;
  CancelToken token;
  ExecBudget budget;
  budget.SetCancelToken(&token);
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.Cancel();
  });
  Result<long long> result = EnumerateCountermodels(
      instance.db, instance.query, [](const FiniteModel&) { return true; },
      {}, &budget);
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(budget.exhaustion(), BudgetExhaustion::kCancelled);
}

// Draws the fuzzer's instance families (small) for identity testing.
struct SmallInstance {
  Database db;
  Query query;
};

SmallInstance DrawSmall(uint64_t seed, const VocabularyPtr& vocab) {
  Rng rng(seed);
  MonadicDbParams params;
  params.num_chains = rng.UniformInt(1, 2);
  params.chain_length = rng.UniformInt(2, 4);
  params.num_predicates = 2;
  params.label_probability = 0.5;
  params.le_probability = 0.2;
  Database db = RandomMonadicDb(params, vocab, rng);
  Query query =
      rng.UniformInt(0, 1) == 0
          ? RandomConjunctiveMonadicQuery(rng.UniformInt(2, 3), 2, 0.5, 0.5,
                                          0.3, vocab, rng)
          : RandomDisjunctiveSequentialQuery(2, rng.UniformInt(2, 3), 2, 0.4,
                                             0.3, vocab, rng);
  return SmallInstance{std::move(db), std::move(query)};
}

// THE governance invariant: a budget that never trips must not change
// anything — verdict, countermodel, or any work counter — for any
// engine the instance admits. Forced engines that do not apply to an
// instance (kUnsupported) are skipped.
TEST(BudgetGovernanceTest, NonExhaustedGovernedRunIsBitIdentical) {
  auto vocab = std::make_shared<Vocabulary>();
  int conjunctive_runs = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SmallInstance instance = DrawSmall(seed, vocab);
    for (EngineKind engine :
         {EngineKind::kAuto, EngineKind::kBruteForce,
          EngineKind::kPathDecomposition, EngineKind::kBoundedWidth,
          EngineKind::kDisjunctiveSearch}) {
      EntailOptions options;
      options.engine = engine;
      options.want_countermodel = true;
      Result<EntailResult> plain = Entails(instance.db, instance.query,
                                           options);
      if (!plain.ok() &&
          plain.status().code() == StatusCode::kUnsupported) {
        continue;
      }
      ASSERT_TRUE(plain.ok()) << plain.status().ToString();
      if (engine == EngineKind::kBoundedWidth) ++conjunctive_runs;
      ExecBudget budget;
      budget.SetStepLimit(1LL << 60);
      budget.SetDeadlineAfterMs(1LL << 40);
      Result<EntailResult> governed =
          Entails(instance.db, instance.query, options, &budget);
      ASSERT_TRUE(governed.ok()) << governed.status().ToString();
      EXPECT_FALSE(budget.exhausted());

      const EntailResult& a = plain.value();
      const EntailResult& b = governed.value();
      ASSERT_EQ(a.entailed, b.entailed) << "seed " << seed;
      EXPECT_EQ(a.engine_used, b.engine_used) << "seed " << seed;
      EXPECT_EQ(a.states_visited, b.states_visited) << "seed " << seed;
      EXPECT_EQ(a.models_enumerated, b.models_enumerated) << "seed " << seed;
      EXPECT_EQ(a.groups_pushed, b.groups_pushed) << "seed " << seed;
      EXPECT_EQ(a.groups_popped, b.groups_popped) << "seed " << seed;
      EXPECT_EQ(a.check_stats.reach_probes, b.check_stats.reach_probes)
          << "seed " << seed;
      EXPECT_EQ(a.check_stats.assignments_tried,
                b.check_stats.assignments_tried)
          << "seed " << seed;
      EXPECT_EQ(a.check_stats.index_probes, b.check_stats.index_probes)
          << "seed " << seed;
      ASSERT_EQ(a.countermodel.has_value(), b.countermodel.has_value())
          << "seed " << seed;
      if (a.countermodel.has_value()) {
        EXPECT_EQ(a.countermodel->ToString(), b.countermodel->ToString())
            << "seed " << seed;
      }
    }
  }
  // The conjunctive engines must actually have been exercised.
  EXPECT_GT(conjunctive_runs, 10);
}

// A batch plan group's shape: evaluations running at once on the worker
// pool, charging one shared (huge) budget, must agree with the serial
// ungoverned runs — the budget is thread-safe and a non-tripped budget
// never changes any evaluation's control flow.
TEST(BudgetGovernanceTest, ParallelGovernedVerdictMatches) {
  auto vocab = std::make_shared<Vocabulary>();
  std::vector<SmallInstance> instances;
  std::vector<PreparedQuery> plans;
  for (uint64_t seed = 100; seed < 120; ++seed) {
    instances.push_back(DrawSmall(seed, vocab));
    EntailOptions options;
    options.want_countermodel = true;
    Result<PreparedQuery> plan =
        Prepare(vocab, instances.back().query, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plans.push_back(std::move(plan.value()));
  }
  const int n = static_cast<int>(instances.size());
  ExecBudget budget;
  budget.SetStepLimit(1LL << 60);
  std::vector<Result<EntailResult>> governed(n, EntailResult{});
  ParallelFor(n, 4, [&](int k) {
    governed[k] = plans[k].Evaluate(instances[k].db, &budget);
  });
  EXPECT_FALSE(budget.exhausted());
  std::vector<Result<EntailResult>> plain(n, EntailResult{});
  for (int k = 0; k < n; ++k) plain[k] = plans[k].Evaluate(instances[k].db);
  for (int k = 0; k < n; ++k) {
    ASSERT_TRUE(plain[k].ok()) << plain[k].status().ToString();
    ASSERT_TRUE(governed[k].ok()) << governed[k].status().ToString();
    const EntailResult& a = plain[k].value();
    const EntailResult& b = governed[k].value();
    EXPECT_EQ(a.entailed, b.entailed) << "instance " << k;
    EXPECT_EQ(a.engine_used, b.engine_used) << "instance " << k;
    EXPECT_EQ(a.states_visited, b.states_visited) << "instance " << k;
    EXPECT_EQ(a.models_enumerated, b.models_enumerated) << "instance " << k;
    EXPECT_EQ(a.check_stats.reach_probes, b.check_stats.reach_probes)
        << "instance " << k;
    ASSERT_EQ(a.countermodel.has_value(), b.countermodel.has_value())
        << "instance " << k;
    if (a.countermodel.has_value()) {
      EXPECT_EQ(a.countermodel->ToString(), b.countermodel->ToString())
          << "instance " << k;
    }
  }
}

// A countermodel found before the trip stays a definite "not entailed":
// force a budget so small the search cannot finish, on an instance
// whose first countermodel is immediate — the verdict must never be an
// exhausted "entailed".
TEST(BudgetGovernanceTest, ExhaustedRunNeverClaimsEntailment) {
  auto vocab = std::make_shared<Vocabulary>();
  for (uint64_t seed = 200; seed < 260; ++seed) {
    SmallInstance instance = DrawSmall(seed, vocab);
    EntailOptions options;
    Result<EntailResult> oracle = Entails(instance.db, instance.query,
                                          options);
    ASSERT_TRUE(oracle.ok());
    Rng rng(seed);
    ExecBudget budget;
    budget.SetStepLimit(rng.UniformInt(0, 12));
    Result<EntailResult> governed =
        Entails(instance.db, instance.query, options, &budget);
    if (governed.ok()) {
      EXPECT_EQ(governed.value().entailed, oracle.value().entailed)
          << "seed " << seed;
    } else {
      EXPECT_EQ(governed.status().code(), StatusCode::kDeadlineExceeded)
          << "seed " << seed << ": " << governed.status().ToString();
    }
  }
}

}  // namespace
}  // namespace iodb
