// Cross-engine agreement: the brute-force minimal-model engine is the
// semantic reference; the SEQ/path engine (Lemma 4.1), the bounded-width
// engine (Theorem 4.7), the disjunctive engine (Theorem 5.3) and the
// compiled basis (Section 6) must agree with it on random monadic
// instances, and countermodels must actually falsify the query.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "core/entail_bounded_width.h"
#include "core/entail_bruteforce.h"
#include "core/entail_disjunctive.h"
#include "core/entail_paths.h"
#include "core/minimal_models.h"
#include "core/model_check.h"
#include "core/parser.h"
#include "core/wqo.h"
#include "oracle/oracle.h"
#include "workload/generators.h"

namespace iodb {
namespace {

struct Instance {
  NormDb db;
  NormQuery query;
};

Instance RandomConjunctiveInstance(uint64_t seed) {
  Rng rng(seed);
  auto vocab = std::make_shared<Vocabulary>();
  MonadicDbParams params;
  params.num_chains = rng.UniformInt(1, 3);
  params.chain_length = rng.UniformInt(1, 4);
  params.num_predicates = 3;
  params.label_probability = 0.5;
  params.le_probability = 0.3;
  Database db = RandomMonadicDb(params, vocab, rng);
  Query query = RandomConjunctiveMonadicQuery(
      rng.UniformInt(1, 4), 3, 0.4, 0.4, 0.3, vocab, rng);
  Result<NormDb> ndb = Normalize(db);
  Result<NormQuery> nq = NormalizeQuery(query);
  IODB_CHECK(ndb.ok());
  IODB_CHECK(nq.ok());
  return {std::move(ndb.value()), std::move(nq.value())};
}

Instance RandomDisjunctiveInstance(uint64_t seed) {
  Rng rng(seed + 5000);
  auto vocab = std::make_shared<Vocabulary>();
  MonadicDbParams params;
  params.num_chains = rng.UniformInt(1, 2);
  params.chain_length = rng.UniformInt(1, 4);
  params.num_predicates = 3;
  params.label_probability = 0.6;
  params.le_probability = 0.3;
  Database db = RandomMonadicDb(params, vocab, rng);
  Query query = RandomDisjunctiveSequentialQuery(
      rng.UniformInt(1, 3), rng.UniformInt(1, 3), 3, 0.3, 0.3, vocab, rng);
  Result<NormDb> ndb = Normalize(db);
  Result<NormQuery> nq = NormalizeQuery(query);
  IODB_CHECK(ndb.ok());
  IODB_CHECK(nq.ok());
  return {std::move(ndb.value()), std::move(nq.value())};
}

class ConjunctiveEnginesTest : public ::testing::TestWithParam<int> {};

EngineContext WantCountermodel() {
  EngineContext context;
  context.want_countermodel = true;
  return context;
}

TEST_P(ConjunctiveEnginesTest, AllEnginesAgree) {
  Instance inst = RandomConjunctiveInstance(GetParam());
  ASSERT_EQ(inst.query.disjuncts.size(), 1u);
  const NormConjunct& conjunct = inst.query.disjuncts[0];

  bool brute = EntailBruteForce(inst.db, inst.query).entailed;
  bool paths = EntailByPaths(inst.db, conjunct).entailed;
  bool bounded = EntailBoundedWidth(inst.db, conjunct).entailed;
  bool disjunctive = EntailDisjunctive(inst.db, inst.query).entailed;
  bool basis =
      CompiledQuery::CompileConjunctive(conjunct).Entails(inst.db);

  EXPECT_EQ(paths, brute) << "seed " << GetParam();
  EXPECT_EQ(bounded, brute) << "seed " << GetParam();
  EXPECT_EQ(disjunctive, brute) << "seed " << GetParam();
  EXPECT_EQ(basis, brute) << "seed " << GetParam();
}

TEST_P(ConjunctiveEnginesTest, BoundedWidthCountermodelFalsifies) {
  Instance inst = RandomConjunctiveInstance(GetParam());
  const NormConjunct& conjunct = inst.query.disjuncts[0];
  EngineOutcome outcome =
      EntailBoundedWidth(inst.db, conjunct, WantCountermodel());
  if (!outcome.entailed) {
    ASSERT_TRUE(outcome.countermodel.has_value());
    EXPECT_FALSE(Satisfies(*outcome.countermodel, inst.query));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConjunctiveEnginesTest,
                         ::testing::Range(0, 80));

class DisjunctiveEngineTest : public ::testing::TestWithParam<int> {};

TEST_P(DisjunctiveEngineTest, AgreesWithBruteForce) {
  Instance inst = RandomDisjunctiveInstance(GetParam());
  bool brute = EntailBruteForce(inst.db, inst.query).entailed;
  EngineOutcome outcome =
      EntailDisjunctive(inst.db, inst.query, WantCountermodel());
  EXPECT_EQ(outcome.entailed, brute) << "seed " << GetParam();
  if (!outcome.entailed) {
    ASSERT_TRUE(outcome.countermodel.has_value());
    EXPECT_FALSE(Satisfies(*outcome.countermodel, inst.query));
  }
}

TEST_P(DisjunctiveEngineTest, EnumerationMatchesBruteForceCountermodels) {
  Instance inst = RandomDisjunctiveInstance(GetParam());
  // Reference: all minimal models falsifying the query.
  std::set<std::string> expected;
  ModelVisitor visitor;
  visitor.on_model = [&](const std::vector<std::vector<int>>& groups) {
    FiniteModel model = BuildMinimalModel(inst.db, groups);
    if (!Satisfies(model, inst.query)) expected.insert(model.ToString());
    return true;
  };
  ForEachMinimalModel(inst.db, visitor);

  // Engine enumeration (may report duplicates; compare as sets).
  std::set<std::string> actual;
  EngineContext context;
  context.on_countermodel = [&](const FiniteModel& model) {
    EXPECT_FALSE(Satisfies(model, inst.query));
    actual.insert(model.ToString());
    return true;
  };
  EntailDisjunctive(inst.db, inst.query, context);
  EXPECT_EQ(actual, expected) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisjunctiveEngineTest,
                         ::testing::Range(0, 60));

TEST(MonotonicityTest, AddingFactsPreservesEntailment) {
  // D ⊆ D' (atomwise) and D |= Φ imply D' |= Φ.
  for (int seed = 0; seed < 25; ++seed) {
    Rng rng(seed + 900);
    auto vocab = std::make_shared<Vocabulary>();
    MonadicDbParams params;
    params.num_chains = 2;
    params.chain_length = 3;
    params.num_predicates = 3;
    Database db = RandomMonadicDb(params, vocab, rng);
    Query query = RandomConjunctiveMonadicQuery(3, 3, 0.4, 0.4, 0.3, vocab,
                                                rng);
    Result<NormQuery> nq = NormalizeQuery(query);
    ASSERT_TRUE(nq.ok());
    Result<NormDb> before = Normalize(db);
    ASSERT_TRUE(before.ok());
    bool entailed_before =
        EntailBruteForce(before.value(), nq.value()).entailed;

    // Extend with extra facts and order atoms.
    Database extended = db;
    extended.AddOrder("c0_0", OrderRel::kLe, "extra");
    ASSERT_TRUE(extended.AddFact("P0", {"extra"}).ok());
    ASSERT_TRUE(extended.AddFact("P1", {"c0_0"}).ok());
    Result<NormDb> after = Normalize(extended);
    ASSERT_TRUE(after.ok());
    bool entailed_after =
        EntailBruteForce(after.value(), nq.value()).entailed;
    if (entailed_before) {
      EXPECT_TRUE(entailed_after) << "seed " << seed;
    }
  }
}

TEST(BruteForceTest, TrivialQueryShortCircuits) {
  Instance inst = RandomConjunctiveInstance(1);
  NormQuery trivial;
  trivial.vocab = inst.query.vocab;
  trivial.trivially_true = true;
  EngineOutcome outcome = EntailBruteForce(inst.db, trivial);
  EXPECT_TRUE(outcome.entailed);
  EXPECT_EQ(outcome.models_enumerated, 0);
}

TEST(BruteForceTest, FalseQueryYieldsCountermodel) {
  Instance inst = RandomConjunctiveInstance(2);
  NormQuery false_query;
  false_query.vocab = inst.query.vocab;  // zero disjuncts
  EngineOutcome outcome =
      EntailBruteForce(inst.db, false_query, WantCountermodel());
  EXPECT_FALSE(outcome.entailed);
  EXPECT_TRUE(outcome.countermodel.has_value());
}

TEST(BoundedWidthTest, EmptyDatabase) {
  auto vocab = std::make_shared<Vocabulary>();
  DeclareMonadicPredicates(*vocab, 2);
  Database db(vocab);
  Result<NormDb> norm = Normalize(db);
  ASSERT_TRUE(norm.ok());
  PredSet label;
  label.Add(0);
  FlexiWord pattern;
  pattern.symbols.push_back(label);
  NormConjunct conjunct = ConjunctOfFlexiWord(pattern, 2);
  EngineOutcome outcome =
      EntailBoundedWidth(norm.value(), conjunct, WantCountermodel());
  EXPECT_FALSE(outcome.entailed);
  ASSERT_TRUE(outcome.countermodel.has_value());
  EXPECT_EQ(outcome.countermodel->num_points, 0);
}

// ---------------------------------------------------------------------------
// Differential coverage of the incremental reachability paths: for each
// engine, the production (index/mask/counter) path must reproduce the
// oracle's full outcome (tests/oracle/) — verdict, state count, and the
// countermodel sequence.
// ---------------------------------------------------------------------------

// Width-2 instances with > 64 points: exercises the interval-probe and
// push/pop-counter paths that the word-mask fast path cannot serve.
Instance LargeConjunctiveInstance(uint64_t seed) {
  Rng rng(seed + 77000);
  auto vocab = std::make_shared<Vocabulary>();
  MonadicDbParams params;
  params.num_chains = 2;
  params.chain_length = 40;
  params.num_predicates = 3;
  params.label_probability = 0.5;
  params.le_probability = 0.3;
  Database db = RandomMonadicDb(params, vocab, rng);
  Query query = RandomConjunctiveMonadicQuery(
      rng.UniformInt(2, 5), 3, 0.4, 0.4, 0.3, vocab, rng);
  Result<NormDb> ndb = Normalize(db);
  Result<NormQuery> nq = NormalizeQuery(query);
  IODB_CHECK(ndb.ok());
  IODB_CHECK(nq.ok());
  return {std::move(ndb.value()), std::move(nq.value())};
}

TEST_P(ConjunctiveEnginesTest, BoundedWidthIncrementalMatchesOracle) {
  Instance inst = RandomConjunctiveInstance(GetParam());
  const NormConjunct& conjunct = inst.query.disjuncts[0];
  EngineOutcome fast =
      EntailBoundedWidth(inst.db, conjunct, WantCountermodel());
  oracle::ExpectSameOutcome(fast,
                            oracle::EntailBoundedWidthFromDag(
                                inst.db, conjunct, WantCountermodel()),
                            "seed " + std::to_string(GetParam()));
  if (!fast.entailed) {
    EXPECT_GT(fast.check_stats.reach_probes, 0) << "seed " << GetParam();
  }
}

// Runs the engine under `first` and `second` in decision mode and in
// enumeration mode (capped at `max_countermodels` reports) and expects
// identical outcomes: verdict, states visited, the countermodel and the
// countermodel sequence, plus the probe counters when both run on the
// same order context. Neither run may exhaust.
void ExpectSameOutcomes(const NormDb& db, const NormQuery& query,
                        const EngineContext& first,
                        const EngineContext& second,
                        const std::string& what,
                        size_t max_countermodels = 64) {
  for (bool enumerate : {false, true}) {
    EngineOutcome outcome[2];
    std::vector<std::string> sequence[2];
    for (int run = 0; run < 2; ++run) {
      EngineContext context = run == 0 ? first : second;
      context.want_countermodel = true;
      if (enumerate) {
        context.on_countermodel = [&, run](const FiniteModel& model) {
          sequence[run].push_back(model.ToString());
          return sequence[run].size() < max_countermodels;
        };
      }
      outcome[run] = EntailDisjunctive(db, query, context);
    }
    const std::string where =
        what + (enumerate ? " (enumeration)" : " (decision)");
    EXPECT_FALSE(outcome[0].exhausted) << where;
    oracle::ExpectSameOutcome(outcome[0], outcome[1], where);
    EXPECT_EQ(sequence[0], sequence[1]) << where;
    if (first.order == second.order) {
      EXPECT_EQ(outcome[0].check_stats.reach_probes,
                outcome[1].check_stats.reach_probes)
          << where;
      EXPECT_EQ(outcome[0].check_stats.reach_fast_hits,
                outcome[1].check_stats.reach_fast_hits)
          << where;
    }
  }
}

// The production path against the engine on the oracle's closure.
void ExpectMatchesOracle(const NormDb& db, const NormQuery& query,
                         const std::string& what,
                         size_t max_countermodels = 64) {
  const EnumerationContext closure = oracle::ClosureContext(db);
  EngineContext on_closure;
  on_closure.order = &closure;
  ExpectSameOutcomes(db, query, EngineContext{}, on_closure, what,
                     max_countermodels);
}

// The whole enumeration: the production path reports the same
// countermodels in the same order (it preserves group enumeration order).
TEST_P(DisjunctiveEngineTest, IncrementalMatchesOraclePath) {
  Instance inst = RandomDisjunctiveInstance(GetParam());
  ExpectMatchesOracle(inst.db, inst.query,
                      "seed " + std::to_string(GetParam()), SIZE_MAX);
}

// The shape of the wire benchmark's Thm 5.3 reads: 3 chains x 12 points
// over 4 predicates, 3 disjuncts of length 3; odd seeds add four "!="
// constraints between nearby points of neighbouring chains, which the
// search could otherwise place in one group.
Instance EvalDeepShapeInstance(uint64_t seed) {
  Rng rng(seed + 53000);
  auto vocab = std::make_shared<Vocabulary>();
  MonadicDbParams params;
  params.num_chains = 3;
  params.chain_length = 12;
  params.num_predicates = 4;
  params.label_probability = 0.5;
  params.le_probability = 0.2;
  Database db = RandomMonadicDb(params, vocab, rng);
  if (seed % 2 == 1) {
    for (int k = 0; k < 4; ++k) {
      const int c = k % 2;
      const int i = rng.UniformInt(0, 11);
      const int j = std::clamp(i + rng.UniformInt(-1, 1), 0, 11);
      db.AddNotEqual("c" + std::to_string(c) + "_" + std::to_string(i),
                     "c" + std::to_string(c + 1) + "_" + std::to_string(j));
    }
  }
  Query query = RandomDisjunctiveSequentialQuery(3, 3, 4, 0.3, 0.2, vocab,
                                                 rng);
  Result<NormDb> ndb = Normalize(db);
  Result<NormQuery> nq = NormalizeQuery(query);
  IODB_CHECK(ndb.ok());
  IODB_CHECK(nq.ok());
  return {std::move(ndb.value()), std::move(nq.value())};
}

TEST_P(DisjunctiveEngineTest, EvalDeepShapeMaskPathMatchesOracle) {
  Instance inst = EvalDeepShapeInstance(GetParam());
  ASSERT_EQ(inst.db.num_points(), 36);
  ASSERT_EQ(inst.db.inequalities.empty(), GetParam() % 2 == 0);
  ExpectMatchesOracle(inst.db, inst.query,
                      "seed " + std::to_string(GetParam()));
}

// A database of `points` points: two chains of 32 labelled points, then
// `points - 64` more points (labelled, strictly after c0_31) when
// `points` > 64, or chains of points / 2 when smaller.
Instance GateInstance(int points, uint64_t seed, int vocab_padding,
                      int query_length, int num_disjuncts) {
  Rng rng(seed + 64000);
  auto vocab = std::make_shared<Vocabulary>();
  for (int p = 0; p < vocab_padding; ++p) {
    vocab->MustAddPredicate("Pad" + std::to_string(p), {Sort::kOrder});
  }
  MonadicDbParams params;
  params.num_chains = 2;
  params.chain_length = std::min(points, 64) / 2;
  params.num_predicates = 3;
  params.label_probability = 0.5;
  params.le_probability = 0.2;
  Database db = RandomMonadicDb(params, vocab, rng);
  std::string prev = "c0_" + std::to_string(params.chain_length - 1);
  for (int extra = 64; extra < points; ++extra) {
    std::string name = "x" + std::to_string(extra);
    db.AddOrder(prev, OrderRel::kLt, name);
    IODB_CHECK(db.AddFact("P" + std::to_string(extra % 3), {name}).ok());
    prev = name;
  }
  Query query = RandomDisjunctiveSequentialQuery(
      num_disjuncts, query_length, 3, 0.3, 0.2, vocab, rng);
  Result<NormDb> ndb = Normalize(db);
  Result<NormQuery> nq = NormalizeQuery(query);
  IODB_CHECK(ndb.ok());
  IODB_CHECK(nq.ok());
  IODB_CHECK_EQ(ndb.value().num_points(), points);
  return {std::move(ndb.value()), std::move(nq.value())};
}

TEST(DisjunctiveMaskGateTest, LabelIdsPastOneWordMatchOracle) {
  for (int seed = 0; seed < 6; ++seed) {
    // P0..P2 get ids 64..66: every label needs a second word.
    Instance inst = GateInstance(24, seed, 64, 3, 2);
    ASSERT_GT(inst.db.vocab->num_predicates(), 64);
    ExpectMatchesOracle(inst.db, inst.query,
                        "label ids >= 64, seed " + std::to_string(seed));
  }
}

TEST(DisjunctiveMaskGateTest, WideVocabularyWithSmallIdsMatchesOracle) {
  for (int seed = 0; seed < 6; ++seed) {
    // More than 64 predicates declared, but only ids 0..2 in labels.
    Instance inst = GateInstance(24, seed, 0, 3, 2);
    inst.db.vocab->MustAddPredicate("Wide", {Sort::kOrder});
    for (int p = 0; p < 64; ++p) {
      inst.db.vocab->MustAddPredicate("Late" + std::to_string(p),
                                      {Sort::kOrder});
    }
    ASSERT_GT(inst.db.vocab->num_predicates(), 64);
    ExpectMatchesOracle(inst.db, inst.query,
                        "wide vocabulary, seed " + std::to_string(seed));
  }
}

TEST(DisjunctiveMaskGateTest, DisjunctOver64OrderVariablesMatchesOracle) {
  for (int seed = 0; seed < 4; ++seed) {
    Instance inst = GateInstance(16, seed, 0, 70, 2);
    int widest = 0;
    for (const NormConjunct& conjunct : inst.query.disjuncts) {
      widest = std::max(widest, conjunct.num_order_vars());
    }
    ASSERT_GT(widest, 64);
    ExpectMatchesOracle(inst.db, inst.query,
                        "70-variable disjuncts, seed " + std::to_string(seed));
  }
}

// A path t0 <= ... <= t64 < t65 with P0 only on t65, over a database with
// no P0: every point matches t0..t64 and must emit t65, so a position mark
// for t64 that aliased t0's would wrongly kill every group.
TEST(DisjunctiveMaskGateTest, SixtySixVariablePathMatchesOracle) {
  auto vocab = std::make_shared<Vocabulary>();
  DeclareMonadicPredicates(*vocab, 2);
  Result<Database> db = ParseDatabase("P1(a)\nP1(b)\nP1(c)\na < b\n", vocab);
  ASSERT_TRUE(db.ok());
  std::string vars;
  std::string atoms;
  for (int t = 0; t <= 65; ++t) {
    vars += " t" + std::to_string(t);
    if (t > 0) {
      atoms += "t" + std::to_string(t - 1) + (t == 65 ? " < " : " <= ") +
               "t" + std::to_string(t) + " & ";
    }
  }
  Result<Query> query = ParseQuery("exists" + vars + ": " + atoms + "P0(t65)",
                                   vocab);
  ASSERT_TRUE(query.ok());
  Result<NormDb> ndb = Normalize(db.value());
  Result<NormQuery> nq = NormalizeQuery(query.value());
  ASSERT_TRUE(ndb.ok());
  ASSERT_TRUE(nq.ok()) << nq.status().ToString();
  ASSERT_EQ(nq.value().disjuncts[0].num_order_vars(), 66);
  EXPECT_FALSE(EntailDisjunctive(ndb.value(), nq.value()).entailed);
  ExpectMatchesOracle(ndb.value(), nq.value(), "66-variable path");
}

// Disjuncts whose dags are not paths: a vertex reached both as a "<"
// successor and through "<=" arcs must be tracked by separate visited and
// emitted marks, as in AdvanceSet.
TEST(DisjunctiveMaskGateTest, DagShapedDisjunctsMatchOracle) {
  const char* kQueries[] = {
      "exists a b c d: a <= b & b <= c & a < c & c < d & P0(d)"
      " | exists s t: P1(s) & s < t & P2(t)",
      "exists a b c d: P3(a) & a <= b & b <= c & a < c & c < d & P1(d)",
      "exists a b c: a < c & a <= b & b <= c & P2(c)"
      " | exists s t u: P0(s) & s <= t & t < u & s < u & P3(u)",
  };
  for (int seed = 0; seed < 8; ++seed) {
    for (const char* text : kQueries) {
      Instance inst = EvalDeepShapeInstance(seed);
      Result<Query> query = ParseQuery(text, inst.db.vocab);
      ASSERT_TRUE(query.ok());
      Result<NormQuery> nq = NormalizeQuery(query.value());
      ASSERT_TRUE(nq.ok());
      ExpectMatchesOracle(inst.db, nq.value(),
                          std::string(text) + ", seed " +
                              std::to_string(seed));
    }
  }
}

TEST(DisjunctiveMaskGateTest, SixtyFourAndSixtyFivePointsMatchOracle) {
  for (int seed = 0; seed < 4; ++seed) {
    for (int points : {64, 65}) {
      Instance inst = GateInstance(points, seed, 0, 3, 3);
      ExpectMatchesOracle(inst.db, inst.query,
                          std::to_string(points) + " points, seed " +
                              std::to_string(seed));
    }
  }
}

TEST(DisjunctiveMaskGateTest, UntrippedBudgetIsBitIdentical) {
  for (int seed = 0; seed < 8; ++seed) {
    Instance inst = EvalDeepShapeInstance(seed);
    ExecBudget budget;
    budget.SetDeadlineAfterMs(60 * 1000);
    budget.SetStepLimit(1LL << 40);
    EngineContext governed;
    governed.budget = &budget;
    ExpectSameOutcomes(inst.db, inst.query, EngineContext{}, governed,
                       "governed, seed " + std::to_string(seed));
  }
}

TEST(DisjunctiveMaskGateTest, TrippedStepLimitReportsExhausted) {
  for (int seed = 0; seed < 8; ++seed) {
    Instance inst = EvalDeepShapeInstance(seed);
    EngineOutcome full = EntailDisjunctive(inst.db, inst.query);
    ExecBudget budget;
    budget.SetStepLimit(full.states_visited / 2);
    EngineContext context = WantCountermodel();
    context.budget = &budget;
    EngineOutcome cut = EntailDisjunctive(inst.db, inst.query, context);
    const std::string where = "seed " + std::to_string(seed);
    // Steps count states and group candidates, so a limit of half the
    // states trips before the search could finish.
    EXPECT_TRUE(cut.exhausted) << where;
    EXPECT_LT(cut.states_visited, full.states_visited) << where;
    EXPECT_FALSE(cut.countermodel.has_value()) << where;
  }
}

class LargeInstanceTest : public ::testing::TestWithParam<int> {};

TEST_P(LargeInstanceTest, BoundedWidthCounterPathMatchesOracle) {
  Instance inst = LargeConjunctiveInstance(GetParam());
  ASSERT_GT(inst.db.num_points(), 64);
  const NormConjunct& conjunct = inst.query.disjuncts[0];
  oracle::ExpectSameOutcome(
      EntailBoundedWidth(inst.db, conjunct, WantCountermodel()),
      oracle::EntailBoundedWidthFromDag(inst.db, conjunct, WantCountermodel()),
      "seed " + std::to_string(GetParam()));
}

TEST_P(LargeInstanceTest, DisjunctiveIntervalPathMatchesOracle) {
  Instance inst = LargeConjunctiveInstance(GetParam() + 500);
  ASSERT_GT(inst.db.num_points(), 64);
  ExpectMatchesOracle(inst.db, inst.query,
                      "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LargeInstanceTest, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Cross-revision context reuse: an append that extends the dag at its
// tail grows the previous revision's index (no rebuild); a divergent
// re-normalization falls back to a fresh build. Either way the answers
// match the closure oracle.
// ---------------------------------------------------------------------------

void ExpectContextMatchesClosure(const NormDb& db,
                                 const EnumerationContext& ctx) {
  const EnumerationContext closure = oracle::ClosureContext(db);
  for (int u = 0; u < db.num_points(); ++u) {
    for (int v = 0; v < db.num_points(); ++v) {
      EXPECT_EQ(ctx.Reaches(u, v), closure.Reaches(u, v))
          << "u=" << u << " v=" << v;
    }
  }
}

TEST(SharedContextReuseTest, SmallDagDerivesMasksFromClosure) {
  // At mask width (<= 64 points) the context skips the index entirely:
  // the dense closure is the cheaper build and the word masks answer
  // every probe. One build is still reported through index_rebuilds().
  auto vocab = std::make_shared<Vocabulary>();
  Database db(vocab);
  for (int i = 0; i + 1 < 6; ++i) {
    db.AddOrder("a" + std::to_string(i),
                i % 2 == 0 ? OrderRel::kLt : OrderRel::kLe,
                "a" + std::to_string(i + 1));
  }
  Result<const NormDb*> view = db.NormView();
  ASSERT_TRUE(view.ok());
  auto ctx = SharedEnumerationContext(*view.value());
  EXPECT_EQ(ctx->index, nullptr);
  EXPECT_TRUE(ctx->has_masks);
  EXPECT_EQ(ctx->index_rebuilds(), 1);
  ExpectContextMatchesClosure(*view.value(), *ctx);
}

// A 66-point chain a0 < a1 <= a2 < ... — just past mask width, so the
// context runs on the interval-list index and the cross-revision reuse
// machinery engages.
Database LongChainDb(std::shared_ptr<Vocabulary> vocab, int n) {
  Database db(std::move(vocab));
  for (int i = 0; i + 1 < n; ++i) {
    db.AddOrder("a" + std::to_string(i),
                i % 2 == 0 ? OrderRel::kLt : OrderRel::kLe,
                "a" + std::to_string(i + 1));
  }
  return db;
}

TEST(SharedContextReuseTest, TailAppendGrowsPreviousIndex) {
  auto vocab = std::make_shared<Vocabulary>();
  Database db = LongChainDb(vocab, 66);
  Result<const NormDb*> view1 = db.NormView();
  ASSERT_TRUE(view1.ok());
  auto ctx1 = SharedEnumerationContext(*view1.value());
  ASSERT_NE(ctx1->index, nullptr);
  EXPECT_EQ(ctx1->index->rebuilds(), 1);

  // Tail append: new points, edges lexicographically after the old ones.
  db.AddOrder("a65", OrderRel::kLt, "b0");
  db.AddOrder("b0", OrderRel::kLe, "b1");
  Result<const NormDb*> view2 = db.NormView();
  ASSERT_TRUE(view2.ok());
  auto ctx2 = SharedEnumerationContext(*view2.value());
  ASSERT_NE(ctx2->index, nullptr);
  EXPECT_EQ(ctx2->index->rebuilds(), 1) << "append should not rebuild";
  EXPECT_EQ(ctx2->index->delta_edges(), 2u);
  ExpectContextMatchesClosure(*view2.value(), *ctx2);
  // The memoized slot now holds the grown context.
  EXPECT_EQ(SharedEnumerationContext(*view2.value()).get(), ctx2.get());
}

TEST(SharedContextReuseTest, DivergentRenormalizationRebuilds) {
  auto vocab = std::make_shared<Vocabulary>();
  Database db = LongChainDb(vocab, 66);
  db.AddOrder("m1", OrderRel::kLt, "a0");
  db.AddOrder("m2", OrderRel::kLt, "a0");
  Result<const NormDb*> view1 = db.NormView();
  ASSERT_TRUE(view1.ok());
  auto ctx1 = SharedEnumerationContext(*view1.value());
  ASSERT_NE(ctx1->index, nullptr);
  const int points1 = view1.value()->num_points();

  // Merging m1 and m2 (m1 <= m2 <= m1) renumbers points: the old edge
  // log is no longer a prefix, so the context is rebuilt from scratch.
  db.AddOrder("m1", OrderRel::kLe, "m2");
  db.AddOrder("m2", OrderRel::kLe, "m1");
  Result<const NormDb*> view2 = db.NormView();
  ASSERT_TRUE(view2.ok());
  auto ctx2 = SharedEnumerationContext(*view2.value());
  ASSERT_NE(ctx2->index, nullptr);
  EXPECT_EQ(ctx2->index->rebuilds(), 1);
  EXPECT_EQ(ctx2->index->delta_edges(), 0u);
  EXPECT_EQ(view2.value()->num_points(), points1 - 1);
  ExpectContextMatchesClosure(*view2.value(), *ctx2);
}

}  // namespace
}  // namespace iodb
