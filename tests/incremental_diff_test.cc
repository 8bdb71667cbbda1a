// Differential tests for the incremental evaluation core.
//
// The incremental engines (ModelBuilder + FactIndex + compiled matchers,
// and the count-maintaining enumerator) must be observationally identical
// to the legacy rebuild-per-model path, kept as the reference oracle in
// tests/oracle/: same verdicts, same enumeration order, same work
// counters where the semantics pin them, and bit-identical countermodels.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/entail_bruteforce.h"
#include "core/minimal_models.h"
#include "core/model.h"
#include "core/model_builder.h"
#include "core/model_check.h"
#include "core/model_matcher.h"
#include "graph/topo.h"
#include "oracle/oracle.h"
#include "util/random.h"
#include "workload/generators.h"

namespace iodb {
namespace {

// ---------------------------------------------------------------------------
// Reference enumerator: a literal transcription of the pre-incremental
// algorithm (recompute minor vertices per node via MinorVertices). Used to
// pin the new enumerator's visit order exactly.

struct ReferenceEnumerator {
  const NormDb& db;
  const ModelVisitor& visitor;
  Reachability reach;
  std::vector<bool> alive;
  int alive_count;
  std::vector<std::vector<int>> groups;

  ReferenceEnumerator(const NormDb& d, const ModelVisitor& v)
      : db(d),
        visitor(v),
        reach(ComputeReachability(d.dag)),
        alive(d.num_points(), true),
        alive_count(d.num_points()) {}

  bool Comparable(int u, int v) const {
    return reach.reach.Get(u, v) || reach.reach.Get(v, u);
  }

  bool Recurse() {
    if (alive_count == 0) {
      return visitor.on_model == nullptr || visitor.on_model(groups);
    }
    std::vector<bool> minor = MinorVertices(db.dag, alive);
    std::vector<int> candidates;
    for (int v = 0; v < db.num_points(); ++v) {
      if (alive[v] && minor[v]) candidates.push_back(v);
    }
    std::vector<int> chosen;
    return EnumerateAntichains(candidates, 0, chosen);
  }

  bool EnumerateAntichains(const std::vector<int>& candidates, size_t next,
                           std::vector<int>& chosen) {
    for (size_t i = next; i < candidates.size(); ++i) {
      int v = candidates[i];
      bool independent = true;
      for (int u : chosen) {
        if (Comparable(u, v)) {
          independent = false;
          break;
        }
      }
      if (!independent) continue;
      chosen.push_back(v);
      std::vector<int> group;
      for (int m : candidates) {
        for (int a : chosen) {
          if (reach.reach.Get(m, a)) {
            group.push_back(m);
            break;
          }
        }
      }
      bool group_ok = true;
      for (const auto& [u, w] : db.inequalities) {
        bool has_u = false, has_w = false;
        for (int g : group) {
          has_u = has_u || g == u;
          has_w = has_w || g == w;
        }
        if (has_u && has_w) {
          group_ok = false;
          break;
        }
      }
      if (group_ok &&
          (visitor.on_group == nullptr ||
           visitor.on_group(static_cast<int>(groups.size()), group))) {
        for (int g : group) alive[g] = false;
        alive_count -= static_cast<int>(group.size());
        groups.push_back(group);
        bool keep_going = Recurse();
        groups.pop_back();
        for (int g : group) alive[g] = true;
        alive_count += static_cast<int>(group.size());
        if (!keep_going) return false;
      }
      if (!EnumerateAntichains(candidates, i + 1, chosen)) return false;
      chosen.pop_back();
    }
    return true;
  }
};

std::vector<std::string> EnumerationTrace(const NormDb& db,
                                          bool reference) {
  std::vector<std::string> trace;
  ModelVisitor visitor;
  visitor.on_group = [&](int depth, const std::vector<int>& group) {
    std::string line = "g" + std::to_string(depth) + ":";
    for (int g : group) line += " " + std::to_string(g);
    trace.push_back(line);
    return true;
  };
  visitor.on_model = [&](const std::vector<std::vector<int>>& groups) {
    trace.push_back("model: " + BuildMinimalModel(db, groups).ToString());
    return true;
  };
  if (reference) {
    ReferenceEnumerator e(db, visitor);
    e.Recurse();
  } else {
    ForEachMinimalModel(db, visitor);
  }
  return trace;
}

NormDb MustNormalize(const Database& db) {
  Result<NormDb> norm = Normalize(db);
  IODB_CHECK(norm.ok());
  return std::move(norm.value());
}

// A corpus entry: a random monadic database, optionally decorated with
// inequalities and n-ary facts so every engine feature is exercised.
Database RandomCorpusDb(uint64_t seed, VocabularyPtr vocab) {
  Rng rng(seed);
  MonadicDbParams params;
  params.num_chains = rng.UniformInt(1, 3);
  params.chain_length = rng.UniformInt(1, 3);
  params.num_predicates = rng.UniformInt(1, 3);
  params.label_probability = 0.6;
  params.le_probability = 0.4;
  Database db = RandomMonadicDb(params, vocab, rng);
  // Sprinkle inequalities between random order constants.
  const int points = db.num_order_constants();
  if (points >= 2 && rng.Bernoulli(0.5)) {
    for (int k = 0; k < 2; ++k) {
      int u = rng.UniformInt(0, points - 1);
      int v = rng.UniformInt(0, points - 1);
      if (u != v) db.AddInequality(u, v);
    }
  }
  // A binary predicate mixing order and object sorts, plus ground object
  // facts, so the fact index and the object/order machinery engage
  // ("c0_0" is the first chain point RandomMonadicDb interned).
  if (rng.Bernoulli(0.6)) {
    IODB_CHECK(db.AddFact("Owns", {"alice", "c0_0"}).ok());
    if (rng.Bernoulli(0.5)) {
      IODB_CHECK(db.AddFact("Knows", {"alice", "bob"}).ok());
    }
  }
  return db;
}

Query RandomCorpusQuery(uint64_t seed, VocabularyPtr vocab) {
  Rng rng(seed);
  const int num_preds = 2;
  if (rng.Bernoulli(0.5)) {
    return RandomDisjunctiveSequentialQuery(rng.UniformInt(1, 2),
                                            rng.UniformInt(1, 3), num_preds,
                                            0.5, 0.4, vocab, rng);
  }
  Query query = RandomConjunctiveMonadicQuery(rng.UniformInt(1, 3), num_preds,
                                              0.4, 0.5, 0.4, vocab, rng);
  if (rng.Bernoulli(0.4)) {
    // Add an object atom to one disjunct so the query leaves the monadic
    // fragment and the matcher's object/fact machinery runs.
    Query mixed(vocab);
    QueryConjunct conjunct = query.disjuncts()[0];
    conjunct.Exists("x").Atom("Owns", {"x", conjunct.variables[0]});
    mixed.AddDisjunct(conjunct);
    return mixed;
  }
  return query;
}

TEST(IncrementalEnumeratorTest, TraceMatchesReferenceOnRandomCorpus) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    auto vocab = std::make_shared<Vocabulary>();
    Database db = RandomCorpusDb(seed, vocab);
    NormDb norm = MustNormalize(db);
    EXPECT_EQ(EnumerationTrace(norm, /*reference=*/true),
              EnumerationTrace(norm, /*reference=*/false))
        << "seed " << seed;
  }
}

// The sorting step's two forms (core/minimal_models.h) must offer the
// same groups in the same order at every region: the mask form on the
// production context against the general form on the oracle's closure.
// Walks the regions depth-first from the full database, descending into
// every group, until `regions` runs out.
void ExpectSameGroupChoice(const EnumerationContext& masks,
                           GroupChooser& chooser, uint64_t alive,
                           int& regions, const std::string& where) {
  if (alive == 0 || regions-- <= 0) return;
  ReachProbeStats stats;
  std::vector<uint64_t> mask_groups;
  ForEachGroupMask(masks, alive, stats, [&](uint64_t group) {
    mask_groups.push_back(group);
    return true;
  });
  auto word = [](const std::vector<int>& group) {
    uint64_t bits = 0;
    for (int v : group) bits |= uint64_t{1} << v;
    return bits;
  };
  std::vector<uint64_t> general_groups;
  chooser.ForEachGroup([&](const std::vector<int>& group) {
    general_groups.push_back(word(group));
    return true;
  });
  ASSERT_EQ(mask_groups, general_groups) << where;
  chooser.ForEachGroup([&](const std::vector<int>& group) {
    const uint64_t bits = word(group);
    chooser.Remove(group);
    ExpectSameGroupChoice(masks, chooser, alive & ~bits, regions, where);
    chooser.Restore(group);
    return regions > 0;
  });
}

TEST(IncrementalEnumeratorTest, GroupChoiceFormsAgreeAtEveryRegion) {
  int with_inequalities = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    auto vocab = std::make_shared<Vocabulary>();
    Rng rng(seed + 9100);
    MonadicDbParams params;
    params.num_chains = rng.UniformInt(1, 4);
    params.chain_length = rng.UniformInt(2, 64 / params.num_chains);
    params.num_predicates = 2;
    params.le_probability = rng.UniformInt(0, 60) / 100.0;
    Database db = RandomMonadicDb(params, vocab, rng);
    const int points = db.num_order_constants();
    if (seed % 2 == 1) {
      for (int k = rng.UniformInt(1, 4); k > 0; --k) {
        int u = rng.UniformInt(0, points - 1);
        int v = rng.UniformInt(0, points - 1);
        if (u != v) db.AddInequality(u, v);
      }
    }
    NormDb norm = MustNormalize(db);
    if (!norm.inequalities.empty()) ++with_inequalities;
    std::shared_ptr<const EnumerationContext> masks =
        SharedEnumerationContext(norm);
    ASSERT_TRUE(masks->has_masks) << "seed " << seed;
    const EnumerationContext closure = oracle::ClosureContext(norm);
    ReachProbeStats stats;
    GroupChooser chooser(norm, closure, stats);
    const uint64_t all = norm.num_points() == 64
                             ? ~uint64_t{0}
                             : (uint64_t{1} << norm.num_points()) - 1;
    int regions = 400;
    ExpectSameGroupChoice(*masks, chooser, all, regions,
                          "seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(with_inequalities, 10);
}

TEST(ModelBuilderTest, SnapshotMatchesBuildPrefixModelAtEveryNode) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    auto vocab = std::make_shared<Vocabulary>();
    Database db = RandomCorpusDb(seed, vocab);
    NormDb norm = MustNormalize(db);
    ModelBuilder builder(norm);
    std::vector<std::vector<int>> prefix;
    long long checked = 0;
    ModelVisitor visitor;
    visitor.on_group = [&](int depth, const std::vector<int>& group) {
      prefix.resize(depth);
      prefix.push_back(group);
      builder.PushGroup(depth, group);
      EXPECT_EQ(builder.Snapshot().ToString(),
                oracle::BuildPrefixModel(norm, prefix).ToString());
      return ++checked < 200;  // bound the walk; prefixes vary enough
    };
    visitor.on_model = [&](const std::vector<std::vector<int>>& groups) {
      builder.PopToDepth(static_cast<int>(groups.size()));
      EXPECT_EQ(builder.Snapshot().ToString(),
                BuildMinimalModel(norm, groups).ToString());
      return true;
    };
    ForEachMinimalModel(norm, visitor);
  }
}

TEST(CompiledMatcherTest, AgreesWithGenericSatisfiesOnEveryMinimalModel) {
  long long models_checked = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    auto vocab = std::make_shared<Vocabulary>();
    Database db = RandomCorpusDb(seed, vocab);
    Query query = RandomCorpusQuery(seed + 1000, vocab);
    Result<NormQuery> norm_query = NormalizeQuery(query);
    if (!norm_query.ok()) continue;  // query may use unseen predicates
    NormDb norm = MustNormalize(db);
    QueryMatcher matcher(norm_query.value());
    ModelVisitor visitor;
    visitor.on_model = [&](const std::vector<std::vector<int>>& groups) {
      FiniteModel model = BuildMinimalModel(norm, groups);
      FactIndex index = FactIndex::FromModel(model);
      const bool reference = Satisfies(model, norm_query.value());
      EXPECT_EQ(matcher.Matches(model, &index), reference)
          << "seed " << seed << " model " << model.ToString();
      EXPECT_EQ(matcher.Matches(model, nullptr), reference)
          << "seed " << seed << " (no index) model " << model.ToString();
      ++models_checked;
      return true;
    };
    ForEachMinimalModel(norm, visitor);
  }
  EXPECT_GT(models_checked, 100);  // the corpus actually exercised us
}

TEST(IncrementalBruteForceTest, MatchesRebuildPathOnRandomCorpus) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    auto vocab = std::make_shared<Vocabulary>();
    Database db = RandomCorpusDb(seed, vocab);
    Query query = RandomCorpusQuery(seed + 500, vocab);
    Result<NormQuery> norm_query = NormalizeQuery(query);
    if (!norm_query.ok()) continue;
    NormDb norm = MustNormalize(db);

    EngineContext context;
    context.want_countermodel = true;
    oracle::ExpectSameOutcome(
        EntailBruteForce(norm, norm_query.value(), context),
        oracle::EntailRebuildPerModel(norm, norm_query.value(), context),
        "seed " + std::to_string(seed));
  }
}

// A query that leaves the monadic fragment — so EnumerateCountermodels
// routes it through the brute-force engine — or, on every third seed,
// one whose only disjunct is an object atom no database fact matches:
// the object split drops it and the plan reduces to FALSE.
Query NaryOrFalseQuery(uint64_t seed, VocabularyPtr vocab) {
  if (seed % 3 == 2) {
    Query query(vocab);
    query.AddDisjunct(QueryConjunct().Exists("x").Atom("Knows", {"x", "x"}));
    return query;
  }
  Rng rng(seed);
  Query monadic = RandomConjunctiveMonadicQuery(
      rng.UniformInt(1, 3), 2, 0.4, 0.5, 0.4, vocab, rng);
  Query query(vocab);
  QueryConjunct conjunct = monadic.disjuncts()[0];
  conjunct.Exists("x").Atom("Owns", {"x", conjunct.variables[0]});
  query.AddDisjunct(conjunct);
  return query;
}

// EnumerateCountermodels on n-ary and FALSE queries runs the pruning
// brute-force engine; it must report exactly the oracle's filtered
// enumeration: every minimal model, no pruning, in enumeration order.
TEST(CountermodelEnumerationTest, NaryAndFalseQueriesMatchFilteredOracle) {
  long long countermodels = 0;
  long long satisfying = 0;  // models whose subtrees pruning may cut
  for (uint64_t seed = 0; seed < 48; ++seed) {
    auto vocab = std::make_shared<Vocabulary>();
    vocab->MustAddPredicate("Owns", {Sort::kObject, Sort::kOrder});
    vocab->MustAddPredicate("Knows", {Sort::kObject, Sort::kObject});
    Database db = RandomCorpusDb(seed, vocab);
    Query query = NaryOrFalseQuery(seed + 700, vocab);
    std::vector<std::string> actual;
    std::vector<std::string> expected;
    auto collect = [](std::vector<std::string>& into) {
      return [&into](const FiniteModel& model) {
        into.push_back(model.ToString());
        return true;
      };
    };
    Result<long long> reported =
        EnumerateCountermodels(db, query, collect(actual));
    ASSERT_TRUE(reported.ok()) << reported.status().ToString();
    EXPECT_EQ(reported.value(), static_cast<long long>(actual.size()));
    Result<NormQuery> norm_query = NormalizeQuery(query);
    ASSERT_TRUE(norm_query.ok()) << norm_query.status().ToString();
    NormDb norm = MustNormalize(db);
    oracle::FilteredCountermodels(norm, norm_query.value(), collect(expected));
    EXPECT_EQ(actual, expected) << "seed " << seed;
    countermodels += static_cast<long long>(expected.size());
    satisfying += CountMinimalModels(norm) -
                  static_cast<long long>(expected.size());
  }
  EXPECT_GT(countermodels, 1000);  // the corpus actually exercised us
  EXPECT_GT(satisfying, 1000);
}

}  // namespace
}  // namespace iodb
