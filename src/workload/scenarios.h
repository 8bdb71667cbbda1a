// The paper's worked scenarios as reusable fixtures.
//
// Espionage (Example 1.1): the security-compound investigation. The
// guard's log and agent A's testimony underdetermine the time line; the
// intended conclusion is that *someone* entered the compound twice, while
// neither agent can be individually charged.
//
// Scheduling (nonlinear planning, Section 1): a partially ordered plan
// whose linearizations are the possible executions; countermodel
// enumeration lists the executions avoiding a forbidden pattern.

#ifndef IODB_WORKLOAD_SCENARIOS_H_
#define IODB_WORKLOAD_SCENARIOS_H_

#include "core/database.h"
#include "core/prepare.h"
#include "core/query.h"
#include "util/random.h"

namespace iodb {

/// The Example 1.1 fixture.
struct EspionageScenario {
  VocabularyPtr vocab;
  Database db;        // guard's log + agent A's testimony
  Query integrity;    // Ψ: overlapping-but-distinct interval violation
  Query twice_a;      // Ψ ∨ Φ(A)
  Query twice_b;      // Ψ ∨ Φ(B)
  Query twice_either; // Ψ ∨ Φ(A) ∨ Φ(B)
  Query twice_someone;// Ψ ∨ ∃x Φ(x)

  /// Expected verdicts under the RATIONAL order semantics (time is dense;
  /// the integrity constraint's in-between point w makes the queries
  /// nontight, so the semantics matters): twice_either and twice_someone
  /// are entailed; twice_a and twice_b are not. Verified in tests.
};
EspionageScenario MakeEspionageScenario();

/// The five scenario queries compiled once under the rational semantics
/// (time is dense in Example 1.1). This is the repeated-evaluation
/// fixture: every question against the evolving evidence reuses a plan.
struct EspionagePlans {
  PreparedQuery integrity;
  PreparedQuery twice_a;
  PreparedQuery twice_b;
  PreparedQuery twice_either;
  PreparedQuery twice_someone;
};
EspionagePlans PrepareEspionagePlans(const EspionageScenario& scenario);

/// A partially ordered plan: `num_workers` chains of `tasks_per_worker`
/// steps, each step labelled with one of the monadic step-kind predicates
/// Acquire / Compute / Release.
struct SchedulingScenario {
  VocabularyPtr vocab;
  Database db;
  /// Forbidden execution pattern: some Release strictly before some
  /// Acquire of the same... (monadic abstraction: ∃t1t2 [Release(t1) ∧
  /// t1 < t2 ∧ Acquire(t2)]). Valid schedules are the countermodels.
  Query forbidden;
};
SchedulingScenario MakeSchedulingScenario(int num_workers,
                                          int tasks_per_worker, Rng& rng);

/// As above, but interning the step-kind predicates into a caller-provided
/// vocabulary, so a fleet of scenario databases can share one compiled
/// plan (one PreparedQuery evaluated against each).
SchedulingScenario MakeSchedulingScenario(int num_workers,
                                          int tasks_per_worker, Rng& rng,
                                          VocabularyPtr vocab);

/// The forbidden-pattern query of `scenario`, compiled once (finite
/// semantics). Valid-schedule enumeration and repeated what-if checks
/// against plan variants all evaluate this one plan.
PreparedQuery PrepareForbiddenPlan(const SchedulingScenario& scenario);

}  // namespace iodb

#endif  // IODB_WORKLOAD_SCENARIOS_H_
