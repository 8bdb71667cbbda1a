// Nonlinear planning (Section 1): a partially ordered plan's possible
// executions are the compatible linear orders. The Theorem 5.3 engine
// does double duty: it decides whether a forbidden pattern occurs in
// EVERY execution, and (as a countermodel enumerator) lists the valid
// schedules with polynomial delay.

#include <cstdio>
#include <set>
#include <string>

#include "core/entail_disjunctive.h"
#include "core/printer.h"
#include "workload/scenarios.h"

int main() {
  using namespace iodb;

  Rng rng(2026);
  SchedulingScenario scenario = MakeSchedulingScenario(
      /*num_workers=*/2, /*tasks_per_worker=*/3, rng);

  std::printf("The partially ordered plan:\n%s\n",
              ToString(scenario.db).c_str());
  std::printf("Forbidden pattern: %s\n\n",
              ToString(scenario.forbidden).c_str());

  Result<NormDb> db = Normalize(scenario.db);
  Result<NormQuery> forbidden = NormalizeQuery(scenario.forbidden);
  IODB_CHECK(db.ok());
  IODB_CHECK(forbidden.ok());

  // Decide: does every execution hit the forbidden pattern?
  EngineOutcome verdict = EntailDisjunctive(db.value(), forbidden.value());
  if (verdict.entailed) {
    std::printf("Every execution violates the constraint: replan needed.\n");
    return 0;
  }

  // Enumerate the valid schedules (countermodels of the pattern).
  std::printf("Valid schedules (first 10 shown):\n");
  long long shown = 0;
  std::set<std::string> seen;  // the enumeration may revisit a schedule
  EngineContext context;
  context.on_countermodel = [&](const FiniteModel& model) {
    std::string rendered = model.ToString();
    if (seen.insert(rendered).second) {
      std::printf("  %2lld. %s\n", ++shown, rendered.c_str());
    }
    return shown < 10;
  };
  EntailDisjunctive(db.value(), forbidden.value(), context);
  std::printf("\n(Each line is one linearization of the plan in which no\n"
              "Release precedes an Acquire.)\n");
  return 0;
}
