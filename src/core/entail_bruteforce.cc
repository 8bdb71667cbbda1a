#include "core/entail_bruteforce.h"

#include "core/minimal_models.h"
#include "core/model_builder.h"
#include "core/model_matcher.h"

namespace iodb {

EngineOutcome EntailBruteForce(const NormDb& db, const NormQuery& query,
                               const EngineContext& context) {
  if (query.trivially_true) return EngineOutcome{};
  if (context.compiled != nullptr) {
    IODB_CHECK_EQ(context.compiled->size(), query.disjuncts.size());
  }
  std::shared_ptr<const EnumerationContext> order =
      EngineOrderContext(db, context.order);
  EngineOutcome outcome;
  ModelBuilder builder(db);
  QueryMatcher matcher(query, context.compiled);

  ModelVisitor visitor;
  visitor.stats = &outcome.check_stats;
  visitor.on_group = [&](int depth, const std::vector<int>& group) {
    if (context.budget != nullptr && !context.budget->Charge()) {
      outcome.exhausted = true;
      return false;
    }
    builder.PushGroup(depth, group);
    // No countermodel below a satisfied prefix.
    return !matcher.Matches(builder.view(), &builder.index(),
                            &outcome.check_stats);
  };
  visitor.on_model = [&](const std::vector<std::vector<int>>& groups) {
    if (context.budget != nullptr && !context.budget->Charge()) {
      outcome.exhausted = true;
      return false;
    }
    ++outcome.models_enumerated;
    // Every level of this sort was checked and found unsatisfied, so the
    // complete model — already materialized and indexed by the builder —
    // is a countermodel.
    builder.PopToDepth(static_cast<int>(groups.size()));
    outcome.entailed = false;
    if (context.on_countermodel == nullptr) {
      if (context.want_countermodel) outcome.countermodel = builder.Snapshot();
      return false;
    }
    FiniteModel model = builder.Snapshot();
    if (context.want_countermodel && !outcome.countermodel.has_value()) {
      outcome.countermodel = model;
    }
    return context.on_countermodel(model);
  };
  ForEachMinimalModelFrom(db, *order, visitor);
  outcome.groups_pushed = builder.groups_pushed();
  outcome.groups_popped = builder.groups_popped();
  return outcome;
}

}  // namespace iodb
