#include "core/entail_paths.h"

#include "core/entail_bounded_width.h"
#include "core/flexiword.h"
#include "core/seq.h"

namespace iodb {

EngineOutcome EntailByPaths(const NormDb& db, const NormConjunct& conjunct,
                            const EngineContext& context) {
  IODB_CHECK(conjunct.IsMonadicOrderOnly());
  EngineOutcome outcome;
  ForEachPath(conjunct.dag, conjunct.labels, [&](const FlexiWord& path) {
    if (context.budget != nullptr && !context.budget->Charge()) {
      outcome.exhausted = true;
      return false;
    }
    ++outcome.states_visited;
    if (!SeqEntails(db, path)) {
      outcome.entailed = false;
      return false;
    }
    return true;
  });
  if (!outcome.entailed && context.want_countermodel) {
    EngineOutcome witness = EntailBoundedWidth(db, conjunct, context);
    IODB_CHECK(witness.exhausted || !witness.entailed);
    outcome.exhausted = witness.exhausted;
    outcome.countermodel = std::move(witness.countermodel);
  }
  return outcome;
}

}  // namespace iodb
