// Path-decomposition engine for conjunctive monadic queries (Lemma 4.1).
//
// D |= Φ iff D |= p for every maximal path p of Φ, so entailment reduces
// to |Paths(Φ)| runs of SEQ. The number of paths can grow exponentially in
// |Φ| (which is why combined complexity is co-NP-hard, Theorem 4.6), but
// for a fixed query it is a constant: this engine realizes the linear-time
// data complexity of Corollary 4.4.

#ifndef IODB_CORE_ENTAIL_PATHS_H_
#define IODB_CORE_ENTAIL_PATHS_H_

#include "core/database.h"
#include "core/engine_context.h"
#include "core/query.h"

namespace iodb {

/// Decides db |= conjunct for a monadic-order-only conjunct. Paths are
/// enumerated lazily and the engine stops at the first failing path;
/// `states_visited` counts the paths checked and the budget is charged
/// once per path. SEQ proves non-entailment without a witness, so a
/// requested countermodel comes from the Theorem 4.7 engine, run on the
/// same context (and budget) after the failing path.
EngineOutcome EntailByPaths(const NormDb& db, const NormConjunct& conjunct,
                            const EngineContext& context = {});

}  // namespace iodb

#endif  // IODB_CORE_ENTAIL_PATHS_H_
