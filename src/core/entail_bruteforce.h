// Brute-force entailment by countermodel search over minimal models.
//
// By Corollary 2.9, D |= Φ iff every minimal model of D satisfies Φ; the
// engine enumerates minimal models and model-checks each. This realizes
// the generic upper bounds of Proposition 3.1 (co-NP data complexity, Π₂ᵖ
// combined complexity) and is the only engine applicable to arbitrary-
// arity queries and to databases carrying "!=" constraints (Section 7).
//
// Monotone prefix pruning: positive existential queries are preserved
// under homomorphisms, and a sort prefix embeds into each of its
// completions, so a branch whose prefix model already satisfies Φ cannot
// produce a countermodel and is cut.
//
// Evaluation is incremental: a ModelBuilder extends/retracts the prefix
// model in place (one group per enumeration edge) with a FactIndex
// maintained alongside, and the query runs through compiled matchers
// (model_matcher.h) so no per-model setup survives. The legacy
// rebuild-per-model search is the differential oracle in tests/oracle/.
//
// With a countermodel callback the engine enumerates: every minimal
// model falsifying Φ is reported, in enumeration order (pruning only
// cuts subtrees that contain no countermodel, so the sequence equals
// the filtered enumeration of all minimal models).
//
// The search is serial: one call is one thread. Evaluation is spread
// across threads one level up, by the service's batch scheduler, which
// runs distinct (plan, database) pairs at once; a decision's verdict,
// countermodel and counters therefore never depend on the worker count.

#ifndef IODB_CORE_ENTAIL_BRUTEFORCE_H_
#define IODB_CORE_ENTAIL_BRUTEFORCE_H_

#include "core/database.h"
#include "core/engine_context.h"
#include "core/query.h"

namespace iodb {

/// Decides db |= query over the finite-model semantics. Uses the
/// context's budget, countermodel request or callback, compiled
/// schedules and order source.
EngineOutcome EntailBruteForce(const NormDb& db, const NormQuery& query,
                               const EngineContext& context = {});

}  // namespace iodb

#endif  // IODB_CORE_ENTAIL_BRUTEFORCE_H_
