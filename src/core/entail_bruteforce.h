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
// With `num_threads > 1` (decision mode) the enumeration forest is
// sharded at the root: each first-group subtree is an independent
// enumeration (ForEachMinimalModelFrom) handed to a worker. Verdict and
// countermodel are deterministic (the winning countermodel is the first
// one of the lowest-indexed subtree containing any, i.e. the one the
// serial search reports). So are the enumeration and matcher counters:
// an entailed run merges every subtree, a not-entailed one only the
// subtrees up to the winner (none of them aborted, and the winner's
// stopped where the serial search stops), dropping the partial work of
// subtrees past the winner. The reachability-probe counters of a
// not-entailed run also count the depth-0 probes of every root, which
// the serial search stops short of. A run that exhausts a shared budget
// stays timing-dependent: where each worker stops depends on when the
// others charged.

#ifndef IODB_CORE_ENTAIL_BRUTEFORCE_H_
#define IODB_CORE_ENTAIL_BRUTEFORCE_H_

#include "core/database.h"
#include "core/engine_context.h"
#include "core/query.h"

namespace iodb {

/// Decides db |= query over the finite-model semantics. Uses the
/// context's budget, countermodel request or callback, compiled
/// schedules, num_threads and order source.
EngineOutcome EntailBruteForce(const NormDb& db, const NormQuery& query,
                               const EngineContext& context = {});

}  // namespace iodb

#endif  // IODB_CORE_ENTAIL_BRUTEFORCE_H_
