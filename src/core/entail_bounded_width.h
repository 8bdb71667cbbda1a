// The Theorem 4.7 engine: conjunctive monadic queries over width-k
// databases in O(|D|^{k+1} · |Φ|).
//
// The paper reduces entailment to reachability in a graph of tuples
// (S, u), where S is an antichain of the database dag (here: the minimal
// vertices of the not-yet-sorted up-set) and u is a query vertex. The
// edges mirror the three SEQ cases:
//   (a) some s ∈ S has Φ[u] ⊄ D[s]: delete s (one such edge suffices —
//       Case I of SEQ is an equivalence for any choice of s);
//   (b) all of S satisfies Φ[u] and Φ has an edge u -<- v: delete the
//       minor vertices and advance to v;
//   (c) all of S satisfies Φ[u] and Φ has an edge u -<=- v: advance to v.
// D ⊭ Φ iff a tuple with empty S is reachable from some initial tuple
// (minimal vertices of D, minimal vertex of Φ): the database is exhausted
// while some maximal path of Φ still has an unmatched vertex.
//
// The search is memoized on (S, u); with width k there are O(|D|^k · |Φ|)
// tuples, each processed in O(|D|), giving the paper's bound.

#ifndef IODB_CORE_ENTAIL_BOUNDED_WIDTH_H_
#define IODB_CORE_ENTAIL_BOUNDED_WIDTH_H_

#include "core/database.h"
#include "core/engine_context.h"
#include "core/query.h"

namespace iodb {

/// Decides db |= conjunct for a monadic-order-only conjunct over a
/// database without inequality constraints. Minor/minimal tests run on
/// the database's shared reachability context: single-word masks for at
/// most 64 points, incrementally maintained in-degree counters otherwise
/// (the from-dag search is the oracle in tests/oracle/; all three visit
/// the same states in the same order). Uses the context's budget
/// (charged once per search state; partially explored states are never
/// memoized as failed, so a re-run starts sound), countermodel request
/// (a minimal model reconstructed from the SEQ countermodel construction
/// along the successful reachability path), `already_reduced` and order
/// source. `states_visited` counts search states.
EngineOutcome EntailBoundedWidth(const NormDb& db,
                                 const NormConjunct& conjunct,
                                 const EngineContext& context = {});

}  // namespace iodb

#endif  // IODB_CORE_ENTAIL_BOUNDED_WIDTH_H_
