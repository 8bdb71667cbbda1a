// The Theorem 5.3 engine: disjunctive monadic queries over width-k
// databases in O(|D|^{2k} · |Pred| · Π|Φᵢ|), with countermodel
// enumeration.
//
// The engine searches for a countermodel by building a topological sort of
// the database point by point while running, for every disjunct Φᵢ, a
// nondeterministically chosen maximal path of Φᵢ through a *forced greedy*
// matcher:
//   * the state per disjunct is the next unmatched vertex uᵢ of the chosen
//     path (the path itself is chosen lazily, one successor at a time);
//   * when a new point with label set `a` is appended, the matcher must
//     advance uᵢ as long as Φᵢ[uᵢ] ⊆ a (greedy leftmost matching is
//     complete for sequential patterns, so refusing to advance would
//     wrongly report a satisfied path as falsified); a "<=" successor may
//     continue matching at the same point, a "<" successor stops;
//   * a path whose final vertex gets matched is satisfied — that branch
//     dies (by Lemma 4.1, a model falsifies Φᵢ iff it falsifies SOME
//     maximal path of Φᵢ; the search tries the other paths on other
//     branches).
// A completed sort in which every disjunct still has a pending vertex is a
// countermodel. Failure states are memoized, so deciding entailment stays
// within the paper's bound and enumeration has (amortized) polynomial
// delay between outputs, mirroring the paper's remark after Theorem 5.3.
//
// The sorting step itself (which groups of unsorted points may form the
// next point, S1/S2 plus the Section 7 "!=" rule) is not this engine's:
// it comes from core/minimal_models.h, the same code minimal-model
// enumeration runs. The engine adds the path positions, their advance
// sets, the product over disjuncts, the failed-state memo and
// countermodel reporting.
//
// Production runs on the database's shared reachability context. The
// search itself takes one of two forms with the same state space, group
// order and countermodel sequence: a word-mask form (ForEachGroupMask)
// when the database has at most 64 points, the query at most 5
// disjuncts, every label predicate id is below 64 and every disjunct has
// at most 64 order variables (regions, groups, labels and path-position
// marks are single machine words, and the loop allocates only to memoize
// failed states); otherwise the general form (GroupChooser) with
// per-pair probes (interval probes past 64 points). The differential
// tests run the general form on an injected closure-backed context as
// the oracle (tests/oracle/).

#ifndef IODB_CORE_ENTAIL_DISJUNCTIVE_H_
#define IODB_CORE_ENTAIL_DISJUNCTIVE_H_

#include "core/database.h"
#include "core/engine_context.h"
#include "core/query.h"

namespace iodb {

/// Decides db |= query for a monadic-order-only query (every disjunct).
/// Databases MAY carry "!=" constraints: per the Section 7 remark, the
/// sorting procedure is modified so that a group never identifies two
/// points declared unequal, preserving the O(|D|^{2k}·|Φ|^l) bound for
/// monadic [<,<=]-queries over [<,<=,!=]-databases of width k.
///
/// Uses the context's budget (charged once per search state and once per
/// group the sorting step offers; partially explored states are never
/// memoized as failed), countermodel request, callback, `already_reduced`
/// and order source. With a callback every countermodel found is reported; the
/// same model may be reported more than once, reached through different
/// path choices (the paper's enumeration has the same redundancy).
/// `states_visited` counts search states.
EngineOutcome EntailDisjunctive(const NormDb& db, const NormQuery& query,
                                const EngineContext& context = {});

}  // namespace iodb

#endif  // IODB_CORE_ENTAIL_DISJUNCTIVE_H_
