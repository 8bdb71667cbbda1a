// Reference implementations for the differential tests: the
// pre-incremental form of each production path, kept verbatim so the
// engines in src/core can be compared against it. Like the engines, they
// take an EngineContext and return an EngineOutcome.

#ifndef IODB_TESTS_ORACLE_ORACLE_H_
#define IODB_TESTS_ORACLE_ORACLE_H_

#include <functional>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/engine_context.h"
#include "core/minimal_models.h"
#include "core/model.h"
#include "core/query.h"

namespace iodb::oracle {

/// As BuildMinimalModel, but `groups` may cover only a prefix of the
/// points. Facts mentioning unplaced points are omitted; the result is the
/// restriction of any completion to the placed points, which embeds
/// homomorphically into that completion (used for monotone pruning).
FiniteModel BuildPrefixModel(const NormDb& db,
                             const std::vector<std::vector<int>>& groups);

/// Brute force with monotone prefix pruning that rebuilds the prefix
/// model per group append (BuildPrefixModel) and runs the generic
/// checker. Uses the context's budget and countermodel request.
EngineOutcome EntailRebuildPerModel(const NormDb& db, const NormQuery& query,
                                    const EngineContext& context = {});

/// Reports, in enumeration order, every minimal model of `db` that does
/// not satisfy `query` (no disjuncts: FALSE), with no pruning — the
/// countermodel enumeration PreparedQuery ran for n-ary and FALSE queries
/// before it used the brute-force engine. `on_countermodel` returns false
/// to stop.
void FilteredCountermodels(
    const NormDb& db, const NormQuery& query,
    const std::function<bool(const FiniteModel&)>& on_countermodel);

/// The Theorem 4.7 search recomputing the region and its minimal/minor
/// vertices from the dag at every state. Same states and order as the
/// production engine; reports no probe counters.
EngineOutcome EntailBoundedWidthFromDag(const NormDb& db,
                                        const NormConjunct& conjunct,
                                        const EngineContext& context = {});

/// An enumeration context backed by the legacy O(n²) bit-matrix closure
/// alone (no masks, no index). Injected as EngineContext::order it sends
/// the Theorem 5.3 engine down its general search: the disjunctive
/// oracle.
EnumerationContext ClosureContext(const NormDb& db);

/// Expects two outcomes to agree on the verdict, exhaustion, states,
/// models and countermodel (gtest assertions, tagged with `where`).
void ExpectSameOutcome(const EngineOutcome& actual,
                       const EngineOutcome& expected,
                       const std::string& where);

}  // namespace iodb::oracle

#endif  // IODB_TESTS_ORACLE_ORACLE_H_
