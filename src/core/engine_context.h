// The one contract shared by the four entailment engines: brute-force
// minimal-model search (Corollary 2.9), Lemma 4.1 paths + SEQ, the
// Theorem 4.7 bounded-width search and the Theorem 5.3 disjunctive
// search. They decide the same question, db |= Φ, so they take the same
// input (EngineContext) and report the same outcome (EngineOutcome).
// PreparedQuery builds one context on the stack per evaluation; a
// context without a callback allocates nothing.

#ifndef IODB_CORE_ENGINE_CONTEXT_H_
#define IODB_CORE_ENGINE_CONTEXT_H_

#include <functional>
#include <optional>
#include <vector>

#include "core/model.h"
#include "core/model_check.h"
#include "util/budget.h"

namespace iodb {

struct CompiledConjunct;    // core/model_matcher.h
struct EnumerationContext;  // core/minimal_models.h

/// What an engine run may use and what it must report.
struct EngineContext {
  /// Charged once per unit of search work (brute force: per enumeration
  /// push and per complete model; paths: per path; bounded width: per
  /// state; disjunctive: per state and per group candidate). Null is the
  /// zero-overhead ungoverned run. On a trip the outcome reports
  /// `exhausted`; a run that finishes is bit-identical to an ungoverned
  /// one.
  ExecBudget* budget = nullptr;
  /// Materialize a falsifying minimal model into the outcome when the
  /// query is not entailed (with a callback: the first one reported).
  bool want_countermodel = false;
  /// Enumeration mode (brute force and disjunctive): every countermodel
  /// found is reported in search order; return false to stop. Unset, the
  /// search stops at the first countermodel (decision mode).
  std::function<bool(const FiniteModel&)> on_countermodel;
  /// Brute force: plan-memoized matcher schedules, parallel to
  /// query.disjuncts. Null compiles them per run.
  const std::vector<const CompiledConjunct*>* compiled = nullptr;
  /// Bounded width and disjunctive (and the path engine's witness): the
  /// query is already transitively reduced, so skip the per-call
  /// reduction (PreparedQuery memoizes it at Prepare() time).
  bool already_reduced = false;
  /// The order-reachability source. Null (production) uses the memoized
  /// SharedEnumerationContext(db); the differential tests inject a
  /// closure-backed context here to run the oracle.
  const EnumerationContext* order = nullptr;
};

/// The work counters every engine reports (EntailResult carries them
/// too).
struct EngineCounters {
  /// Search states (bounded width, disjunctive) or paths checked (paths).
  long long states_visited = 0;
  /// Complete minimal models reached (brute force).
  long long models_enumerated = 0;
  /// Group push/pop operations of the in-place model builder (brute
  /// force).
  long long groups_pushed = 0;
  long long groups_popped = 0;
  /// Model-check and reachability-probe counters.
  ModelCheckStats check_stats;
};

/// The outcome of any engine.
struct EngineOutcome : EngineCounters {
  bool entailed = true;
  /// The budget tripped before the search finished. In decision mode no
  /// countermodel was found and `entailed` must be ignored; in
  /// enumeration mode the countermodels reported so far are genuine but
  /// incomplete. Counters hold the work done up to the trip.
  bool exhausted = false;
  /// Set when not entailed and `want_countermodel` was requested.
  std::optional<FiniteModel> countermodel;
};

}  // namespace iodb

#endif  // IODB_CORE_ENGINE_CONTEXT_H_
