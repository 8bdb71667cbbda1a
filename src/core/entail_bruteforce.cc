#include "core/entail_bruteforce.h"

#include <atomic>
#include <limits>
#include <utility>

#include "core/minimal_models.h"
#include "core/model_builder.h"
#include "core/model_matcher.h"
#include "util/parallel.h"

namespace iodb {
namespace {

// One incremental enumeration run: serial, optionally restricted to the
// subtree below `prefix` (empty = whole forest), optionally aborting when
// `aborted` fires (cross-worker early exit). `order` is the shared
// read-only enumeration state.
EngineOutcome RunIncremental(const NormDb& db, const NormQuery& query,
                             const EngineContext& context,
                             const EnumerationContext& order,
                             const std::vector<std::vector<int>>& prefix,
                             const std::function<bool()>& aborted) {
  EngineOutcome outcome;
  ModelBuilder builder(db);
  QueryMatcher matcher(query, context.compiled);

  // Push and check the seeded prefix groups.
  for (const std::vector<int>& group : prefix) {
    builder.PushGroup(builder.depth(), group);
    if (matcher.Matches(builder.view(), &builder.index(),
                        &outcome.check_stats)) {
      outcome.groups_pushed = builder.groups_pushed();
      outcome.groups_popped = builder.groups_popped();
      return outcome;  // the whole subtree is satisfied
    }
  }

  ModelVisitor visitor;
  visitor.stats = &outcome.check_stats;
  visitor.on_group = [&](int depth, const std::vector<int>& group) {
    if (aborted != nullptr && aborted()) return false;
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
    if (aborted != nullptr && aborted()) return false;
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
  ForEachMinimalModelFrom(db, order, prefix, visitor);
  outcome.groups_pushed = builder.groups_pushed();
  outcome.groups_popped = builder.groups_popped();
  return outcome;
}

void MergeCounters(EngineOutcome& into, const EngineOutcome& from) {
  into.models_enumerated += from.models_enumerated;
  into.groups_pushed += from.groups_pushed;
  into.groups_popped += from.groups_popped;
  into.check_stats.Accumulate(from.check_stats);
  into.exhausted = into.exhausted || from.exhausted;
}

// Root-sharded parallel search: one task per first-group choice. The
// read-only enumeration state is built before any worker spawns, which
// satisfies the lazy-fill thread contract.
EngineOutcome EntailParallel(const NormDb& db, const NormQuery& query,
                             const EngineContext& context,
                             const EnumerationContext& order) {
  // Collect the first-level groups; each is the root of an independent
  // enumeration subtree. The depth-0 probes are counted once, here (the
  // subtree workers seed past depth 0), so an entailed parallel run
  // reports exactly the serial counter totals.
  std::vector<std::vector<int>> roots;
  ModelCheckStats root_stats;
  ModelVisitor collect;
  collect.stats = &root_stats;
  collect.on_group = [&](int depth, const std::vector<int>& group) {
    IODB_CHECK_EQ(depth, 0);
    roots.push_back(group);
    return false;  // record the root, skip its subtree
  };
  collect.on_model = [](const std::vector<std::vector<int>>&) {
    return true;
  };
  ForEachMinimalModelFrom(db, order, {}, collect);

  if (roots.size() <= 1) {
    // Whole forest in one serial run; drop the collection pass counters
    // (that run re-traverses depth 0 itself).
    return RunIncremental(db, query, context, order, {}, nullptr);
  }

  // Lowest subtree index that produced a countermodel so far. A subtree k
  // aborts only when some i < k already found one — then k's outcome can
  // no longer be the reported countermodel — so the final winner is the
  // first countermodel of the lowest-indexed subtree containing any:
  // exactly what the serial search reports.
  std::atomic<int> found_min{std::numeric_limits<int>::max()};
  std::vector<EngineOutcome> outcomes(roots.size());
  ParallelFor(static_cast<int>(roots.size()), context.num_threads,
              [&](int k) {
                if (found_min.load(std::memory_order_relaxed) < k) {
                  return;  // a lower subtree already holds the verdict
                }
                auto aborted = [&found_min, k]() {
                  return found_min.load(std::memory_order_relaxed) < k;
                };
                outcomes[k] = RunIncremental(db, query, context, order,
                                             {roots[k]}, aborted);
                if (!outcomes[k].entailed) {
                  int seen = found_min.load(std::memory_order_relaxed);
                  while (k < seen &&
                         !found_min.compare_exchange_weak(
                             seen, k, std::memory_order_relaxed)) {
                  }
                }
              });

  // On a not-entailed decision only subtrees 0..winner are merged. None
  // of them was aborted (a subtree aborts only for a lower countermodel)
  // and the winner's stopped at its first countermodel, so the work
  // counters equal the serial search's, which stops there too; the
  // subtrees above the winner did timing-dependent work and are dropped.
  EngineOutcome merged;
  merged.check_stats.Accumulate(root_stats);
  const int winner = found_min.load(std::memory_order_relaxed);
  const size_t merge_end = winner == std::numeric_limits<int>::max()
                               ? outcomes.size()
                               : static_cast<size_t>(winner) + 1;
  for (size_t k = 0; k < merge_end; ++k) {
    MergeCounters(merged, outcomes[k]);
    // The serial search pops the groups subtree k left on the stack when
    // it pushes root k + 1.
    if (k + 1 < merge_end) {
      merged.groups_popped +=
          outcomes[k].groups_pushed - outcomes[k].groups_popped;
    }
  }
  if (winner != std::numeric_limits<int>::max()) {
    merged.entailed = false;
    merged.countermodel = std::move(outcomes[winner].countermodel);
    // A found countermodel is a definite "not entailed" even if the
    // budget tripped in sibling subtrees afterwards.
    merged.exhausted = false;
  }
  return merged;
}

}  // namespace

EngineOutcome EntailBruteForce(const NormDb& db, const NormQuery& query,
                               const EngineContext& context) {
  if (query.trivially_true) return EngineOutcome{};
  if (context.compiled != nullptr) {
    IODB_CHECK_EQ(context.compiled->size(), query.disjuncts.size());
  }
  std::shared_ptr<const EnumerationContext> order =
      EngineOrderContext(db, context.order);
  // Enumeration reports in serial order, so only decisions are sharded.
  if (context.num_threads > 1 && context.on_countermodel == nullptr) {
    return EntailParallel(db, query, context, *order);
  }
  return RunIncremental(db, query, context, *order, {}, nullptr);
}

}  // namespace iodb
