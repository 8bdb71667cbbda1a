// ModelBuilder: incremental prefix-model maintenance for the enumeration
// engines.
//
// The minimal-model enumerators visit a tree of group appends; the old
// evaluation path (now the oracle in tests/oracle/) rebuilt a FiniteModel
// from scratch at every node (BuildPrefixModel, O(prefix) per node).
// ModelBuilder instead maintains ONE model in place under push/pop of a
// single group:
//
//   * point labels are dense PredSet bitsets keyed by point, refilled in
//     place (no allocation in steady state);
//   * non-monadic facts become "placed" exactly when their last order
//     term is pushed — tracked by a per-fact unplaced-occurrence counter
//     seeded from a db-point -> fact adjacency built once;
//   * a FactIndex (predicate-bucketed flat fact vectors + transposed
//     label bitsets) is maintained in lockstep, so Satisfies() probes
//     never re-hash the model's facts.
//
// view() is a valid FiniteModel at every depth (point names left empty,
// facts in placement order); Snapshot() materializes a full countermodel
// bit-identical to BuildMinimalModel's output (names filled, facts in
// database order).

#ifndef IODB_CORE_MODEL_BUILDER_H_
#define IODB_CORE_MODEL_BUILDER_H_

#include <vector>

#include "core/database.h"
#include "core/fact_index.h"
#include "core/model.h"

namespace iodb {

class ModelBuilder {
 public:
  explicit ModelBuilder(const NormDb& db);

  /// Pops to `depth`, then appends the database points of `group` as model
  /// point `depth`. Cost: O(|group| + facts completed), independent of the
  /// prefix length.
  void PushGroup(int depth, const std::vector<int>& group);

  /// Retracts groups until only `depth` points remain.
  void PopToDepth(int depth);

  int depth() const { return static_cast<int>(levels_.size()); }

  /// The current prefix model. Valid for model checking at every depth;
  /// point_names are left empty and other_facts are in placement order
  /// (use Snapshot() for a display/comparison-grade model).
  const FiniteModel& view() const { return model_; }

  /// The fact index maintained alongside the model.
  const FactIndex& index() const { return index_; }

  /// Materializes the current (complete or prefix) model with point names
  /// and facts in database order — identical to BuildMinimalModel (and
  /// the oracle's BuildPrefixModel) on the same groups.
  FiniteModel Snapshot() const;

  /// Incremental work counters (surfaced through engine stats).
  long long groups_pushed() const { return pushed_; }
  long long groups_popped() const { return popped_; }

 private:
  const NormDb* db_;
  FiniteModel model_;
  FactIndex index_;
  std::vector<int> model_point_;  // db point -> model point or -1
  // db point -> indices into db->other_atoms, one entry per order-term
  // occurrence of that point (flat CSR).
  std::vector<int> atoms_of_point_;
  std::vector<int> atoms_of_point_off_;
  std::vector<int> unplaced_count_;  // per db atom
  struct Level {
    std::vector<int> members;
    size_t index_mark = 0;
    size_t facts_before = 0;
  };
  std::vector<Level> levels_;
  std::vector<Level> spare_levels_;  // capacity pool for popped levels
  long long pushed_ = 0;
  long long popped_ = 0;
};

}  // namespace iodb

#endif  // IODB_CORE_MODEL_BUILDER_H_
