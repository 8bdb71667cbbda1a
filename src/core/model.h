// Finite models of indefinite order databases.
//
// A finite model has an order domain of points 0..num_points-1 (ordered by
// index) and an object domain of named constants. The minimal models of a
// database (Proposition 2.8) are built by topologically sorting its dag;
// `BuildMinimalModel` materializes one from a group sequence produced by
// the enumerator in minimal_models.h.

#ifndef IODB_CORE_MODEL_H_
#define IODB_CORE_MODEL_H_

#include <string>
#include <vector>

#include "core/atom.h"
#include "core/database.h"
#include "core/types.h"

namespace iodb {

/// A finite two-sorted structure.
struct FiniteModel {
  VocabularyPtr vocab;

  int num_points = 0;
  /// point_labels[p]: monadic-order facts holding at point p.
  std::vector<PredSet> point_labels;
  /// Display names, e.g. "z1=u1" for a point interpreting two constants.
  std::vector<std::string> point_names;

  std::vector<std::string> object_names;
  /// Facts that are not monadic-order; order-sort Term ids are points.
  std::vector<ProperAtom> other_facts;

  /// Renders the model as "a1 < a2 < ..." with fact annotations.
  std::string ToString() const;
};

/// Materializes the minimal model in which the database points listed in
/// `groups[i]` are interpreted as model point i (Example 2.7). `groups`
/// must partition the points of `db` into a valid topological sort.
FiniteModel BuildMinimalModel(const NormDb& db,
                              const std::vector<std::vector<int>>& groups);

}  // namespace iodb

#endif  // IODB_CORE_MODEL_H_
