#include "core/model_builder.h"

#include <utility>

#include "util/strings.h"

namespace iodb {

ModelBuilder::ModelBuilder(const NormDb& db)
    : db_(&db), index_(db.vocab, db.num_points()) {
  const int n = db.num_points();
  model_.vocab = db.vocab;
  model_.object_names = db.object_names;
  model_.num_points = 0;
  // Full-capacity label slots; only the first num_points are live. The
  // matcher reads point_labels[p] for p < num_points only, so the view is
  // a valid FiniteModel at every depth.
  model_.point_labels.assign(n, PredSet(db.vocab->num_predicates()));
  model_point_.assign(n, -1);

  // CSR of order-term occurrences: point -> atom indices.
  unplaced_count_.assign(db.other_atoms.size(), 0);
  std::vector<int> degree(n, 0);
  for (size_t ai = 0; ai < db.other_atoms.size(); ++ai) {
    for (const Term& term : db.other_atoms[ai].args) {
      if (term.sort == Sort::kOrder) {
        ++degree[term.id];
        ++unplaced_count_[ai];
      }
    }
  }
  atoms_of_point_off_.assign(n + 1, 0);
  for (int p = 0; p < n; ++p) {
    atoms_of_point_off_[p + 1] = atoms_of_point_off_[p] + degree[p];
  }
  atoms_of_point_.resize(atoms_of_point_off_[n]);
  std::vector<int> cursor(atoms_of_point_off_.begin(),
                          atoms_of_point_off_.end() - 1);
  for (size_t ai = 0; ai < db.other_atoms.size(); ++ai) {
    for (const Term& term : db.other_atoms[ai].args) {
      if (term.sort == Sort::kOrder) {
        atoms_of_point_[cursor[term.id]++] = static_cast<int>(ai);
      }
    }
  }
  // Pure object facts mention no order term: they hold at every depth
  // (including the empty prefix) and are never retracted.
  for (size_t ai = 0; ai < db.other_atoms.size(); ++ai) {
    if (unplaced_count_[ai] == 0) {
      index_.AddFact(db.other_atoms[ai]);
      model_.other_facts.push_back(db.other_atoms[ai]);
    }
  }
  levels_.reserve(n);
  spare_levels_.reserve(n);
}

void ModelBuilder::PushGroup(int depth, const std::vector<int>& group) {
  PopToDepth(depth);
  IODB_CHECK_EQ(depth, static_cast<int>(levels_.size()));
  if (spare_levels_.empty()) {
    levels_.emplace_back();
  } else {
    levels_.push_back(std::move(spare_levels_.back()));
    spare_levels_.pop_back();
  }
  Level& level = levels_.back();
  level.members.assign(group.begin(), group.end());
  level.index_mark = index_.Mark();
  level.facts_before = model_.other_facts.size();

  PredSet& label = model_.point_labels[depth];
  label.Clear();
  for (int g : group) {
    IODB_CHECK_EQ(model_point_[g], -1);
    model_point_[g] = depth;
    label.UnionWith(db_->labels[g]);
  }
  model_.num_points = depth + 1;
  index_.SetPointLabel(depth, label);

  // Facts whose last order occurrence was just placed materialize now.
  for (int g : group) {
    for (int k = atoms_of_point_off_[g]; k < atoms_of_point_off_[g + 1];
         ++k) {
      const int ai = atoms_of_point_[k];
      if (--unplaced_count_[ai] == 0) {
        ProperAtom mapped = db_->other_atoms[ai];
        for (Term& term : mapped.args) {
          if (term.sort == Sort::kOrder) term.id = model_point_[term.id];
        }
        index_.AddFact(mapped);
        model_.other_facts.push_back(std::move(mapped));
      }
    }
  }
  ++pushed_;
}

void ModelBuilder::PopToDepth(int depth) {
  IODB_CHECK_GE(depth, 0);
  while (static_cast<int>(levels_.size()) > depth) {
    Level& level = levels_.back();
    const int point = static_cast<int>(levels_.size()) - 1;
    for (int g : level.members) {
      model_point_[g] = -1;
      for (int k = atoms_of_point_off_[g]; k < atoms_of_point_off_[g + 1];
           ++k) {
        ++unplaced_count_[atoms_of_point_[k]];
      }
    }
    index_.RewindTo(level.index_mark);
    index_.ClearPointLabel(point, model_.point_labels[point]);
    model_.other_facts.resize(level.facts_before);
    model_.num_points = point;
    spare_levels_.push_back(std::move(levels_.back()));
    levels_.pop_back();
    ++popped_;
  }
}

FiniteModel ModelBuilder::Snapshot() const {
  FiniteModel out;
  out.vocab = model_.vocab;
  out.object_names = model_.object_names;
  out.num_points = model_.num_points;
  out.point_labels.assign(model_.point_labels.begin(),
                          model_.point_labels.begin() + model_.num_points);
  out.point_names.resize(model_.num_points);
  for (int p = 0; p < model_.num_points; ++p) {
    std::vector<std::string> names;
    for (int g : levels_[p].members) names.push_back(db_->PointName(g));
    out.point_names[p] = Join(names, "=");
  }
  // Facts in database order, exactly as BuildMinimalModel emits them
  // (and the test oracle's BuildPrefixModel for a partial sort).
  for (size_t ai = 0; ai < db_->other_atoms.size(); ++ai) {
    if (unplaced_count_[ai] != 0) continue;
    ProperAtom mapped = db_->other_atoms[ai];
    for (Term& term : mapped.args) {
      if (term.sort == Sort::kOrder) term.id = model_point_[term.id];
    }
    out.other_facts.push_back(std::move(mapped));
  }
  return out;
}

}  // namespace iodb
