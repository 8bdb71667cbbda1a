#include "core/model.h"

#include "util/strings.h"

namespace iodb {

std::string FiniteModel::ToString() const {
  std::string out;
  for (int p = 0; p < num_points; ++p) {
    if (p > 0) out += " < ";
    out += "[";
    std::vector<std::string> parts;
    if (p < static_cast<int>(point_names.size()) &&
        !point_names[p].empty()) {
      parts.push_back(point_names[p] + ":");
    }
    for (int pred : point_labels[p].Elements()) {
      parts.push_back(vocab->predicate(pred).name);
    }
    out += Join(parts, " ");
    out += "]";
  }
  if (!other_facts.empty()) {
    out += " |";
    for (const ProperAtom& atom : other_facts) {
      out += " " + vocab->predicate(atom.pred).name + "(";
      std::vector<std::string> args;
      for (const Term& term : atom.args) {
        if (term.sort == Sort::kObject) {
          args.push_back(object_names[term.id]);
        } else {
          args.push_back("p" + std::to_string(term.id));
        }
      }
      out += Join(args, ",") + ")";
    }
  }
  return out;
}

FiniteModel BuildMinimalModel(const NormDb& db,
                              const std::vector<std::vector<int>>& groups) {
  FiniteModel model;
  model.vocab = db.vocab;
  model.object_names = db.object_names;
  model.num_points = static_cast<int>(groups.size());
  model.point_labels.assign(model.num_points,
                            PredSet(db.vocab->num_predicates()));
  model.point_names.resize(model.num_points);

  std::vector<int> model_point(db.num_points(), -1);
  for (int i = 0; i < model.num_points; ++i) {
    std::vector<std::string> names;
    for (int dbp : groups[i]) {
      IODB_CHECK_EQ(model_point[dbp], -1);
      model_point[dbp] = i;
      model.point_labels[i].UnionWith(db.labels[dbp]);
      names.push_back(db.PointName(dbp));
    }
    model.point_names[i] = Join(names, "=");
  }
  for (int dbp = 0; dbp < db.num_points(); ++dbp) {
    IODB_CHECK_NE(model_point[dbp], -1);  // groups must cover all points
  }

  for (const ProperAtom& atom : db.other_atoms) {
    ProperAtom mapped = atom;
    for (Term& term : mapped.args) {
      if (term.sort == Sort::kOrder) term.id = model_point[term.id];
    }
    model.other_facts.push_back(std::move(mapped));
  }
  return model;
}

}  // namespace iodb
