#include "oracle/oracle.h"

#include <string>
#include <unordered_set>
#include <utility>

#include <gtest/gtest.h>

#include "core/model_builder.h"
#include "core/model_check.h"
#include "core/model_matcher.h"
#include "graph/topo.h"
#include "util/strings.h"

namespace iodb::oracle {

FiniteModel BuildPrefixModel(const NormDb& db,
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

  for (const ProperAtom& atom : db.other_atoms) {
    ProperAtom mapped = atom;
    bool placed = true;
    for (Term& term : mapped.args) {
      if (term.sort == Sort::kOrder) {
        if (model_point[term.id] == -1) {
          placed = false;
          break;
        }
        term.id = model_point[term.id];
      }
    }
    if (placed) model.other_facts.push_back(std::move(mapped));
  }
  return model;
}

EngineOutcome EntailRebuildPerModel(const NormDb& db, const NormQuery& query,
                                    const EngineContext& context) {
  EngineOutcome outcome;
  if (query.trivially_true) return outcome;
  ModelVisitor visitor;
  std::vector<std::vector<int>> prefix;
  visitor.on_group = [&](int depth, const std::vector<int>& group) {
    if (context.budget != nullptr && !context.budget->Charge()) {
      outcome.exhausted = true;
      return false;
    }
    prefix.resize(depth);
    prefix.push_back(group);
    FiniteModel model = BuildPrefixModel(db, prefix);
    // No countermodel below a satisfied prefix.
    return !Satisfies(model, query, &outcome.check_stats);
  };
  visitor.on_model = [&](const std::vector<std::vector<int>>& groups) {
    if (context.budget != nullptr && !context.budget->Charge()) {
      outcome.exhausted = true;
      return false;
    }
    ++outcome.models_enumerated;
    // Every level of this sort was already checked and found
    // unsatisfied: the complete model is a countermodel.
    outcome.entailed = false;
    if (context.want_countermodel) {
      outcome.countermodel = BuildMinimalModel(db, groups);
    }
    return false;
  };
  ForEachMinimalModel(db, visitor);
  return outcome;
}

void FilteredCountermodels(
    const NormDb& db, const NormQuery& query,
    const std::function<bool(const FiniteModel&)>& on_countermodel) {
  ModelBuilder builder(db);
  QueryMatcher matcher(query);
  ModelVisitor visitor;
  visitor.on_group = [&](int depth, const std::vector<int>& group) {
    builder.PushGroup(depth, group);
    return true;
  };
  visitor.on_model = [&](const std::vector<std::vector<int>>& groups) {
    builder.PopToDepth(static_cast<int>(groups.size()));
    if (matcher.Matches(builder.view(), &builder.index())) return true;
    return on_countermodel(builder.Snapshot());
  };
  ForEachMinimalModel(db, visitor);
}

namespace {

// The Theorem 4.7 search state of the from-dag oracle.
struct BoundedWidthSearch {
  const NormDb& db;
  const NormConjunct& query;
  bool want_countermodel;
  ExecBudget* budget;
  bool exhausted = false;
  long long states_visited = 0;
  // States (S, u) fully explored without finding a countermodel.
  std::unordered_set<std::vector<int>, IntVectorHash> failed;
  // Countermodel groups, collected deepest-first on unwind.
  std::vector<std::vector<int>> groups_reversed;

  BoundedWidthSearch(const NormDb& d, const NormConjunct& q,
                     const EngineContext& context)
      : db(d),
        query(q),
        want_countermodel(context.want_countermodel),
        budget(context.budget) {}

  // The unsorted region is the up-set of the antichain S.
  std::vector<bool> AliveFrom(const std::vector<int>& s) const {
    std::vector<bool> alive(db.num_points(), false);
    std::vector<int> queue(s);
    for (int v : queue) alive[v] = true;
    for (size_t head = 0; head < queue.size(); ++head) {
      for (const Digraph::Arc& arc : db.dag.out(queue[head])) {
        if (!alive[arc.vertex]) {
          alive[arc.vertex] = true;
          queue.push_back(arc.vertex);
        }
      }
    }
    return alive;
  }

  static std::vector<int> Key(const std::vector<int>& s, int u) {
    std::vector<int> key(s);
    key.push_back(-1);
    key.push_back(u);
    return key;
  }

  // True iff a sort of the region S falsifying the path suffix rooted at
  // query vertex u exists (i.e. a countermodel for this branch).
  bool FindCounter(const std::vector<int>& s, int u) {
    if (exhausted) return false;
    IODB_CHECK(!s.empty());
    std::vector<int> key = Key(s, u);
    if (failed.contains(key)) return false;
    if (budget != nullptr && !budget->Charge()) {
      exhausted = true;
      return false;
    }
    ++states_visited;

    std::vector<bool> alive = AliveFrom(s);

    // Edge (a): some minimal vertex fails the label of u.
    int failing = -1;
    for (int v : s) {
      if (!query.labels[u].IsSubsetOf(db.labels[v])) {
        failing = v;
        break;
      }
    }
    if (failing != -1) {
      alive[failing] = false;
      std::vector<int> next = MinimalVertices(db.dag, alive);
      bool found = next.empty() ? true : FindCounter(next, u);
      if (found) {
        if (want_countermodel) groups_reversed.push_back({failing});
        return true;
      }
      if (exhausted) return false;
      failed.insert(std::move(key));
      return false;
    }

    // All minimal vertices satisfy Φ[u]: the symbol at u is consumed.
    // Lazily computed minor deletion shared by all "<" successors.
    std::vector<int> after_lt;  // minimals after deleting minors
    std::vector<int> minor_group;
    bool lt_computed = false;
    for (const Digraph::Arc& arc : query.dag.out(u)) {
      if (arc.rel == OrderRel::kLe) {
        if (FindCounter(s, arc.vertex)) return true;
      } else {
        if (!lt_computed) {
          lt_computed = true;
          std::vector<bool> minor = MinorVertices(db.dag, alive);
          std::vector<bool> next_alive = alive;
          for (int v = 0; v < db.num_points(); ++v) {
            if (alive[v] && minor[v]) {
              minor_group.push_back(v);
              next_alive[v] = false;
            }
          }
          after_lt = MinimalVertices(db.dag, next_alive);
        }
        bool found =
            after_lt.empty() ? true : FindCounter(after_lt, arc.vertex);
        if (found) {
          if (want_countermodel) groups_reversed.push_back(minor_group);
          return true;
        }
      }
    }
    // No successor branch yields a countermodel: if u is terminal the path
    // is fully matched; either way this state fails.
    if (exhausted) return false;
    failed.insert(std::move(key));
    return false;
  }
};

}  // namespace

EngineOutcome EntailBoundedWidthFromDag(const NormDb& db,
                                        const NormConjunct& raw_conjunct,
                                        const EngineContext& context) {
  IODB_CHECK(raw_conjunct.IsMonadicOrderOnly());
  IODB_CHECK(db.inequalities.empty());
  const NormConjunct conjunct = context.already_reduced
                                    ? raw_conjunct
                                    : TransitiveReduceConjunct(raw_conjunct);
  EngineOutcome outcome;
  if (conjunct.num_order_vars() == 0) return outcome;  // trivially true

  std::vector<bool> all_alive(db.num_points(), true);
  std::vector<int> initial = MinimalVertices(db.dag, all_alive);
  if (initial.empty()) {
    // Empty database: the single (empty) minimal model falsifies any
    // conjunct with at least one order variable.
    outcome.entailed = false;
    if (context.want_countermodel) {
      outcome.countermodel = BuildMinimalModel(db, {});
    }
    return outcome;
  }

  BoundedWidthSearch search(db, conjunct, context);
  std::vector<bool> query_alive(conjunct.num_order_vars(), true);
  for (int u0 : MinimalVertices(conjunct.dag, query_alive)) {
    if (search.exhausted) break;
    if (search.FindCounter(initial, u0)) {
      outcome.entailed = false;
      if (context.want_countermodel) {
        std::vector<std::vector<int>> groups(search.groups_reversed.rbegin(),
                                             search.groups_reversed.rend());
        outcome.countermodel = BuildMinimalModel(db, groups);
      }
      break;
    }
  }
  outcome.exhausted = search.exhausted && outcome.entailed;
  outcome.states_visited = search.states_visited;
  return outcome;
}

EnumerationContext ClosureContext(const NormDb& db) {
  EnumerationContext context;
  const int n = db.num_points();
  context.num_points = n;
  context.closure.emplace(ComputeReachability(db.dag));
  const Reachability& closure = *context.closure;
  context.strict_in_all_alive.assign(n, 0);
  context.strict_out_off.assign(n + 1, 0);
  for (int u = 0; u < n; ++u) {
    int degree = 0;
    for (int v = 0; v < n; ++v) {
      degree += closure.strict.Get(u, v) ? 1 : 0;
    }
    context.strict_out_off[u + 1] = context.strict_out_off[u] + degree;
  }
  context.strict_out.resize(context.strict_out_off[n]);
  for (int u = 0, k = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (closure.strict.Get(u, v)) {
        context.strict_out[k++] = v;
        ++context.strict_in_all_alive[v];
      }
    }
  }
  return context;
}

void ExpectSameOutcome(const EngineOutcome& actual,
                       const EngineOutcome& expected,
                       const std::string& where) {
  EXPECT_EQ(actual.entailed, expected.entailed) << where;
  EXPECT_EQ(actual.exhausted, expected.exhausted) << where;
  EXPECT_EQ(actual.states_visited, expected.states_visited) << where;
  EXPECT_EQ(actual.models_enumerated, expected.models_enumerated) << where;
  ASSERT_EQ(actual.countermodel.has_value(), expected.countermodel.has_value())
      << where;
  if (actual.countermodel.has_value()) {
    EXPECT_EQ(actual.countermodel->ToString(),
              expected.countermodel->ToString())
        << where;
  }
}

}  // namespace iodb::oracle
