#include "core/entail_disjunctive.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <unordered_set>

#include "core/minimal_models.h"
#include "graph/topo.h"

namespace iodb {
namespace {

// Packed search-state key for the mask fast path: the alive-region word
// plus the per-disjunct path positions (12 bits each). The alive word is
// a canonical stand-in for the seed set s (s = minimal vertices of the
// region, the region = up-closure of s).
struct PackedKeyHash {
  size_t operator()(const std::pair<uint64_t, uint64_t>& k) const {
    uint64_t h = k.first * 0x9e3779b97f4a7c15ULL;
    h ^= k.second + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

struct Engine {
  // The packed key holds 12 bits per disjunct position; the fast path
  // additionally needs every point, every label and every disjunct's
  // order variables in one machine word.
  static constexpr size_t kMaxPackedDisjuncts = 5;
  static constexpr int kMaxMaskVars = 64;

  // Per-depth scratch of the mask fast path: the advance sets of every
  // disjunct, flat (disjunct i owns advance[begin[i] .. begin[i+1])), and
  // the successor positions the product search is building.
  struct Frame {
    std::vector<int> advance;
    int begin[kMaxPackedDisjuncts + 1] = {};
    int next_u[kMaxPackedDisjuncts] = {};
  };

  const NormDb& db;
  const NormQuery& query;
  const EngineContext& context;
  EngineOutcome outcome;
  // The database's reachability context: masks at <= 64 points, the
  // interval index above (the differential tests inject a closure).
  std::shared_ptr<const EnumerationContext> ctx;
  bool fast = false;  // mask fast path active
  ReachProbeStats rstats;
  std::unordered_set<std::vector<int>, IntVectorHash> failed;
  std::unordered_set<std::pair<uint64_t, uint64_t>, PackedKeyHash>
      failed_packed;
  // The general path's region and partial sort (unset on the mask path).
  std::optional<GroupChooser> chooser;
  bool stop = false;
  bool exhausted = false;

  // Mask fast path, sized once here so the search allocates nothing: the
  // label word of every database point and of every query vertex
  // (disjunct i's at var_label[var_label_off[i] + u]), and per search
  // depth a frame and the group placed there. Depth is below num_points:
  // every group removes a point. `groups` is the partial sort,
  // materialized only to report a countermodel.
  std::vector<uint64_t> point_label;
  std::vector<uint64_t> var_label;
  size_t var_label_off[kMaxPackedDisjuncts] = {};
  std::vector<Frame> frames;
  std::vector<uint64_t> group_stack;
  std::vector<std::vector<int>> groups;

  // Budget seam: counts one unit of search work; on a trip sets the
  // sticky exhausted flag and the stop flag so every loop unwinds (and,
  // via the existing `!stop` guards, nothing half-explored is memoized).
  bool ChargeBudget() {
    if (context.budget == nullptr || context.budget->Charge()) return true;
    exhausted = true;
    stop = true;
    return false;
  }

  Engine(const NormDb& d, const NormQuery& q, const EngineContext& c)
      : db(d), query(q), context(c), ctx(EngineOrderContext(d, c.order)) {
    fast = ctx->has_masks &&
           query.disjuncts.size() <= kMaxPackedDisjuncts && InitMaskPath();
    if (!fast) chooser.emplace(db, *ctx, rstats);
  }

  // The label as one word; false when it holds a predicate id >= 64.
  static bool LabelWord(const PredSet& label, uint64_t& word) {
    const std::vector<uint64_t>& words = label.words();
    for (size_t w = 1; w < words.size(); ++w) {
      if (words[w] != 0) return false;
    }
    word = words.empty() ? 0 : words[0];
    return true;
  }

  // Fills the mask path's tables; false when a label or a disjunct does
  // not fit the word gate (the search then takes the general path).
  bool InitMaskPath() {
    point_label.resize(db.num_points());
    for (int p = 0; p < db.num_points(); ++p) {
      if (!LabelWord(db.labels[p], point_label[p])) return false;
    }
    size_t advance_capacity = 0;
    for (size_t i = 0; i < query.disjuncts.size(); ++i) {
      const NormConjunct& conjunct = query.disjuncts[i];
      if (conjunct.num_order_vars() > kMaxMaskVars) return false;
      var_label_off[i] = var_label.size();
      for (const PredSet& label : conjunct.labels) {
        if (!LabelWord(label, var_label.emplace_back())) return false;
      }
      // A vertex enters an advance set at most twice: once as "stays",
      // once as a "<" successor.
      advance_capacity += 2 * static_cast<size_t>(conjunct.num_order_vars());
    }
    frames.resize(db.num_points());
    for (Frame& frame : frames) frame.advance.resize(advance_capacity);
    group_stack.resize(db.num_points());
    return true;
  }

  // Forced greedy advance of the path position `u` of disjunct `i` when a
  // point with label union `a` is appended. Collects the possible next
  // positions (one per lazily chosen path continuation); a fully matched
  // path contributes nothing (that continuation is satisfied and dies).
  void AdvanceSet(int i, int u, const PredSet& a,
                  std::vector<int>& results,
                  std::vector<bool>& seen) const {
    const NormConjunct& conjunct = query.disjuncts[i];
    if (seen[u]) return;
    seen[u] = true;
    if (!conjunct.labels[u].IsSubsetOf(a)) {
      results.push_back(u);  // cannot be matched at this point: stays
      return;
    }
    // Matched at this point: must advance along some edge.
    for (const Digraph::Arc& arc : conjunct.dag.out(u)) {
      if (arc.rel == OrderRel::kLe) {
        AdvanceSet(i, arc.vertex, a, results, seen);  // may match same point
      } else if (!seen[conjunct.num_order_vars() + arc.vertex]) {
        // "<" successor waits for a strictly later point. (Offset marks in
        // `seen` distinguish "emitted as stopped" from "visited".)
        seen[conjunct.num_order_vars() + arc.vertex] = true;
        results.push_back(arc.vertex);
      }
    }
    // No out-arc: the chosen path is fully matched; nothing is emitted.
  }

  std::vector<int> ComputeAdvance(int i, int u, const PredSet& a) const {
    std::vector<int> results;
    std::vector<bool> seen(
        2 * static_cast<size_t>(query.disjuncts[i].num_order_vars()), false);
    AdvanceSet(i, u, a, results, seen);
    return results;
  }

  static std::vector<int> Key(const std::vector<int>& s,
                              const std::vector<int>& u_vec) {
    std::vector<int> key(s);
    key.push_back(-1);
    key.insert(key.end(), u_vec.begin(), u_vec.end());
    return key;
  }

  // Reports the complete sort `sort` as a countermodel; sets `stop` when
  // the search should not look for more.
  void ReportCounter(const std::vector<std::vector<int>>& sort) {
    const bool first = outcome.entailed;
    outcome.entailed = false;
    // Decision mode (no callback): the first countermodel suffices.
    if (context.on_countermodel == nullptr) {
      if (context.want_countermodel) {
        outcome.countermodel = BuildMinimalModel(db, sort);
      }
      stop = true;
      return;
    }
    FiniteModel model = BuildMinimalModel(db, sort);
    if (first && context.want_countermodel) outcome.countermodel = model;
    if (!context.on_countermodel(model)) stop = true;
  }

  // Entry point: searches the whole database from the initial positions.
  void SearchTop(const std::vector<int>& u_vec) {
    if (fast) {
      SearchMask(db.num_points() == 64 ? ~uint64_t{0}
                                       : (uint64_t{1} << db.num_points()) - 1,
                 u_vec.data(), 0);
    } else {
      Search(RegionSeeds(), u_vec);
    }
  }

  // ---------------------------------------------------------------------
  // General path: the chooser's region and groups (interval probes past
  // 64 points, the masks when the word gate fails, the closure under the
  // test oracle).
  // ---------------------------------------------------------------------

  // The chooser's region as its minimal points: the region is their
  // up-closure, so they key the failed-state memo.
  std::vector<int> RegionSeeds() const {
    std::vector<int> seeds;
    for (int v = 0; v < db.num_points(); ++v) {
      if (!chooser->alive(v)) continue;
      bool minimal = true;
      for (const Digraph::Arc& arc : db.dag.in(v)) {
        if (chooser->alive(arc.vertex)) {
          minimal = false;
          break;
        }
      }
      if (minimal) seeds.push_back(v);
    }
    return seeds;
  }

  // Search for a completion of the chooser's region (seeded by `s`)
  // falsifying all disjunct paths. Returns true if at least one
  // countermodel was found below this state.
  bool Search(const std::vector<int>& s, const std::vector<int>& u_vec) {
    if (stop) return false;
    std::vector<int> key = Key(s, u_vec);
    if (failed.contains(key)) return false;
    if (!ChargeBudget()) return false;
    ++outcome.states_visited;

    bool found_any = false;
    chooser->ForEachGroup([&](const std::vector<int>& group) {
      if (TryGroup(group, u_vec)) found_any = true;
      return !stop;
    });
    if (!found_any && !stop) failed.insert(std::move(key));
    return found_any;
  }

  bool TryGroup(const std::vector<int>& group,
                const std::vector<int>& u_vec) {
    if (!ChargeBudget()) return false;
    PredSet point_label(db.vocab->num_predicates());
    for (int g : group) point_label.UnionWith(db.labels[g]);

    // Per-disjunct forced advance; a disjunct whose every path choice is
    // satisfied by this point kills the group.
    std::vector<std::vector<int>> advance(query.disjuncts.size());
    for (size_t i = 0; i < query.disjuncts.size(); ++i) {
      advance[i] =
          ComputeAdvance(static_cast<int>(i), u_vec[i], point_label);
      if (advance[i].empty()) return false;
    }

    chooser->Remove(group);
    bool found = false;
    std::vector<int> next_u(u_vec.size());
    ProductSearch(advance, 0, next_u, RegionSeeds(), found);
    chooser->Restore(group);
    return found;
  }

  void ProductSearch(const std::vector<std::vector<int>>& advance,
                     size_t index, std::vector<int>& next_u,
                     const std::vector<int>& next_s, bool& found) {
    if (stop) return;
    if (index == advance.size()) {
      if (next_s.empty()) {
        // Even when it stops the search, the countermodel counts as found.
        ReportCounter(chooser->groups());
        found = true;
      } else if (Search(next_s, next_u)) {
        found = true;
      }
      return;
    }
    for (int u : advance[index]) {
      next_u[index] = u;
      ProductSearch(advance, index + 1, next_u, next_s, found);
      if (stop) return;
    }
  }

  // ---------------------------------------------------------------------
  // Mask fast path (<= 64 points, <= 5 disjuncts, every label id below 64,
  // <= 64 order variables per disjunct). Identical state space, group
  // order and countermodel sequence as the general path; the region and
  // groups come from ForEachGroupMask, and the group label and
  // label-subset tests are single-word operations too. Apart from inserts
  // into `failed_packed`, the loop allocates nothing: advance sets and
  // successor positions live in the per-depth frames, the partial sort is
  // the group-mask stack, and `groups` is built only to report a
  // countermodel.
  // ---------------------------------------------------------------------

  // Positions `u` of every disjunct, 12 bits each.
  uint64_t PackPositions(const int* u) const {
    uint64_t pack = 0;
    for (size_t i = 0; i < query.disjuncts.size(); ++i) {
      pack |= static_cast<uint64_t>(u[i]) << (12 * i);
    }
    return pack;
  }

  // `u` holds the disjunct positions; `depth` groups are already placed.
  // Kept out of line: inlined into ProductSearchMask it measured ~2%
  // slower on BM_Thm53_EvalDeepShape.
  [[gnu::noinline]] bool SearchMask(uint64_t alive, const int* u, int depth) {
    if (stop) return false;
    std::pair<uint64_t, uint64_t> key{alive, PackPositions(u)};
    if (failed_packed.contains(key)) return false;
    if (!ChargeBudget()) return false;
    ++outcome.states_visited;

    bool found_any = false;
    // Scalars captured by value: the walk calls this once per group, and
    // reading them through references measured ~2% slower.
    auto try_group = [this, alive, u, depth, &found_any](uint64_t group) {
      if (TryGroupMask(group, alive, u, depth)) found_any = true;
      return !stop;
    };
    ForEachGroupMask(*ctx, alive, rstats, try_group);
    if (!found_any && !stop) failed_packed.insert(key);
    return found_any;
  }

  // AdvanceSet on words: `a` is the group's label word, `labels` the
  // disjunct's vertex label words, `seen`/`emitted` the visited and
  // "<"-emitted marks. Appends the next positions at out[n++], in
  // AdvanceSet's order.
  void AdvanceMask(const NormConjunct& conjunct, const uint64_t* labels,
                   int u, uint64_t a, uint64_t& seen, uint64_t& emitted,
                   int* out, int& n) const {
    const uint64_t bit = uint64_t{1} << u;
    if (seen & bit) return;
    seen |= bit;
    if ((labels[u] & ~a) != 0) {
      out[n++] = u;  // cannot be matched at this point: stays
      return;
    }
    for (const Digraph::Arc& arc : conjunct.dag.out(u)) {
      if (arc.rel == OrderRel::kLe) {
        AdvanceMask(conjunct, labels, arc.vertex, a, seen, emitted, out, n);
      } else if (!((emitted >> arc.vertex) & 1)) {
        emitted |= uint64_t{1} << arc.vertex;
        out[n++] = arc.vertex;
      }
    }
  }

  bool TryGroupMask(uint64_t group_mask, uint64_t alive, const int* u,
                    int depth) {
    if (!ChargeBudget()) return false;
    uint64_t point_label_union = 0;
    for (uint64_t g = group_mask; g != 0; g &= g - 1) {
      point_label_union |= point_label[std::countr_zero(g)];
    }

    Frame& frame = frames[depth];
    int n = 0;
    for (size_t i = 0; i < query.disjuncts.size(); ++i) {
      frame.begin[i] = n;
      uint64_t seen = 0;
      uint64_t emitted = 0;
      AdvanceMask(query.disjuncts[i], &var_label[var_label_off[i]], u[i],
                  point_label_union, seen, emitted, frame.advance.data(), n);
      if (n == frame.begin[i]) return false;
    }
    frame.begin[query.disjuncts.size()] = n;

    group_stack[depth] = group_mask;
    bool found = false;
    ProductSearchMask(frame, 0, alive & ~group_mask, depth, found);
    return found;
  }

  void ProductSearchMask(Frame& frame, size_t index, uint64_t next_alive,
                         int depth, bool& found) {
    if (stop) return;
    if (index == query.disjuncts.size()) {
      if (next_alive == 0) {
        ReportCounterMask(depth);
        found = true;
      } else if (SearchMask(next_alive, frame.next_u, depth + 1)) {
        found = true;
      }
      return;
    }
    for (int k = frame.begin[index]; k < frame.begin[index + 1]; ++k) {
      frame.next_u[index] = frame.advance[k];
      ProductSearchMask(frame, index + 1, next_alive, depth, found);
      if (stop) return;
    }
  }

  // Materializes the group stack 0..depth as `groups` and reports it.
  void ReportCounterMask(int depth) {
    groups.resize(depth + 1);
    for (int d = 0; d <= depth; ++d) {
      groups[d].clear();
      for (uint64_t g = group_stack[d]; g != 0; g &= g - 1) {
        groups[d].push_back(std::countr_zero(g));
      }
    }
    ReportCounter(groups);
  }
};

}  // namespace

EngineOutcome EntailDisjunctive(const NormDb& db, const NormQuery& raw_query,
                                const EngineContext& context) {
  IODB_CHECK(raw_query.IsMonadicOrderOnly());

  if (raw_query.trivially_true) return EngineOutcome{};

  // Drop redundant query atoms so per-disjunct path automata track only
  // maximal paths (see TransitiveReduceConjunct) — unless the caller's
  // plan already holds the reduced disjuncts (memoized at prepare time).
  NormQuery reduced_storage;
  if (!context.already_reduced) {
    reduced_storage.vocab = raw_query.vocab;
    for (const NormConjunct& conjunct : raw_query.disjuncts) {
      reduced_storage.disjuncts.push_back(TransitiveReduceConjunct(conjunct));
    }
  }
  const NormQuery& query =
      context.already_reduced ? raw_query : reduced_storage;

  Engine engine(db, query, context);

  // Initial per-disjunct positions: a minimal vertex of each disjunct dag.
  // A disjunct without order variables is the empty conjunction and makes
  // the query trivially true (handled above).
  std::vector<std::vector<int>> initial_choices;
  for (const NormConjunct& conjunct : query.disjuncts) {
    IODB_CHECK_GT(conjunct.num_order_vars(), 0);
    std::vector<bool> all(conjunct.num_order_vars(), true);
    initial_choices.push_back(MinimalVertices(conjunct.dag, all));
  }

  if (db.num_points() == 0) {
    // The unique minimal model is empty; every disjunct (which needs at
    // least one point) is falsified.
    engine.ReportCounter({});
    return engine.outcome;
  }

  // Branch over the product of initial path starts.
  std::vector<int> u0(query.disjuncts.size(), -1);
  std::function<void(size_t)> product = [&](size_t index) {
    if (engine.stop) return;
    if (index == initial_choices.size()) {
      engine.SearchTop(u0);
      return;
    }
    for (int u : initial_choices[index]) {
      u0[index] = u;
      product(index + 1);
      if (engine.stop) return;
    }
  };
  product(0);
  engine.outcome.exhausted = engine.exhausted;
  engine.outcome.check_stats.AddReachProbes(engine.rstats);
  engine.outcome.check_stats.index_rebuilds = engine.ctx->index_rebuilds();
  return engine.outcome;
}

}  // namespace iodb
