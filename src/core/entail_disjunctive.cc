#include "core/entail_disjunctive.h"

#include <algorithm>
#include <bit>
#include <cstdint>
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
  std::vector<std::vector<int>> groups;  // current partial sort
  bool stop = false;
  bool exhausted = false;

  // Mask fast path, sized once here so the search allocates nothing: the
  // label word of every database point and of every query vertex
  // (disjunct i's at var_label[var_label_off[i] + u]), one bit pair per
  // "!=" constraint, and per search depth a frame and the group placed
  // there. Depth is below num_points: every group removes a point.
  std::vector<uint64_t> point_label;
  std::vector<uint64_t> var_label;
  size_t var_label_off[kMaxPackedDisjuncts] = {};
  std::vector<uint64_t> unequal_pairs;
  std::vector<Frame> frames;
  std::vector<uint64_t> group_stack;

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
    for (const auto& [u, v] : db.inequalities) {
      unequal_pairs.push_back((uint64_t{1} << u) | (uint64_t{1} << v));
    }
    frames.resize(db.num_points());
    for (Frame& frame : frames) frame.advance.resize(advance_capacity);
    group_stack.resize(db.num_points());
    return true;
  }

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

  // Reports the current complete sort as a countermodel; sets `stop` when
  // the search should not look for more.
  void ReportCounter() {
    const bool first = outcome.entailed;
    outcome.entailed = false;
    // Decision mode (no callback): the first countermodel suffices.
    if (context.on_countermodel == nullptr) {
      if (context.want_countermodel) {
        outcome.countermodel = BuildMinimalModel(db, groups);
      }
      stop = true;
      return;
    }
    FiniteModel model = BuildMinimalModel(db, groups);
    if (first && context.want_countermodel) outcome.countermodel = model;
    if (!context.on_countermodel(model)) stop = true;
  }

  // Entry point: dispatches the initial state to the active path.
  bool SearchTop(const std::vector<int>& s, const std::vector<int>& u_vec) {
    if (fast) {
      uint64_t alive = 0;
      for (int v : s) alive |= ctx->desc_mask[v];
      return SearchMask(alive, u_vec.data(), 0);
    }
    return Search(s, u_vec);
  }

  // ---------------------------------------------------------------------
  // General path: per-pair probes (interval index past 64 points, the
  // masks when the word gate fails, the closure under the test oracle).
  // ---------------------------------------------------------------------

  // Search for a completion of region S falsifying all disjunct paths.
  // Returns true if at least one countermodel was found below this state.
  bool Search(const std::vector<int>& s, const std::vector<int>& u_vec) {
    if (stop) return false;
    std::vector<int> key = Key(s, u_vec);
    if (failed.contains(key)) return false;
    if (!ChargeBudget()) return false;
    ++outcome.states_visited;

    std::vector<bool> alive = AliveFrom(s);
    std::vector<bool> minor = MinorVertices(db.dag, alive);
    std::vector<int> candidates;
    for (int v = 0; v < db.num_points(); ++v) {
      if (alive[v] && minor[v]) candidates.push_back(v);
    }
    IODB_CHECK(!candidates.empty());

    bool found_any = false;
    std::vector<int> chosen;
    EnumerateGroups(candidates, 0, chosen, alive, u_vec, found_any);
    if (!found_any && !stop) failed.insert(std::move(key));
    return found_any;
  }

  // Enumerates the next-point group choices (antichains of minor vertices,
  // taken with their down-closures) and recurses.
  void EnumerateGroups(const std::vector<int>& candidates, size_t next,
                       std::vector<int>& chosen,
                       const std::vector<bool>& alive,
                       const std::vector<int>& u_vec, bool& found_any) {
    if (stop) return;
    for (size_t i = next; i < candidates.size() && !stop; ++i) {
      int v = candidates[i];
      bool independent = true;
      for (int u : chosen) {
        if (ctx->Comparable(u, v, &rstats)) {
          independent = false;
          break;
        }
      }
      if (!independent) continue;
      chosen.push_back(v);
      if (TryGroup(candidates, chosen, alive, u_vec)) found_any = true;
      EnumerateGroups(candidates, i + 1, chosen, alive, u_vec, found_any);
      chosen.pop_back();
    }
  }

  bool TryGroup(const std::vector<int>& minors, const std::vector<int>& chosen,
                const std::vector<bool>& alive,
                const std::vector<int>& u_vec) {
    if (!ChargeBudget()) return false;
    // Down-closure of the chosen antichain within the minor set.
    std::vector<int> group;
    PredSet point_label(db.vocab->num_predicates());
    for (int m : minors) {
      for (int a : chosen) {
        if (ctx->Reaches(m, a, &rstats)) {
          group.push_back(m);
          point_label.UnionWith(db.labels[m]);
          break;
        }
      }
    }
    // Section 7 generalization: a sort group may not identify two points
    // declared unequal.
    for (const auto& [u, v] : db.inequalities) {
      bool has_u = std::find(group.begin(), group.end(), u) != group.end();
      bool has_v = std::find(group.begin(), group.end(), v) != group.end();
      if (has_u && has_v) return false;
    }

    // Per-disjunct forced advance; a disjunct whose every path choice is
    // satisfied by this point kills the group.
    std::vector<std::vector<int>> advance(query.disjuncts.size());
    for (size_t i = 0; i < query.disjuncts.size(); ++i) {
      advance[i] =
          ComputeAdvance(static_cast<int>(i), u_vec[i], point_label);
      if (advance[i].empty()) return false;
    }

    // Remaining region.
    std::vector<bool> next_alive = alive;
    for (int g : group) next_alive[g] = false;
    std::vector<int> next_s = MinimalVertices(db.dag, next_alive);

    groups.push_back(group);
    bool found = false;
    std::vector<int> next_u(u_vec.size());
    ProductSearch(advance, 0, next_u, next_s, found);
    groups.pop_back();
    return found;
  }

  void ProductSearch(const std::vector<std::vector<int>>& advance,
                     size_t index, std::vector<int>& next_u,
                     const std::vector<int>& next_s, bool& found) {
    if (stop) return;
    if (index == advance.size()) {
      if (next_s.empty()) {
        // Even when it stops the search, the countermodel counts as found.
        ReportCounter();
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
  // enumeration order and countermodel sequence as the general path; the
  // alive region, minor test, antichain independence, group down-closure,
  // group label and label-subset tests all become single-word operations.
  // Apart from inserts into `failed_packed`, the loop allocates nothing:
  // advance sets and successor positions live in the per-depth frames, the
  // partial sort is the group-mask stack, and `groups` is built only to
  // report a countermodel.
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
  bool SearchMask(uint64_t alive, const int* u, int depth) {
    if (stop) return false;
    std::pair<uint64_t, uint64_t> key{alive, PackPositions(u)};
    if (failed_packed.contains(key)) return false;
    if (!ChargeBudget()) return false;
    ++outcome.states_visited;

    // A vertex is minor iff no strict ancestor is alive.
    uint64_t minors = 0;
    for (uint64_t rest = alive; rest != 0; rest &= rest - 1) {
      int v = std::countr_zero(rest);
      if ((ctx->strict_anc_mask[v] & alive) == 0) minors |= uint64_t{1} << v;
    }
    rstats.probes += std::popcount(alive);
    rstats.fast_hits += std::popcount(alive);
    IODB_CHECK(minors != 0);

    bool found_any = false;
    EnumerateGroupsMask(minors, minors, alive, /*incompat=*/0,
                        /*chosen_anc=*/0, u, depth, found_any);
    if (!found_any && !stop) failed_packed.insert(key);
    return found_any;
  }

  // `rest` iterates the candidate minors in ascending vertex order (the
  // same order the general path scans `candidates[i..]`); `incompat`
  // accumulates every vertex comparable to a chosen one; `chosen_anc` is
  // the union of the chosen vertices' ancestor masks, so the group's
  // down-closure is one AND away.
  void EnumerateGroupsMask(uint64_t minors, uint64_t rest, uint64_t alive,
                           uint64_t incompat, uint64_t chosen_anc,
                           const int* u, int depth, bool& found_any) {
    if (stop) return;
    for (; rest != 0 && !stop; rest &= rest - 1) {
      int v = std::countr_zero(rest);
      ++rstats.probes;
      ++rstats.fast_hits;
      if ((incompat >> v) & 1) continue;
      uint64_t next_anc = chosen_anc | ctx->anc_mask[v];
      if (TryGroupMask(minors, next_anc, alive, u, depth)) found_any = true;
      EnumerateGroupsMask(minors, rest & (rest - 1), alive,
                          incompat | ctx->desc_mask[v] | ctx->anc_mask[v],
                          next_anc, u, depth, found_any);
    }
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

  bool TryGroupMask(uint64_t minors, uint64_t chosen_anc, uint64_t alive,
                    const int* u, int depth) {
    if (!ChargeBudget()) return false;
    // Down-closure of the chosen antichain within the minor set: the
    // minors that (weakly) reach a chosen vertex.
    uint64_t group_mask = minors & chosen_anc;
    rstats.probes += std::popcount(minors);
    rstats.fast_hits += std::popcount(minors);
    for (uint64_t pair : unequal_pairs) {
      if ((group_mask & pair) == pair) return false;
    }

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
    ReportCounter();
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
    engine.ReportCounter();
    return engine.outcome;
  }

  // Branch over the product of initial path starts.
  std::vector<bool> all_alive(db.num_points(), true);
  std::vector<int> s0 = MinimalVertices(db.dag, all_alive);
  std::vector<int> u0(query.disjuncts.size(), -1);
  std::function<void(size_t)> product = [&](size_t index) {
    if (engine.stop) return;
    if (index == initial_choices.size()) {
      engine.SearchTop(s0, u0);
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
