#include "core/minimal_models.h"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>

#include "graph/topo.h"

namespace iodb {
namespace {

// Minimal-model enumeration on the general form of the sorting step.
bool SortGeneral(GroupChooser& chooser, const ModelVisitor& visitor) {
  if (chooser.empty()) {
    return visitor.on_model == nullptr || visitor.on_model(chooser.groups());
  }
  const int depth = static_cast<int>(chooser.groups().size());
  return chooser.ForEachGroup([&](const std::vector<int>& group) {
    if (visitor.on_group != nullptr && !visitor.on_group(depth, group)) {
      return true;  // prunes this branch only
    }
    chooser.Remove(group);
    const bool keep_going = SortGeneral(chooser, visitor);
    chooser.Restore(group);
    return keep_going;
  });
}

// Minimal-model enumeration on the mask form: the region is one word, and
// the group vectors handed to the visitor are materialized per group.
struct MaskSort {
  const ModelVisitor& visitor;
  const EnumerationContext& ctx;
  ReachProbeStats& stats;
  group_choice_internal::GroupStack stack;

  bool Sort(uint64_t alive) {
    if (alive == 0) {
      return visitor.on_model == nullptr || visitor.on_model(stack.groups);
    }
    const int depth = static_cast<int>(stack.groups.size());
    // Scalars captured by value, as in the Theorem 5.3 search's walk.
    auto place = [this, depth, alive](uint64_t group_mask) {
      std::vector<int>& group = stack.Push();
      for (uint64_t g = group_mask; g != 0; g &= g - 1) {
        group.push_back(std::countr_zero(g));
      }
      const bool keep_going =
          (visitor.on_group != nullptr && !visitor.on_group(depth, group)) ||
          Sort(alive & ~group_mask);
      stack.Pop();
      return keep_going;
    };
    return ForEachGroupMask(ctx, alive, stats, place);
  }
};

}  // namespace

GroupChooser::GroupChooser(const NormDb& db, const EnumerationContext& ctx,
                           ReachProbeStats& stats)
    : db_(db),
      ctx_(ctx),
      stats_(stats),
      alive_(db.num_points(), 1),
      strict_in_(ctx.strict_in_all_alive),
      alive_count_(db.num_points()),
      levels_(db.num_points() + 1) {
  // Reserved so the group a callback holds stays put while nested walks
  // push theirs: every group takes at least one point.
  stack_.groups.reserve(db.num_points());
}

bool GroupChooser::Independent(const Level& level, int v) {
  for (int u : level.chosen) {
    if (ctx_.Comparable(u, v, &stats_)) return false;
  }
  return true;
}

bool GroupChooser::PushGroup(const Level& level) {
  std::vector<int>& group = stack_.Push();
  for (int m : level.candidates) {
    for (int a : level.chosen) {
      if (ctx_.Reaches(m, a, &stats_)) {
        group.push_back(m);
        break;
      }
    }
  }
  for (const auto& [u, v] : db_.inequalities) {
    if (std::binary_search(group.begin(), group.end(), u) &&
        std::binary_search(group.begin(), group.end(), v)) {
      return false;
    }
  }
  return true;
}

void GroupChooser::Shift(const std::vector<int>& group, int delta) {
  for (int g : group) {
    alive_[g] = delta > 0;
    alive_count_ += delta;
    for (int k = ctx_.strict_out_off[g]; k < ctx_.strict_out_off[g + 1];
         ++k) {
      strict_in_[ctx_.strict_out[k]] += delta;
    }
  }
}

EnumerationContext::EnumerationContext(const NormDb& db)
    : num_points(db.num_points()) {
  strict_in_all_alive.assign(num_points, 0);
  strict_out_off.assign(num_points + 1, 0);
  // Mask-width dags: the dense closure is cheaper to build than the
  // interval-list index (a fresh tiny database costs ~1 closure vs ~2-10
  // index builds — and containment reductions evaluate thousands of
  // them), and the word masks answer every probe afterwards either way.
  // The index takes over where its near-linear build and incremental
  // maintenance actually pay.
  if (num_points <= 64) {
    DeriveMasks(ComputeReachability(db.dag));
    for (const auto& [u, v] : db.inequalities) {
      unequal_pairs.push_back((uint64_t{1} << u) | (uint64_t{1} << v));
    }
    return;
  }
  index = std::make_shared<ReachabilityIndex>(db.dag);
  DeriveFromIndex();
}

EnumerationContext::EnumerationContext(
    const NormDb& db, std::shared_ptr<const ReachabilityIndex> grown)
    : num_points(db.num_points()) {
  IODB_CHECK_EQ(grown->num_vertices(), num_points);
  strict_in_all_alive.assign(num_points, 0);
  strict_out_off.assign(num_points + 1, 0);
  index = std::move(grown);
  DeriveFromIndex();
}

void EnumerationContext::DeriveFromIndex() {
  std::vector<uint8_t> scratch;
  std::vector<int> weak;
  std::vector<int> strict;
  for (int u = 0; u < num_points; ++u) {
    weak.clear();
    strict.clear();
    index->CollectReachable(u, &weak, &strict, &scratch);
    strict_out_off[u + 1] = strict_out_off[u] + static_cast<int>(strict.size());
    strict_out.insert(strict_out.end(), strict.begin(), strict.end());
    for (int v : strict) ++strict_in_all_alive[v];
  }
}

void EnumerationContext::DeriveMasks(const Reachability& reach) {
  const int n = num_points;
  has_masks = true;
  desc_mask.assign(n, 0);
  anc_mask.assign(n, 0);
  strict_anc_mask.assign(n, 0);
  for (int u = 0; u < n; ++u) {
    const uint64_t u_bit = uint64_t{1} << u;
    uint64_t down = 0;
    int degree = 0;
    for (int v = 0; v < n; ++v) {
      if (reach.reach.Get(u, v)) {  // diagonal set: self included
        down |= uint64_t{1} << v;
        anc_mask[v] |= u_bit;
      }
      if (reach.strict.Get(u, v)) {
        ++degree;
        strict_anc_mask[v] |= u_bit;
      }
    }
    desc_mask[u] = down;
    strict_out_off[u + 1] = strict_out_off[u] + degree;
  }
  strict_out.resize(strict_out_off[n]);
  for (int u = 0, k = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (reach.strict.Get(u, v)) {
        strict_out[k++] = v;
        ++strict_in_all_alive[v];
      }
    }
  }
}

bool EnumerationContext::Reaches(int u, int v, ReachProbeStats* stats) const {
  if (index != nullptr) return index->Reaches(u, v, stats);
  if (stats != nullptr) {
    ++stats->probes;
    ++stats->fast_hits;
  }
  if (has_masks) return (desc_mask[u] >> v) & 1;
  return closure->reach.Get(u, v);
}

bool EnumerationContext::Comparable(int u, int v,
                                    ReachProbeStats* stats) const {
  if (index != nullptr) return index->Comparable(u, v, stats);
  if (stats != nullptr) {
    ++stats->probes;
    ++stats->fast_hits;
  }
  if (has_masks) {
    return (((desc_mask[u] >> v) | (desc_mask[v] >> u)) & 1) != 0;
  }
  return closure->reach.Get(u, v) || closure->reach.Get(v, u);
}

namespace {

// Cross-revision reuse: when the new dag extends the dag the previous
// revision's index was built for (same leading vertices, the old edge
// log a prefix of the new edge list — the shape a service APPEND or WAL
// replay produces), grow a copy of that index by the appended vertices
// and edges instead of rebuilding from scratch. Returns null when the
// dags diverged (points merged, edges upgraded or reordered).
std::shared_ptr<const EnumerationContext> TryExtendPreviousContext(
    const NormDb& db) {
  auto prev = std::static_pointer_cast<const EnumerationContext>(
      db.prev_order_context);
  if (prev->index == nullptr) return nullptr;
  const std::vector<LabeledEdge>& log = prev->index->edge_log();
  const std::vector<LabeledEdge>& edges = db.dag.edges();
  if (db.num_points() < prev->index->num_vertices() ||
      edges.size() < log.size()) {
    return nullptr;
  }
  for (size_t i = 0; i < log.size(); ++i) {
    if (edges[i].from != log[i].from || edges[i].to != log[i].to ||
        edges[i].rel != log[i].rel) {
      return nullptr;
    }
  }
  auto grown = std::make_shared<ReachabilityIndex>(*prev->index);
  while (grown->num_vertices() < db.num_points()) grown->AddVertex();
  grown->AppendEdges(std::span<const LabeledEdge>(edges).subspan(log.size()));
  return std::make_shared<const EnumerationContext>(db, std::move(grown));
}

}  // namespace

std::shared_ptr<const EnumerationContext> SharedEnumerationContext(
    const NormDb& db) {
  if (db.order_context_cache != nullptr) {
    return std::static_pointer_cast<const EnumerationContext>(
        db.order_context_cache);
  }
  std::shared_ptr<const EnumerationContext> context;
  if (db.prev_order_context != nullptr) {
    context = TryExtendPreviousContext(db);
    db.prev_order_context = nullptr;  // one hop; release the old context
  }
  if (context == nullptr) {
    context = std::make_shared<const EnumerationContext>(db);
  }
  db.order_context_cache = context;
  return context;
}

std::shared_ptr<const EnumerationContext> EngineOrderContext(
    const NormDb& db, const EnumerationContext* injected) {
  if (injected == nullptr) return SharedEnumerationContext(db);
  // Non-owning: the caller keeps the injected context alive.
  return std::shared_ptr<const EnumerationContext>(
      std::shared_ptr<const EnumerationContext>(), injected);
}

bool ForEachMinimalModel(const NormDb& db, const ModelVisitor& visitor) {
  return ForEachMinimalModelFrom(db, *SharedEnumerationContext(db), visitor);
}

bool ForEachMinimalModelFrom(const NormDb& db,
                             const EnumerationContext& context,
                             const ModelVisitor& visitor) {
  ReachProbeStats stats;
  bool completed;
  if (context.has_masks) {
    MaskSort sort{visitor, context, stats, {}};
    sort.stack.groups.reserve(db.num_points());
    completed = sort.Sort(db.num_points() == 64
                              ? ~uint64_t{0}
                              : (uint64_t{1} << db.num_points()) - 1);
  } else {
    GroupChooser chooser(db, context, stats);
    completed = SortGeneral(chooser, visitor);
  }
  if (visitor.stats != nullptr) {
    visitor.stats->AddReachProbes(stats);
    visitor.stats->index_rebuilds =
        std::max(visitor.stats->index_rebuilds, context.index_rebuilds());
  }
  return completed;
}

long long CountMinimalModels(const NormDb& db, long long limit) {
  long long count = 0;
  ModelVisitor visitor;
  visitor.on_model = [&](const std::vector<std::vector<int>>&) {
    ++count;
    return limit < 0 || count < limit;
  };
  ForEachMinimalModel(db, visitor);
  return count;
}

}  // namespace iodb
