// Theorem 4.7 ablation: the bound is O(|D|^{k+1} · |Φ|) for width-k
// databases. Two sweeps: database size at fixed width (polynomial of
// fixed degree) and width at fixed size (the degree itself grows — the
// exponential dependence on k that Theorem 4.6 shows unavoidable).

#include <benchmark/benchmark.h>

#include "core/entail_bounded_width.h"
#include "workload/generators.h"

namespace iodb {
namespace {

struct Instance {
  NormDb db;
  NormConjunct conjunct;
};

Instance Make(int num_chains, int chain_length, uint64_t seed) {
  Rng rng(seed);
  auto vocab = std::make_shared<Vocabulary>();
  MonadicDbParams params;
  params.num_chains = num_chains;
  params.chain_length = chain_length;
  params.num_predicates = 3;
  params.label_probability = 0.5;
  params.le_probability = 0.2;
  Database db = RandomMonadicDb(params, vocab, rng);
  Result<NormDb> norm = Normalize(db);
  IODB_CHECK(norm.ok());
  Query query =
      RandomConjunctiveMonadicQuery(5, 3, 0.3, 0.4, 0.3, vocab, rng);
  Result<NormQuery> nq = NormalizeQuery(query);
  IODB_CHECK(nq.ok());
  return {std::move(norm.value()), nq.value().disjuncts[0]};
}

void BM_Thm47_DbSweepAtWidth2(benchmark::State& state) {
  Instance inst = Make(2, static_cast<int>(state.range(0)), 53);
  long long states = 0;
  for (auto _ : state) {
    EngineOutcome outcome = EntailBoundedWidth(inst.db, inst.conjunct);
    states = outcome.states_visited;
    benchmark::DoNotOptimize(outcome.entailed);
  }
  state.counters["states"] = static_cast<double>(states);
  state.SetComplexityN(inst.db.num_points());
}
BENCHMARK(BM_Thm47_DbSweepAtWidth2)
    ->RangeMultiplier(2)
    ->Range(8, 256)
    ->Complexity();

void BM_Thm47_WidthSweep(benchmark::State& state) {
  // Fixed total point budget, growing number of chains (width).
  const int k = static_cast<int>(state.range(0));
  Instance inst = Make(k, 24 / k, 59);
  long long states = 0;
  for (auto _ : state) {
    EngineOutcome outcome = EntailBoundedWidth(inst.db, inst.conjunct);
    states = outcome.states_visited;
    benchmark::DoNotOptimize(outcome.entailed);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["width"] = k;
}
BENCHMARK(BM_Thm47_WidthSweep)->DenseRange(1, 6)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace iodb
