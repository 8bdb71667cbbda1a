// Workload generation. Every database and query comes from the
// src/workload generators (plus the Section 7 coloring reduction for the
// inequality class), seeded from --seed, and every read's verdict is
// computed here in-process: by forced brute force when the database is
// small enough to enumerate its minimal models, by the default route
// otherwise.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "bench.h"
#include "core/parser.h"
#include "core/prepare.h"
#include "core/printer.h"
#include "reductions/coloring_to_inequality.h"
#include "service/request.h"
#include "service/service.h"
#include "workload/generators.h"

namespace wirebench {

using namespace iodb;

namespace {

constexpr int kPredicates = 4;
// Databases with at most this many points are checked by forced brute
// force: a width-2 database of 12 points has at most C(12,6) = 924
// linearizations before ties.
constexpr int kBruteForcePoints = 12;
// eval_deep requests carry this deadline; it is about 100x the slowest
// request the generator admits, so only a stalled server trips it.
constexpr long long kDeepDeadlineMs = 2000;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "wirebench: %s\n", message.c_str());
  std::exit(2);
}

// Holds the generation-side copies of the databases and computes the
// expected verdict of every read.
class Generator {
 public:
  explicit Generator(Workload* w) : w_(w), vocab_(std::make_shared<Vocabulary>()) {
    DeclareMonadicPredicates(*vocab_, kPredicates);
  }

  const VocabularyPtr& vocab() const { return vocab_; }

  void AddDb(const std::string& name, Database db) {
    w_->dbs.push_back({name, ToString(db)});
    dbs_.insert_or_assign(name, std::move(db));
  }

  // Registers `db` for verdicts without loading it (a state reached by
  // appends after the LOAD).
  void SetVerdictState(const std::string& name, Database db) {
    dbs_.insert_or_assign(name, std::move(db));
  }

  int Points(const std::string& name) const {
    Result<const NormDb*> norm = dbs_.at(name).NormView();
    if (!norm.ok()) Die("database '" + name + "' is inconsistent");
    return norm.value()->num_points();
  }

  // The verdict of `query` on database `name`, plus the engine work it
  // took (states visited + models enumerated).
  bool Verdict(const std::string& name, const std::string& query,
               OrderSemantics semantics, long long* work = nullptr) {
    const Database& database = dbs_.at(name);
    const bool brute = Points(name) <= kBruteForcePoints;
    auto key = std::make_tuple(query, static_cast<int>(semantics), brute);
    auto it = plans_.find(key);
    if (it == plans_.end()) {
      Result<Query> parsed = ParseQuery(query, vocab_);
      if (!parsed.ok()) Die("generated query does not parse: " + query);
      EntailOptions options;
      options.semantics = semantics;
      options.engine = brute ? EngineKind::kBruteForce : EngineKind::kAuto;
      Result<PreparedQuery> plan = Prepare(vocab_, parsed.value(), options);
      if (!plan.ok()) Die("cannot prepare generated query: " + query);
      it = plans_
               .emplace(key, std::make_unique<PreparedQuery>(
                                 std::move(plan.value())))
               .first;
    }
    Result<EntailResult> result = it->second->Evaluate(database);
    if (!result.ok()) {
      Die("expected verdict failed on '" + name + "': " +
          result.status().ToString());
    }
    if (work != nullptr) {
      *work = result.value().states_visited + result.value().models_enumerated;
    }
    return result.value().entailed;
  }

  int AddRead(const std::string& db, const std::string& query,
              OrderSemantics semantics, long long deadline_ms, bool identity,
              bool expected, EngineKind engine = EngineKind::kAuto) {
    EvalRequest request;
    request.db = db;
    request.query = query;
    request.options.semantics = semantics;
    request.options.engine = engine;
    request.deadline_ms = deadline_ms;
    request.report_identity = identity;
    w_->pool.push_back({db, FormatEvalRequest(request), expected});
    return static_cast<int>(w_->pool.size()) - 1;
  }

 private:
  Workload* w_;
  VocabularyPtr vocab_;
  std::map<std::string, Database> dbs_;
  std::map<std::tuple<std::string, int, bool>, std::unique_ptr<PreparedQuery>>
      plans_;
};

// Independent generator streams per purpose, so eval_hot and plan_churn
// see the same databases for one seed.
Rng SubRng(uint64_t seed, uint64_t salt) {
  return Rng(seed * 0x9E3779B97F4A7C15ULL + salt);
}

std::string Pred(int p) { return "P" + std::to_string(p); }

MonadicDbParams DbParams(int chains, int length) {
  MonadicDbParams params;
  params.num_chains = chains;
  params.chain_length = length;
  params.num_predicates = kPredicates;
  params.label_probability = 0.5;
  params.le_probability = 0.2;
  return params;
}

// The eval_hot / plan_churn databases: width 2, 16-24 points (tiny:
// 8-10 points, so brute force checks every verdict).
std::vector<std::string> AddHotDbs(Generator& gen, uint64_t seed, bool tiny) {
  Rng rng = SubRng(seed, 1);
  std::vector<std::string> names;
  const int count = tiny ? 3 : 8;
  for (int d = 0; d < count; ++d) {
    const int length = tiny ? rng.UniformInt(4, 5) : rng.UniformInt(8, 12);
    names.push_back("hot" + std::to_string(d));
    gen.AddDb(names.back(),
              RandomMonadicDb(DbParams(2, length), gen.vocab(), rng));
  }
  return names;
}

std::string ConjunctiveQueryText(Generator& gen, Rng& rng, int min_vars,
                                 int max_vars) {
  return ToString(RandomConjunctiveMonadicQuery(
      rng.UniformInt(min_vars, max_vars), kPredicates, 0.6, 0.4, 0.2,
      gen.vocab(), rng));
}

std::vector<int> UniformStream(Rng& rng, int pool, int length) {
  std::vector<int> stream(static_cast<size_t>(length));
  for (int& index : stream) index = static_cast<int>(rng.Uniform(pool));
  return stream;
}

// Appends that grow one chain of a database by one labelled point each,
// named <prefix><k>. `tails` holds the current last point of each chain.
struct ChainGrower {
  std::string db;
  std::string prefix;
  std::vector<std::string> tails;
  int next = 0;

  AppendReq Next(Rng& rng) {
    const std::string point = prefix + std::to_string(next);
    std::string& tail = tails[static_cast<size_t>(next) % tails.size()];
    ++next;
    std::string text = Pred(rng.UniformInt(0, kPredicates - 1)) + "(" +
                       point + ")\n";
    if (rng.Bernoulli(0.5)) {
      text += Pred(rng.UniformInt(0, kPredicates - 1)) + "(" + point + ")\n";
    }
    text += tail + (rng.Bernoulli(0.2) ? " <= " : " < ") + point + "\n";
    tail = point;
    return {db, text};
  }
};

// The chain tails of a RandomMonadicDb database (constants c<chain>_<i>).
std::vector<std::string> Tails(int chains, int length) {
  std::vector<std::string> tails;
  for (int c = 0; c < chains; ++c) {
    tails.push_back("c" + std::to_string(c) + "_" + std::to_string(length - 1));
  }
  return tails;
}

void MakeEvalHot(Workload& w, uint64_t seed, bool tiny) {
  Generator gen(&w);
  std::vector<std::string> dbs = AddHotDbs(gen, seed, tiny);
  Rng rng = SubRng(seed, 2);
  const int templates = tiny ? 4 : 16;
  for (int t = 0; t < templates; ++t) {
    const std::string query = ConjunctiveQueryText(gen, rng, 2, 4);
    for (const std::string& db : dbs) {
      gen.AddRead(db, query, OrderSemantics::kFinite, -1, false,
                  gen.Verdict(db, query, OrderSemantics::kFinite));
    }
  }
  const int pool = static_cast<int>(w.pool.size());
  for (int i = 0; i < pool; ++i) w.warmup.push_back(i);
  for (int r = 0; r < kReaders; ++r) {
    w.streams.push_back(UniformStream(rng, pool, 1 << 16));
  }
  w.sizes["query_templates"] = templates;
  w.sizes["distinct_queries"] = templates;
}

void MakeEvalDeep(Workload& w, uint64_t seed, bool tiny) {
  Generator gen(&w);
  Rng rng = SubRng(seed, 3);
  auto semantics = [&rng] {
    switch (rng.UniformInt(0, 3)) {
      case 2: return OrderSemantics::kInteger;
      case 3: return OrderSemantics::kRational;
      default: return OrderSemantics::kFinite;
    }
  };
  // Fills quotas[i] reads into work band [bands[i], bands[i+1]), work
  // being the states visited plus models enumerated. Fixed quotas keep the
  // cost mix, and so every latency percentile, about the same from seed
  // to seed. Tiny sizes take the first candidates, whatever their work.
  auto fill = [&](const std::vector<std::string>& dbs,
                  const std::vector<long long>& bands, std::vector<int> quotas,
                  const auto& make_query) {
    int missing = 0;
    for (int quota : quotas) missing += quota;
    for (int tries = 0; missing > 0; ++tries) {
      if (tries > 20000) Die("eval_deep: cannot fill the work bands");
      const std::string& db = dbs[static_cast<size_t>(tries) % dbs.size()];
      const std::string query = make_query();
      const OrderSemantics sem = semantics();
      long long work = 0;
      const bool expected = gen.Verdict(db, query, sem, &work);
      const size_t band = static_cast<size_t>(
          std::upper_bound(bands.begin(), bands.end(), work) - bands.begin());
      if (tiny || (band >= 1 && band < bands.size() && quotas[band - 1] > 0)) {
        if (!tiny) --quotas[band - 1];
        --missing;
        gen.AddRead(db, query, sem, kDeepDeadlineMs, false, expected);
      }
    }
  };

  // Theorem 4.7: conjunctive monadic queries on width 4-5 databases. The
  // engine is polynomial and fast at these sizes (about 0.05-0.5 ms a
  // request), so this class sits below the others.
  std::vector<std::string> wide;
  for (int d = 0; d < (tiny ? 1 : 8); ++d) {
    wide.push_back("bw" + std::to_string(d));
    gen.AddDb(wide.back(), RandomMonadicDb(DbParams(tiny ? 2 : 4 + d % 2,
                                                    tiny ? 4 : 40),
                                           gen.vocab(), rng));
  }
  fill(wide, {0, 1LL << 40}, {tiny ? 2 : 24},
       [&] { return ConjunctiveQueryText(gen, rng, 6, 8); });

  // Theorem 5.3: disjunctive monadic queries on width 3 databases. Their
  // cost spans two decades, so they are drawn in bands of states (about
  // 0.5-1, 1-1.5, 1.5-2, 2-5 and 5-8 ms a request). Half of them fall in
  // the narrow [700, 1000) band, over 24 databases, and the median read
  // falls inside it (32 requests are cheaper and 24 dearer, with the 12
  // coloring instances on either side), so read_p50_us does not hinge on a
  // few draws.
  std::vector<std::string> narrow;
  for (int d = 0; d < (tiny ? 1 : 24); ++d) {
    narrow.push_back("dj" + std::to_string(d));
    gen.AddDb(narrow.back(), RandomMonadicDb(DbParams(tiny ? 2 : 3,
                                                      tiny ? 4 : 12),
                                             gen.vocab(), rng));
  }
  fill(narrow, {300, 700, 1000, 1500, 3000, 4500},
       tiny ? std::vector<int>{2} : std::vector<int>{8, 32, 8, 8, 8}, [&] {
         return ToString(RandomDisjunctiveSequentialQuery(
             3, 3, kPredicates, 0.3, 0.2, gen.vocab(), rng));
       });

  // Section 7: 3-colorability as entailment over "!=" databases, forced
  // onto the brute-force engine (the default route takes the disjunctive
  // one). The database entails the query iff the graph is not
  // 3-colorable, which gives the verdict. Graphs of 8 vertices and 13-15
  // edges cost about 0.5-5 ms: a colorable graph stops at its first
  // countermodel, so half the instances are drawn colorable and half not.
  int colorable = tiny ? 1 : 6;
  int uncolorable = tiny ? 0 : 6;
  for (int d = 0; colorable + uncolorable > 0; ++d) {
    if (d > 5000) Die("eval_deep: cannot draw the coloring instances");
    SimpleGraph graph = RandomGraph(tiny ? 4 : 8, 0.5, rng);
    if (!tiny && (graph.edges.size() < 13 || graph.edges.size() > 15)) continue;
    // An isolated vertex would print as an object constant, clashing with
    // the order sort its predicate has elsewhere.
    std::vector<bool> touched(static_cast<size_t>(graph.num_vertices), false);
    for (const auto& [u, v] : graph.edges) {
      touched[static_cast<size_t>(u)] = touched[static_cast<size_t>(v)] = true;
    }
    if (std::find(touched.begin(), touched.end(), false) != touched.end()) continue;
    const bool three_colorable = IsThreeColorable(graph);
    int& quota = three_colorable ? colorable : uncolorable;
    if (quota == 0) continue;
    --quota;
    ColoringDataInstance instance = ColoringToData(graph, gen.vocab());
    const std::string name = "neq" + std::to_string(d);
    gen.AddDb(name, std::move(instance.db));
    gen.AddRead(name, ToString(instance.query), OrderSemantics::kFinite,
                kDeepDeadlineMs, false, !three_colorable,
                EngineKind::kBruteForce);
  }

  const int pool = static_cast<int>(w.pool.size());
  for (int i = 0; i < pool; ++i) w.warmup.push_back(i);
  for (int r = 0; r < kReaders; ++r) {
    w.streams.push_back(UniformStream(rng, pool, 1 << 14));
  }
  w.batch_every = 4;
  // Compute-bound: the two readers and the batch workers each keep a CPU.
  w.cpus = 4;
  w.sizes["distinct_queries"] = pool;
}

// Zipf(s = 1) over ranks [0, n): inverse-CDF sampling.
class Zipf {
 public:
  explicit Zipf(int n) : cdf_(static_cast<size_t>(n)) {
    double sum = 0;
    for (int r = 0; r < n; ++r) {
      sum += 1.0 / (r + 1);
      cdf_[static_cast<size_t>(r)] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  int Sample(Rng& rng) const {
    const double u = static_cast<double>(rng.Next() >> 11) * 0x1p-53;
    return static_cast<int>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                            cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

void MakePlanChurn(Workload& w, uint64_t seed, bool tiny) {
  Generator gen(&w);
  std::vector<std::string> dbs = AddHotDbs(gen, seed, tiny);
  Rng rng = SubRng(seed, 4);
  const int distinct = tiny ? 256 : 4096;
  std::vector<std::string> queries;
  std::set<std::string> seen;
  while (static_cast<int>(queries.size()) < distinct) {
    std::string query = ConjunctiveQueryText(gen, rng, 2, 5);
    if (seen.insert(query).second) queries.push_back(std::move(query));
  }
  const Zipf zipf(distinct);
  std::map<std::pair<int, int>, int> index;  // (query, db) -> pool index
  auto draw = [&] {
    const int q = zipf.Sample(rng);
    const int d = static_cast<int>(rng.Uniform(dbs.size()));
    auto [it, fresh] = index.try_emplace({q, d}, 0);
    if (fresh) {
      const std::string& db = dbs[static_cast<size_t>(d)];
      const std::string& query = queries[static_cast<size_t>(q)];
      it->second = gen.AddRead(db, query, OrderSemantics::kFinite, -1, false,
                               gen.Verdict(db, query, OrderSemantics::kFinite));
    }
    return it->second;
  };
  const int length = tiny ? 1 << 10 : 1 << 15;
  for (int r = 0; r < kReaders; ++r) {
    std::vector<int> stream;
    for (int i = 0; i < length; ++i) stream.push_back(draw());
    w.streams.push_back(std::move(stream));
  }
  w.warmup.assign(w.streams[0].begin(), w.streams[0].begin() + 128);
  w.sizes["distinct_queries"] = distinct;
  w.sizes["distinct_requests"] = static_cast<double>(w.pool.size());
}

void MakeAppendMixed(Workload& w, uint64_t seed, int seconds, bool tiny) {
  Generator gen(&w);
  Rng rng = SubRng(seed, 5);
  const int chains = 2;
  const int length = tiny ? 6 : 30;
  std::vector<ChainGrower> growers;
  for (int d = 0; d < 4; ++d) {
    const std::string name = "app" + std::to_string(d);
    gen.AddDb(name, RandomMonadicDb(DbParams(chains, length), gen.vocab(), rng));
    growers.push_back({name, "a" + std::to_string(d) + "_", Tails(chains, length)});
  }
  // The pre-built state: every database grown by `prebuild` appends,
  // replayed from the WAL at each set-up.
  const int prebuild = tiny ? 3 : 25;
  std::map<std::string, std::string> grown;
  for (const DbText& db : w.dbs) grown[db.name] = db.text;
  for (int i = 0; i < prebuild; ++i) {
    for (ChainGrower& grower : growers) {
      w.prebuild.push_back(grower.Next(rng));
      grown[grower.db] += w.prebuild.back().text;
    }
  }
  for (const auto& [name, text] : grown) {
    Result<Database> db = ParseDatabase(text, gen.vocab());
    if (!db.ok()) Die("pre-built database does not parse");
    gen.SetVerdictState(name, std::move(db.value()));
  }
  // A fixed number of appends, spread evenly over the run, so every run
  // ends at the same database sizes whatever its length. An append's cost
  // grows with its database, and 2000 of them (100 a second for 20 s)
  // overran the one CPU the run has.
  const int appends = tiny ? 20 : 800;
  w.write_rate = static_cast<double>(appends) / seconds;
  for (int i = 0; i < appends; ++i) {
    w.appends.push_back(growers[static_cast<size_t>(i) % growers.size()].Next(rng));
  }
  // Reads: queries entailed by the pre-built state. Appends only add
  // atoms, and positive existential queries are preserved under that, so
  // every verdict stays ENTAILED for the whole run. All have one shape
  // (two labelled points in order), so their cost grows alike with the
  // databases and does not depend on which queries a seed drew.
  const int per_db = tiny ? 2 : 16;
  for (const ChainGrower& grower : growers) {
    std::set<std::string> seen;
    for (int tries = 0; static_cast<int>(seen.size()) < per_db; ++tries) {
      if (tries > 2000) Die("append_mixed: too few entailed queries");
      const std::string query = ToString(RandomSequentialQuery(
          2, kPredicates, 0, 0.2, gen.vocab(), rng));
      if (!seen.count(query) &&
          gen.Verdict(grower.db, query, OrderSemantics::kFinite)) {
        seen.insert(query);
        gen.AddRead(grower.db, query, OrderSemantics::kFinite, -1, true, true);
      }
    }
  }
  const int pool = static_cast<int>(w.pool.size());
  for (int i = 0; i < pool; ++i) w.warmup.push_back(i);
  w.read_rate = tiny ? 200 : 2000;
  for (int r = 0; r < kReaders; ++r) {
    w.streams.push_back(UniformStream(rng, pool, 1 << 16));
  }
  w.sync_commit = true;
  w.reopen = true;
  w.costing = false;
  w.sizes["prebuild_appends"] = static_cast<double>(w.prebuild.size());
  w.sizes["distinct_queries"] = pool;
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1 ? 0 : std::min(values.size() - 1, static_cast<size_t>(rank) - 1);
  return values[index];
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"eval_hot", "eval_deep",
                                                 "plan_churn", "append_mixed"};
  return names;
}

Workload MakeWorkload(const std::string& name, uint64_t seed, int seconds,
                      bool tiny) {
  Workload w;
  w.name = name;
  if (name == "eval_hot") {
    MakeEvalHot(w, seed, tiny);
  } else if (name == "eval_deep") {
    MakeEvalDeep(w, seed, tiny);
  } else if (name == "plan_churn") {
    MakePlanChurn(w, seed, tiny);
  } else if (name == "append_mixed") {
    MakeAppendMixed(w, seed, seconds, tiny);
  } else {
    Die("unknown workload '" + name + "'");
  }
  auto vocab = std::make_shared<Vocabulary>();
  double points = 0;
  for (const DbText& db : w.dbs) {
    Result<Database> parsed = ParseDatabase(db.text, vocab);
    if (!parsed.ok()) {
      Die("generated database '" + db.name + "' does not parse: " +
          parsed.status().ToString());
    }
    Result<const NormDb*> norm = parsed.value().NormView();
    if (!norm.ok()) Die("generated database '" + db.name + "' is inconsistent");
    points += norm.value()->num_points();
    w.sizes["width_max"] =
        std::max(w.sizes["width_max"], static_cast<double>(Width(*norm.value())));
  }
  w.sizes["databases"] = static_cast<double>(w.dbs.size());
  w.sizes["points_total"] = points;
  w.sizes["pool_requests"] = static_cast<double>(w.pool.size());
  w.sizes["plan_cache_capacity"] =
      static_cast<double>(ServiceOptions().plan_cache_capacity);
  w.sizes["appends"] = static_cast<double>(w.appends.size());
  return w;
}

}  // namespace wirebench
