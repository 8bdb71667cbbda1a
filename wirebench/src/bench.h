// Shared declarations of the wire benchmark: the generated workload, the
// timing helpers, and the metric table every run prints.
//
// A workload is generated in full from its seed before any server starts,
// and every read carries the verdict computed in-process at generation
// time, so the end-to-end run and the traced run replay the same request
// stream and both check every verdict.

#ifndef WIREBENCH_BENCH_H_
#define WIREBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wirebench {

using Clock = std::chrono::steady_clock;

inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline Clock::duration FromSeconds(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// One database registered at set-up: `text` is the LOAD payload.
struct DbText {
  std::string name;
  std::string text;
};

/// One read: the EVAL argument string (service/request.h wire form) and
/// the verdict computed in-process when the workload was generated.
struct ReadReq {
  std::string db;
  std::string line;
  bool expected = false;
};

/// One APPEND: the payload is parser-format statement text.
struct AppendReq {
  std::string db;
  std::string text;
};

/// Every workload has two reader connections, BATCHes (where it sends
/// any) of eight reads, and a server (or, traced, an in-process service) with two batch workers and
/// the default plan-cache capacity.
inline constexpr int kReaders = 2;
inline constexpr int kBatchSize = 8;
inline constexpr int kWorkers = 2;

struct Workload {
  std::string name;
  /// Statistics-backed costing (--costing) of the server.
  bool costing = true;
  /// --wal-sync=commit (an fsync per APPEND) rather than none.
  bool sync_commit = false;
  /// The client threads and the server share the first `cpus` CPUs the
  /// benchmark may run on (see main.cc).
  int cpus = 1;

  std::vector<DbText> dbs;
  /// Set-up reopens a data directory built (untimed) from `dbs` plus
  /// these appends, instead of LOADing `dbs` into a fresh one.
  bool reopen = false;
  std::vector<AppendReq> prebuild;

  std::vector<ReadReq> pool;  // distinct reads
  std::vector<int> warmup;    // pool indexes sent once during set-up
  /// Total open-loop read rate per second; 0 runs the readers closed-loop.
  double read_rate = 0;
  /// Per reader, the pool indexes it sends, cycled.
  std::vector<std::vector<int>> streams;
  /// Closed loop: every batch_every-th operation of a reader is a BATCH
  /// (0 = never).
  int batch_every = 0;

  /// Open-loop writer: write_rate APPENDs per second, appends[i] due at
  /// i / write_rate (0 = no writer).
  double write_rate = 0;
  std::vector<AppendReq> appends;

  /// Sizes recorded in every result (points, width, distinct queries...).
  std::map<std::string, double> sizes;
};

/// The workload names.
const std::vector<std::string>& WorkloadNames();

/// Generates `name` from `seed` for a run of `seconds` seconds. `tiny`
/// shrinks every size for the self-test. Aborts on an unknown name.
Workload MakeWorkload(const std::string& name, uint64_t seed, int seconds,
                      bool tiny);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a run reports: the metric list plus the contract's counters.
struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;       // printed in the final JSON line
  std::vector<Metric> extra;         // printed in the human-readable table
  std::vector<std::string> notes;    // correctness failures, warnings

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void AddExtra(const std::string& name, double value,
                const std::string& unit) {
    extra.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back(why);
  }
};

struct RunConfig {
  std::string serve_path;  // iodb_serve binary
  std::string work_dir;    // scratch directory for sockets and data dirs
  uint64_t seed = 1;
  int seconds = 10;
  bool tiny = false;
};

/// The end-to-end run: a spawned iodb_serve driven over a Unix socket.
RunResult RunEndToEnd(const Workload& workload, const RunConfig& config);

/// The traced run: the same request stream replayed in-process through
/// each layer's public functions, with spans.
RunResult RunTraced(const Workload& workload, const RunConfig& config);

}  // namespace wirebench

#endif  // WIREBENCH_BENCH_H_
