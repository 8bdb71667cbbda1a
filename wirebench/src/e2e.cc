// The end-to-end run: set up a spawned iodb_serve several times, drive
// the measured phase over Unix sockets from one process, then check
// durability by restarting the server on the same data directory.
//
// Closed-loop readers send their next request when the previous reply
// arrives. Open-loop streams (append_mixed's readers and writer) send on a
// fixed schedule, and every request they send is timed from the moment it
// was due, so a stall that delays later sends shows in their latency and
// in the generator lag.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <thread>

#include "bench.h"
#include "wire.h"

namespace wirebench {

namespace fs = std::filesystem;

namespace {

// Set-up is repeated, and its median reported: at least kMinSetups
// times, and more while the set-ups so far took less than kSetupBudgetS,
// up to kMaxSetups. A cheap set-up (a process spawn, a few LOADs and the
// warm-up) takes milliseconds, and its time varies with the host from one
// set-up to the next.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 41;
constexpr double kSetupBudgetS = 1.0;

// An open-loop sender sleeps until this long before a send is due and
// spins for the rest, so the wake-up latency of the sleep does not show
// as generator lag.
constexpr double kSpinUs = 100;

// One open-loop send: when it was due, as a fraction of its phase, and
// how late the generator sent it.
struct Lag {
  double at = 0;
  double us = 0;
};

// What one client thread saw.
struct Recorder {
  std::vector<double> read_us;
  std::vector<double> batch_us;
  std::vector<double> write_us;
  std::vector<Lag> lag_us;
  long long attempted = 0;
  long long failed = 0;
  long long reads_done = 0;
  std::vector<std::string> errors;      // ERR replies and lost requests
  std::vector<std::string> violations;  // wrong verdicts, MVCC regressions
  std::map<std::string, std::string> last_ack;  // db -> last APPEND reply
  std::map<std::string, long long> last_revision;

  void Merge(const Recorder& other) {
    auto append = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(read_us, other.read_us);
    append(batch_us, other.batch_us);
    append(write_us, other.write_us);
    append(lag_us, other.lag_us);
    append(errors, other.errors);
    append(violations, other.violations);
    attempted += other.attempted;
    failed += other.failed;
    reads_done += other.reads_done;
    for (const auto& [db, reply] : other.last_ack) last_ack[db] = reply;
  }

  void Error(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
  void Violation(const std::string& what) {
    ++failed;
    if (violations.size() < 5) violations.push_back(what);
  }

  // Checks one EVAL reply against the generated verdict.
  void CheckRead(const ReadReq& request, const std::string& reply,
                 bool identity) {
    ++attempted;
    bool entailed = false;
    long long revision = -1;
    if (!ParseVerdict(reply, &entailed, identity ? &revision : nullptr)) {
      Error("EVAL " + request.line + " -> " + reply);
      return;
    }
    ++reads_done;
    if (entailed != request.expected) {
      Violation("verdict mismatch: EVAL " + request.line + " -> " + reply);
      return;
    }
    if (identity) {
      long long& last = last_revision[request.db];
      if (revision < last) {
        Violation("revision went backwards on " + request.db + ": " +
                  std::to_string(last) + " then " + std::to_string(revision));
      }
      last = std::max(last, revision);
    }
  }
};

bool IsIdentity(const ReadReq& request) {
  return request.line.find(" --identity ") != std::string::npos;
}

std::string AppendCommand(const AppendReq& append) {
  return "APPEND " + append.db + "\n" + append.text + "END\n";
}

std::string LoadCommand(const DbText& db) {
  return "LOAD " + db.name + "\n" + db.text + "END\n";
}

// One EVAL round trip; an empty reply means the request never completed.
std::string Eval(Conn& conn, const ReadReq& request) {
  std::string reply;
  if (!conn.Send("EVAL " + request.line + "\n") || !conn.ReadLine(&reply)) {
    return std::string();
  }
  return reply;
}

// One APPEND; records the acknowledgement (the last one per database is
// what the durability check expects after a restart).
void Append(Conn& conn, const AppendReq& append, Recorder& rec) {
  ++rec.attempted;
  std::string reply;
  if (!conn.Send(AppendCommand(append)) || !conn.ReadLine(&reply) ||
      reply.rfind("OK", 0) != 0) {
    rec.Error("APPEND " + append.db + " -> " + reply);
    return;
  }
  rec.last_ack[append.db] = reply;
}

// Sends a BATCH of the given pool reads and checks every member.
void Batch(Conn& conn, const Workload& w, const std::vector<int>& members,
           Recorder& rec) {
  std::string command = "BATCH " + std::to_string(members.size()) + "\n";
  for (int index : members) command += w.pool[static_cast<size_t>(index)].line + "\n";
  const bool sent = conn.Send(command);
  for (int index : members) {
    const ReadReq& request = w.pool[static_cast<size_t>(index)];
    std::string reply;
    if (!sent || !conn.ReadLine(&reply)) reply.clear();
    rec.CheckRead(request, reply, IsIdentity(request));
  }
}

// Runs `count` operations on a fixed schedule (operation i is due at
// start + phase + i / rate) and times each from its due time; `seconds`
// is the length of the phase the lags are placed in.
template <typename Op>
void OpenLoop(Clock::time_point start, double rate, double phase,
              long long count, double seconds, std::vector<double>& latencies,
              Recorder& rec, const Op& op) {
  for (long long i = 0; i < count; ++i) {
    const double offset = phase + static_cast<double>(i) / rate;
    const Clock::time_point due = start + FromSeconds(offset);
    std::this_thread::sleep_until(due - FromSeconds(kSpinUs * 1e-6));
    while (Clock::now() < due) std::this_thread::yield();
    rec.lag_us.push_back({offset / seconds, Micros(Clock::now() - due)});
    op(i);
    latencies.push_back(Micros(Clock::now() - due));
  }
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const fs::directory_entry& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

class Runner {
 public:
  Runner(const Workload& w, const RunConfig& config)
      : w_(w),
        config_(config),
        socket_(config.work_dir + "/s.sock"),
        data_(config.work_dir + "/data") {}

  RunResult Run();

 private:
  std::vector<std::string> ServerArgs(bool prebuild) const {
    // The untimed pre-build only needs its bytes on disk at the end.
    const bool commit = w_.sync_commit && !prebuild;
    std::vector<std::string> args = {
        "--workers=" + std::to_string(kWorkers),
        std::string("--costing=") + (w_.costing ? "on" : "off"),
        std::string("--wal-sync=") + (commit ? "commit" : "none")};
    args.push_back("--listen=" + socket_);
    // Only the durable workload has a data directory. Into one, each LOAD
    // fsyncs a snapshot, and set-up time then followed the host's disk:
    // eval_hot's median set-up moved from 22 to 36 ms between two sets of
    // ten runs.
    if (w_.reopen) args.push_back("--data-dir=" + data_);
    return args;
  }

  bool StartServer(ServerProcess& server, bool prebuild = false) {
    std::string error;
    if (!server.Start(config_.serve_path, ServerArgs(prebuild), &error)) {
      result_.Fail("iodb_serve: " + error);
      return false;
    }
    return true;
  }

  // Sends `command` and expects one "OK ..." reply line.
  bool Command(Conn& conn, const std::string& command, std::string* reply) {
    if (!conn.Send(command) || !conn.ReadLine(reply) ||
        reply->rfind("OK", 0) != 0) {
      result_.Fail("set-up command failed: " +
                   command.substr(0, command.find('\n')) + " -> " + *reply);
      return false;
    }
    return true;
  }

  bool Prebuild();
  bool SetUp(ServerProcess& server);
  Recorder Measure(double* elapsed_s);
  void CheckDurability(const std::map<std::string, std::string>& acks);

  const Workload& w_;
  const RunConfig& config_;
  const std::string socket_;
  const std::string data_;
  RunResult result_;
  uint64_t user_bytes_ = 0;
};

// Builds append_mixed's data directory: LOAD every database and log the
// pre-build appends, then drain the server so the WAL is on disk.
bool Runner::Prebuild() {
  ServerProcess server;
  if (!StartServer(server, true)) return false;
  Conn conn;
  std::string reply;
  if (!conn.Connect(socket_)) {
    result_.Fail("cannot connect to " + socket_);
    return false;
  }
  for (const DbText& db : w_.dbs) {
    if (!Command(conn, LoadCommand(db), &reply)) return false;
    user_bytes_ += db.text.size();
  }
  for (const AppendReq& append : w_.prebuild) {
    if (!Command(conn, AppendCommand(append), &reply)) return false;
    user_bytes_ += append.text.size();
  }
  if (!server.Stop()) {
    result_.Fail("pre-build server did not exit cleanly");
    return false;
  }
  return true;
}

// One set-up: spawn the server and bring it to ready. Returns false (and
// records why) on failure.
bool Runner::SetUp(ServerProcess& server) {
  if (!StartServer(server)) return false;
  if (w_.reopen) return true;  // ready = data directory reopened
  Conn conn;
  std::string reply;
  if (!conn.Connect(socket_)) {
    result_.Fail("cannot connect to " + socket_);
    return false;
  }
  for (const DbText& db : w_.dbs) {
    if (!Command(conn, LoadCommand(db), &reply)) return false;
  }
  Recorder warm;
  for (int index : w_.warmup) {
    const ReadReq& request = w_.pool[static_cast<size_t>(index)];
    warm.CheckRead(request, Eval(conn, request), IsIdentity(request));
  }
  for (const std::string& v : warm.violations) result_.Fail("warm-up: " + v);
  for (const std::string& e : warm.errors) result_.Fail("warm-up: " + e);
  return warm.failed == 0;
}

// The measured phase: the readers and, on append_mixed, the writer.
// Every client connects first; the clock starts once all are in.
Recorder Runner::Measure(double* elapsed_s) {
  const double seconds = config_.seconds;
  std::vector<Recorder> recs(static_cast<size_t>(kReaders) + 1);
  std::vector<std::thread> threads;
  std::atomic<int> connected{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  auto connect = [&](Conn& conn, Recorder& rec) {
    const bool ok = conn.Connect(socket_);
    if (!ok) rec.Error("cannot connect to " + socket_);
    ++connected;
    while (!go.load()) std::this_thread::yield();
    return ok;
  };

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Recorder& rec = recs[static_cast<size_t>(r)];
      Conn conn;
      if (!connect(conn, rec)) return;
      const std::vector<int>& stream = w_.streams[static_cast<size_t>(r)];
      size_t next = 0;
      auto draw = [&] { return stream[next++ % stream.size()]; };
      if (w_.read_rate > 0) {
        const double rate = w_.read_rate / kReaders;
        OpenLoop(start, rate, r / w_.read_rate,
                 static_cast<long long>(rate * seconds), seconds, rec.read_us,
                 rec, [&](long long) {
                   const ReadReq& request = w_.pool[static_cast<size_t>(draw())];
                   rec.CheckRead(request, Eval(conn, request), IsIdentity(request));
                 });
        return;
      }
      const Clock::time_point end = start + FromSeconds(seconds);
      for (long long op = 1;; ++op) {
        const Clock::time_point t0 = Clock::now();
        if (t0 >= end) break;
        if (w_.batch_every > 0 && op % w_.batch_every == 0) {
          std::vector<int> members;
          for (int i = 0; i < kBatchSize; ++i) members.push_back(draw());
          Batch(conn, w_, members, rec);
          rec.batch_us.push_back(Micros(Clock::now() - t0));
        } else {
          const ReadReq& request = w_.pool[static_cast<size_t>(draw())];
          rec.CheckRead(request, Eval(conn, request), IsIdentity(request));
          rec.read_us.push_back(Micros(Clock::now() - t0));
        }
      }
    });
  }
  if (w_.write_rate > 0) {
    threads.emplace_back([&] {
      Recorder& rec = recs.back();
      Conn conn;
      if (!connect(conn, rec)) return;
      OpenLoop(start, w_.write_rate, 0.25 / w_.write_rate,
               static_cast<long long>(w_.appends.size()), seconds,
               rec.write_us, rec, [&](long long i) {
                 Append(conn, w_.appends[static_cast<size_t>(i)], rec);
               });
    });
  }
  while (connected.load() < static_cast<int>(threads.size())) {
    std::this_thread::yield();
  }
  start = Clock::now();
  go = true;
  for (std::thread& thread : threads) thread.join();
  *elapsed_s = Seconds(Clock::now() - start);

  Recorder total;
  for (const Recorder& rec : recs) total.Merge(rec);
  return total;
}

// Restarts the server on the run's data directory and checks that INFO
// reports every acknowledged append: the same atom count and revision.
void Runner::CheckDurability(const std::map<std::string, std::string>& acks) {
  ServerProcess server;
  if (!StartServer(server)) return;
  Conn conn;
  if (!conn.Connect(socket_)) {
    result_.Fail("durability: cannot reconnect");
    return;
  }
  for (const auto& [db, ack] : acks) {
    // ack: "OK db=<name> atoms=<n> revision=<r>"
    const std::string atoms = ack.substr(ack.find(" atoms="));
    const std::string acked_atoms = atoms.substr(0, atoms.find(' ', 1));
    const std::string acked_revision = ack.substr(ack.find(" revision="));
    std::string info;
    if (!conn.Send("INFO " + db + "\n") || !conn.ReadLine(&info) ||
        info.find(acked_atoms + " ") == std::string::npos ||
        info.find(acked_revision + " ") == std::string::npos) {
      result_.Fail("durability: last ack '" + ack + "' but after restart '" +
                   info + "'");
    }
  }
  if (!server.Stop()) result_.Fail("durability: restarted server did not exit cleanly");
}

RunResult Runner::Run() {
  fs::remove_all(config_.work_dir);
  fs::create_directories(config_.work_dir);
  if (w_.reopen && !Prebuild()) return result_;

  std::vector<double> setups;
  double setup_total = 0;
  ServerProcess server;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    if (!SetUp(server)) return result_;
    setups.push_back(Seconds(Clock::now() - t0));
    setup_total += setups.back();
    const int done = static_cast<int>(setups.size());
    if (done >= kMaxSetups || (done >= kMinSetups && setup_total >= kSetupBudgetS)) {
      break;
    }
    if (!server.Stop()) {
      result_.Fail("set-up server did not exit cleanly");
      return result_;
    }
  }
  if (w_.reopen) {
    // Untimed: cache every plan before the measured phase.
    Conn conn;
    if (!conn.Connect(socket_)) {
      result_.Fail("cannot connect to " + socket_);
      return result_;
    }
    for (int index : w_.warmup) Eval(conn, w_.pool[static_cast<size_t>(index)]);
  }

  double elapsed = 0;
  const Recorder rec = Measure(&elapsed);
  const double rss_mb = server.PeakRssMb();
  if (!server.Stop()) result_.Fail("server did not exit cleanly on SIGTERM");
  for (const AppendReq& append : w_.appends) user_bytes_ += append.text.size();
  const double stored = w_.reopen ? static_cast<double>(DirectoryBytes(data_)) : 0;
  if (!rec.last_ack.empty()) CheckDurability(rec.last_ack);

  for (const std::string& v : rec.violations) result_.Fail(v);
  for (const std::string& e : rec.errors) result_.notes.push_back("failed: " + e);
  result_.attempted = rec.attempted;
  result_.failed = rec.failed;

  // A backlog shows as generator lag that grows across the phase.
  std::vector<double> early;
  std::vector<double> late;
  std::vector<double> lags;
  for (const Lag& lag : rec.lag_us) {
    lags.push_back(lag.us);
    if (lag.at < 0.25) early.push_back(lag.us);
    if (lag.at >= 0.75) late.push_back(lag.us);
  }
  const double lag_growth = Percentile(late, 0.5) - Percentile(early, 0.5);
  const bool steady = lag_growth < 1000;
  if (!steady) {
    result_.notes.push_back("unsteady: generator lag grew by " +
                            std::to_string(lag_growth) + " us (backlog)");
  }

  result_.Add("setup_s", Percentile(setups, 0.5), "s");
  result_.Add("read_rps", static_cast<double>(rec.reads_done) / elapsed, "1/s");
  result_.Add("read_p50_us", Percentile(rec.read_us, 0.5), "us");
  result_.Add("server_peak_rss_mb", rss_mb, "MiB");
  // Printed, not gated. On a shared machine the p99s, and the BATCH and
  // APPEND latencies, follow the host's load more than the server's (their
  // run-to-run spread reached 0.25-1.1 of the median when the host was
  // busy); BATCHes (eval_deep), and APPENDs and a data directory
  // (append_mixed), exist on one workload each; the generator lag measures
  // the client.
  result_.AddExtra("read_p99_us", Percentile(rec.read_us, 0.99), "us");
  auto latency = [this](const std::string& name, const std::vector<double>& us) {
    if (us.empty()) return;
    result_.AddExtra(name + "_p50_us", Percentile(us, 0.5), "us");
    result_.AddExtra(name + "_p99_us", Percentile(us, 0.99), "us");
  };
  latency("batch", rec.batch_us);
  latency("write", rec.write_us);
  if (!lags.empty()) result_.AddExtra("gen_lag_p99_us", Percentile(lags, 0.99), "us");
  result_.AddExtra("error_rate",
                   rec.attempted == 0 ? 0
                                      : static_cast<double>(rec.failed) /
                                            static_cast<double>(rec.attempted),
                   "ratio");
  result_.AddExtra("read_samples", static_cast<double>(rec.read_us.size()), "count");
  result_.AddExtra("batch_samples", static_cast<double>(rec.batch_us.size()), "count");
  result_.AddExtra("write_samples", static_cast<double>(rec.write_us.size()), "count");
  result_.AddExtra("gen_lag_growth_us", lag_growth, "us");
  result_.AddExtra("steady", steady ? 1 : 0, "bool");
  result_.AddExtra("setups", static_cast<double>(setups.size()), "count");
  result_.AddExtra("setup_max_s", *std::max_element(setups.begin(), setups.end()), "s");
  result_.AddExtra("measured_s", elapsed, "s");
  if (w_.reopen) {
    result_.AddExtra("stored_bytes_per_user_byte",
                     stored / static_cast<double>(user_bytes_), "ratio");
    result_.AddExtra("stored_bytes", stored, "bytes");
    result_.AddExtra("user_bytes", static_cast<double>(user_bytes_), "bytes");
  }
  return result_;
}

}  // namespace

RunResult RunEndToEnd(const Workload& workload, const RunConfig& config) {
  Runner runner(workload, config);
  RunResult result = runner.Run();
  std::error_code ec;
  fs::remove_all(config.work_dir, ec);
  return result;
}

}  // namespace wirebench
