// wirebench: the end-to-end benchmark of iodb_serve.
//
//   wirebench --workload NAME --seed N --seconds S --trace 0|1
//             --serve PATH/iodb_serve --work-dir DIR [--tiny]
//
// --trace 0 runs the workload against a spawned iodb_serve over a Unix
// socket and reports the end-to-end metrics; --trace 1 replays the same
// generated request stream in-process with spans and reports the
// per-layer metrics (see README.md). Either prints a human-readable
// table, then, as its last line, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Exit codes: 0 for a correct run, 1 when a verdict, durability or MVCC
// check failed, 2 for bad usage or a refused (non-Release) build.

#include <sched.h>
#include <sys/prctl.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"

#ifndef WIREBENCH_BUILD_TYPE
#define WIREBENCH_BUILD_TYPE "unknown"
#endif

namespace wirebench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: wirebench --workload eval_hot|eval_deep|plan_churn|"
               "append_mixed --seed N --seconds S --trace 0|1 "
               "--serve PATH --work-dir DIR [--tiny]\n");
  return 2;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

// Restricts this process, and so every thread and iodb_serve child it
// starts later, to the first `count` CPUs it may run on; returns their
// list ("0,1"). On one CPU, a wire round trip is a context switch on a
// CPU that does not go idle. Spread over every CPU of a virtual machine,
// each round trip waited for an idle virtual CPU to be woken by the host,
// and closed-loop throughput swung by a factor of two from run to run.
std::string PinToFirstCpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "unpinned";
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::string list;
  for (int cpu = 0; cpu < CPU_SETSIZE && count > 0; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &chosen);
    list += (list.empty() ? "" : ",") + std::to_string(cpu);
    --count;
  }
  if (::sched_setaffinity(0, sizeof(chosen), &chosen) != 0) return "unpinned";
  return list;
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace
}  // namespace wirebench

int main(int argc, char** argv) {
  using namespace wirebench;
  RunConfig config;
  std::string workload_name;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::exit(Usage());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload_name = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atoi(value().c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(value().c_str());
    } else if (arg == "--serve") {
      config.serve_path = value();
    } else if (arg == "--work-dir") {
      config.work_dir = value();
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == workload_name;
  if (!known || config.seconds <= 0 || (trace != 0 && trace != 1) ||
      config.serve_path.empty() || config.work_dir.empty()) {
    return Usage();
  }
  // Same rule as tools/run_benches.sh: numbers from unoptimized builds
  // are not measurements of the system.
  const std::string build_type = WIREBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr, "wirebench: refusing to benchmark a '%s' build; "
                         "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 2;
  }

  const Workload workload =
      MakeWorkload(workload_name, config.seed, config.seconds, config.tiny);
  // Set before any thread or server starts, so all of them inherit both:
  // the CPUs, and a 1 ns timer slack instead of the default 50 us, which
  // would otherwise delay every open-loop send and every server wake-up.
  const std::string cpus = PinToFirstCpus(workload.cpus);
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  RunResult result = trace == 1 ? RunTraced(workload, config)
                                : RunEndToEnd(workload, config);

  std::printf("workload %s  seed %llu  seconds %d  trace %d%s\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              trace, config.tiny ? "  (tiny)" : "");
  std::printf("nproc %u  cpus %s  compiler %s  build %s\n",
              std::thread::hardware_concurrency(), cpus.c_str(), __VERSION__,
              build_type.c_str());
  for (const auto& [name, value] : workload.sizes) {
    std::printf("  size %-28s %s\n", name.c_str(), Number(value).c_str());
  }
  for (const Metric& m : result.metrics) {
    std::printf("  %-40s %16.3f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : result.extra) {
    std::printf("  (%s %.3f %s)\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& note : result.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.Fail("metric " + m.name + " is not finite");
    }
  }
  if (result.attempted < 1) result.Fail("no request was attempted");

  std::string json = std::string("{\"correct\": ") +
                     (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += JsonString(m.name) + ": {\"value\": " +
            (std::isfinite(m.value) ? Number(m.value) : std::string("null")) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  // Metadata for the record: seed, machine, build and generated sizes.
  std::string meta = "{\"seed\": " + std::to_string(config.seed) +
                     ", \"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"cpus\": " + JsonString(cpus) +
                     ", \"compiler\": " + JsonString(__VERSION__) +
                     ", \"build_type\": " + JsonString(build_type);
  for (const auto& [name, value] : workload.sizes) {
    meta += ", " + JsonString(name) + ": " + Number(value);
  }
  std::printf("meta %s}\n", meta.c_str());
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
