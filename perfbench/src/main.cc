// perfbench_e2e — the end-to-end benchmark command (see README.md):
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans <path>]
//
// Prints one line per metric (name, value, unit, sample counts), the
// saturated phase's work counts and notification digest, and as its last
// line one JSON object with the keys correct, attempted, failed, metrics.
// Exits non-zero on bad arguments; a failed operation is reported in the
// JSON (correct = false), not through the exit code.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "driver.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\nusage: perfbench_e2e --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n"
               "workloads:",
               message);
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its default starting value. Left
  // dynamic, it rises after the first large free, and peak RSS then
  // swings by about 15% between runs of one workload.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed wants an integer");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options.seconds <= 0) {
        return Usage("--seconds wants a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace wants 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--spans") {
      options.spans_path = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  perfbench::WorkloadConfig unused;
  if (!perfbench::MakeWorkload(options.workload, false, &unused)) {
    return Usage(("unknown workload " + options.workload).c_str());
  }

  const perfbench::RunReport report = perfbench::RunBenchmark(options);
  for (const perfbench::Metric& m : report.metrics.all()) {
    if (m.samples > 0) {
      std::printf("metric %s = %.6g %s (samples %zu, beyond %zu)\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples, m.beyond);
    } else {
      std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  std::printf("ops %llu, ops_failed %llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::printf("%s\n", perfbench::ReportJson(report).c_str());
  return 0;
}
