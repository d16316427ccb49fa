// The end-to-end benchmark driver: runs one workload through the
// library's public API (set-up, a saturated closed-loop phase, a paced
// open-loop phase, brute-force audits) and reports its metrics. See
// README.md in this directory for the phases and every metric.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "measure.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// False: the untraced run, reporting the end-to-end metrics. True: an
  /// untraced and a traced session, reporting the per-layer metrics.
  bool trace = false;
  /// Toy sizes for smoke tests.
  bool tiny = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

struct RunReport {
  /// False when any operation failed (see `failed`).
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSet metrics;
  /// Human-readable report lines: failures, the saturated phase's work
  /// counts and notification digest.
  std::vector<std::string> lines;
};

/// Runs `options.workload`; an unknown name comes back as a failed run.
RunReport RunBenchmark(const RunOptions& options);

/// (name, unit) of every metric an untraced run reports.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
/// (name, unit) of every metric a traced run reports.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Renders `report` as the one-line JSON object the benchmark prints
/// last.
std::string ReportJson(const RunReport& report);

}  // namespace perfbench
