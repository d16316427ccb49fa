// Measurement helpers of the end-to-end benchmark: percentile selection,
// the in-memory span log with self-time subtraction, the open-loop
// (paced) schedule, and the named-metric set the driver prints. Header
// only and free of library dependencies, so the helper tests exercise
// exactly the code the driver runs.

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock — the one time base of every span,
/// schedule slot and latency sample the benchmark records.
inline std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Percentiles ---------------------------------------------------------

/// One percentile of a sample set, with the counts a reader needs to
/// judge it: `samples` in total and `beyond` strictly past the selected
/// rank.
struct Percentile {
  double q = 0.0;  ///< the percentile, 0 < q <= 100
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile `q` of `samples` (sorted in place).
inline Percentile PercentileOf(std::vector<double>& samples, double q) {
  Percentile p;
  p.q = q;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  // The epsilon keeps q * n / 100 from rounding up past an exact rank.
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  p.value = samples[rank - 1];
  p.beyond = n - rank;
  return p;
}

/// The tail percentiles the benchmark may report, highest first.
inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

/// The highest percentile of kTailLadder that has at least `min_beyond`
/// samples beyond it (the median when none has).
inline Percentile TailPercentile(std::vector<double>& samples,
                                 std::size_t min_beyond = 10) {
  for (const double q : kTailLadder) {
    Percentile p = PercentileOf(samples, q);
    if (p.beyond >= min_beyond) return p;
  }
  return PercentileOf(samples, 50.0);
}

/// Percentile `q` of each window of `window` consecutive samples (kept
/// in the order taken), and the median of those per-window values: a
/// tail estimate that a short stall outside the program under test moves
/// in one window only. With fewer than two windows' worth of samples it
/// is the plain percentile. `samples` counts every sample and `beyond`
/// the fewest beyond the percentile in any window.
inline Percentile WindowedPercentile(const std::vector<double>& samples,
                                     double q, std::size_t window) {
  const std::size_t windows = window == 0 ? 1 : samples.size() / window;
  if (windows < 2) {
    std::vector<double> all = samples;
    return PercentileOf(all, q);
  }
  std::vector<double> values;
  std::size_t beyond = samples.size();
  for (std::size_t w = 0; w < windows; ++w) {
    // The last window takes the remainder.
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto last = w + 1 == windows
                          ? samples.end()
                          : first + static_cast<std::ptrdiff_t>(window);
    std::vector<double> part(first, last);
    const Percentile p = PercentileOf(part, q);
    values.push_back(p.value);
    beyond = std::min(beyond, p.beyond);
  }
  Percentile out = PercentileOf(values, 50.0);
  out.q = q;
  out.samples = samples.size();
  out.beyond = beyond;
  return out;
}

/// Arithmetic mean (0 for no samples).
inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

// --- Spans ---------------------------------------------------------------

/// One timed call: name, interval, the span that was open when it began
/// (-1 for a root), and the request id (the epoch index) it served.
struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span log of one single-threaded driver. Spans nest: a span
/// begun while another is open becomes its child. Nothing is written
/// until WriteJsonLines, which the driver calls at exit.
class SpanLog {
 public:
  /// Opens a span now and returns its handle.
  std::int32_t Begin(const char* name, std::uint64_t request) {
    return Begin(name, request, NowNanos());
  }
  /// Opens a span at an explicit time (tests; folded engine phases).
  std::int32_t Begin(const char* name, std::uint64_t request,
                     std::int64_t start) {
    spans_.push_back(Span{name, start, start, open_, request});
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return open_;
  }
  /// Closes span `id` now (or at `end`) and reopens its parent.
  void End(std::int32_t id) { End(id, NowNanos()); }
  void End(std::int32_t id, std::int64_t end) {
    spans_[static_cast<std::size_t>(id)].end = end;
    open_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  /// Records a closed child of `parent` with a known interval — how the
  /// driver folds the engine's own phase timings under its call span.
  void AddChild(std::int32_t parent, const char* name, std::int64_t start,
                std::int64_t end) {
    spans_.push_back(Span{name, start, end, parent,
                          spans_[static_cast<std::size_t>(parent)].request});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part of its
  /// interval that the union of its children's intervals covers.
  std::vector<std::int64_t> SelfTimes() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                  s.end);
      }
    }
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      std::int64_t covered = 0;
      std::int64_t cursor = s.start;
      for (auto [a, b] : kids) {
        a = std::max(a, cursor);
        b = std::min(b, s.end);
        if (b > a) {
          covered += b - a;
          cursor = b;
        }
      }
      self[i] = (s.end - s.start) - covered;
    }
    return self;
  }

  /// Writes one JSON object per span (with its self time) to `path`.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<std::int64_t> self = SelfTimes();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"request\":%llu,"
                   "\"self_ns\":%lld}\n",
                   i, s.name, static_cast<long long>(s.start),
                   static_cast<long long>(s.end), s.parent,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(self[i]));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// RAII span on an optional log (null = tracing off, no clock read).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t request)
      : log_(log), id_(log != nullptr ? log->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::int32_t id_;
};

// --- Open-loop schedule ----------------------------------------------------

/// A fixed-rate open-loop arrival schedule: document i is due at
/// start + i / rate. Latency is charged from a document's due time, so a
/// stalled epoch inflates the latency of every document that queued
/// behind it.
class PacedSchedule {
 public:
  PacedSchedule(std::int64_t start_nanos, double docs_per_second,
                std::size_t total_docs)
      : start_(start_nanos), rate_(docs_per_second), total_(total_docs) {}

  std::size_t total() const { return total_; }
  /// When document `i` is due.
  std::int64_t DueAt(std::size_t i) const {
    return start_ + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 /
                                              rate_);
  }
  /// Documents due at or before `now` (never more than total()).
  std::size_t DueBy(std::int64_t now) const {
    if (now < start_) return 0;
    const double due = std::floor(static_cast<double>(now - start_) * rate_ /
                                  1e9) + 1.0;
    return std::min<std::size_t>(total_, static_cast<std::size_t>(due));
  }

  /// Appends, for documents [first, first + count) served by one epoch
  /// that completed at `done`, their latency in milliseconds.
  void ChargeEpoch(std::size_t first, std::size_t count, std::int64_t done,
                   std::vector<double>* latencies_ms) const {
    for (std::size_t i = first; i < first + count; ++i) {
      latencies_ms->push_back(static_cast<double>(done - DueAt(i)) / 1e6);
    }
  }

 private:
  std::int64_t start_;
  double rate_;
  std::size_t total_;
};

/// Least-squares growth of a backlog series over its time span: the
/// fitted slope times the observed duration, in documents. Positive
/// when the backlog trended upward from the start of the phase to its
/// end.
inline double BacklogGrowth(const std::vector<std::pair<double, double>>& pts) {
  if (pts.size() < 3) return 0.0;
  double mt = 0.0, mb = 0.0;
  for (const auto& [t, b] : pts) {
    mt += t;
    mb += b;
  }
  mt /= static_cast<double>(pts.size());
  mb /= static_cast<double>(pts.size());
  double cov = 0.0, var = 0.0;
  for (const auto& [t, b] : pts) {
    cov += (t - mt) * (b - mb);
    var += (t - mt) * (t - mt);
  }
  if (var <= 0.0) return 0.0;
  return cov / var * (pts.back().first - pts.front().first);
}

// --- Metrics -----------------------------------------------------------------

/// One named, united metric value, plus the sample counts behind a
/// percentile (0 for plain values).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Ordered metric set; names are unique (Set overwrites).
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    Metric& m = Slot(name);
    m.value = std::isfinite(value) ? value : 0.0;
    m.unit = unit;
  }
  void SetPercentile(const std::string& name, const Percentile& p,
                     const std::string& unit) {
    Set(name, p.value, unit);
    Metric& m = Slot(name);
    m.samples = p.samples;
    m.beyond = p.beyond;
  }
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  Metric& Slot(const std::string& name) {
    for (Metric& m : metrics_) {
      if (m.name == name) return m;
    }
    metrics_.push_back(Metric{name, 0.0, "", 0, 0});
    return metrics_.back();
  }
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
