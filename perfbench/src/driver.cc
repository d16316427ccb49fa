#include "driver.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/query.h"
#include "core/result_set.h"
#include "core/server.h"
#include "exec/sharded_server.h"
#include "obs/epoch_trace.h"
#include "persist/epoch_log.h"
#include "pipeline/ingest_pipeline.h"
#include "sim/event_stream.h"
#include "sim/notification_consumer.h"
#include "sim/scenario.h"
#include "sim/sim_engine.h"
#include "stream/corpus.h"
#include "text/stopwords.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ita::Document;
using ita::DocumentView;
using ita::Query;
using ita::QueryId;
using ita::RawDocument;
using ita::ResultEntry;
using ita::ServerStats;
using ita::Status;
using ita::StatusOr;
using ita::TermId;
using ita::Timestamp;

double Millis(std::int64_t nanos) { return static_cast<double>(nanos) / 1e6; }
double Micros(std::int64_t nanos) { return static_cast<double>(nanos) / 1e3; }

// --- Work counters ----------------------------------------------------------

// The deterministic work counters the benchmark reads from ServerStats.
// Their saturated-phase totals must repeat exactly at a given seed.
constexpr std::array<const char*, 14> kWorkNames = {
    "docs",        "expired",       "index_inserted", "index_erased",
    "probe_steps", "queries_probed", "list_reads",    "scores",
    "rollups",     "refills",       "rollup_evictions", "result_inserts",
    "result_removes", "tier_moves"};

struct WorkCounts {
  std::array<std::uint64_t, kWorkNames.size()> v{};

  static WorkCounts Of(const ServerStats& s) {
    return WorkCounts{{s.documents_ingested, s.documents_expired,
                       s.index_entries_inserted, s.index_entries_erased,
                       s.threshold_probe_steps, s.queries_probed,
                       s.list_entries_read, s.scores_computed, s.rollup_steps,
                       s.refills, s.rollup_evictions, s.result_insertions,
                       s.result_removals, s.tier_promotions + s.tier_demotions}};
  }
  WorkCounts& operator+=(const WorkCounts& o) {
    for (std::size_t i = 0; i < v.size(); ++i) v[i] += o.v[i];
    return *this;
  }
  WorkCounts operator-(const WorkCounts& o) const {
    WorkCounts d;
    for (std::size_t i = 0; i < v.size(); ++i) d.v[i] = v[i] - o.v[i];
    return d;
  }
  bool operator==(const WorkCounts&) const = default;
  std::uint64_t get(const char* name) const {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (std::string_view(kWorkNames[i]) == name) return v[i];
    }
    return 0;
  }
  std::string ToString() const {
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += std::string(i == 0 ? "" : " ") + kWorkNames[i] + "=" +
             std::to_string(v[i]);
    }
    return out;
  }
};

// --- Run-wide accounting ------------------------------------------------------

// Operations attempted and failed, plus the latency samples every
// session of the run contributes.
struct Tally {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the report
  std::vector<double> register_ms;

  // The message is built only on failure, so the timed path never
  // formats a string.
  void Op(bool ok, const char* what) {
    ++ops;
    if (!ok) Fail(what);
  }
  void Op(const Status& status, const char* what) {
    ++ops;
    if (!status.ok()) Fail(std::string(what) + ": " + status.ToString());
  }
  void Fail(std::string what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(what));
  }
};

// --- Document and query sources ------------------------------------------------

// One churn operation, applied in stream order before the epoch's
// documents.
struct ChurnOp {
  bool reg = false;
  QueryId id = 0;
  Query query;
};

// One ingest epoch as the load source assembled it.
struct Epoch {
  std::uint64_t index = 0;
  std::vector<ChurnOp> churn;
  std::vector<Document> docs;     // pre-analyzed workloads
  std::vector<RawDocument> raw;   // text workloads
  bool has_advance = false;
  Timestamp advance_to = 0;
  std::size_t size() const { return docs.size() + raw.size(); }
};

// Renders a term id as a letter-only pseudo-word of three
// consonant-vowel syllables (10^6 distinct words); the rare rendering
// that is an English stopword gets an extra letter so no term is lost to
// the filter.
std::string PseudoWord(TermId id) {
  static constexpr char kConsonants[] = "bcdfghjklmnpqrstvwxz";
  static constexpr char kVowels[] = "aeiou";
  std::string word;
  std::uint32_t x = id;
  for (int i = 0; i < 3; ++i) {
    const std::uint32_t syllable = x % 100;
    x /= 100;
    word += kConsonants[syllable / 5];
    word += kVowels[syllable % 5];
  }
  if (ita::StopwordSet::English().Contains(word)) word += 'x';
  return word;
}

// Appends `unit` to `epoch` in stream order. A clock advance is kept
// only while no later document follows it: a later arrival's own
// expirations subsume it.
void MergeInto(Epoch* epoch, Epoch&& unit) {
  for (ChurnOp& op : unit.churn) epoch->churn.push_back(std::move(op));
  if (unit.size() > 0) epoch->has_advance = false;
  for (Document& d : unit.docs) epoch->docs.push_back(std::move(d));
  for (RawDocument& r : unit.raw) epoch->raw.push_back(std::move(r));
  if (unit.has_advance) {
    epoch->has_advance = true;
    epoch->advance_to = unit.advance_to;
  }
}

class Source {
 public:
  virtual ~Source() = default;
  // Fills `unit` with the next document and the churn due before it.
  virtual void Next(Epoch* unit) = 0;
};

// Pre-analyzed documents and the query population from the scenario
// simulator, one generator epoch per document so the driver can cut
// ingest epochs anywhere.
class GeneratorSource final : public Source {
 public:
  GeneratorSource(const WorkloadConfig& w, std::uint64_t seed)
      : gen_(Spec(w, seed)) {}

  void Next(Epoch* unit) override {
    std::optional<ita::sim::SimEpoch> e = gen_.NextEpoch();
    for (const QueryId id : e->unregister) {
      unit->churn.push_back(ChurnOp{false, id, Query{}});
    }
    for (std::size_t i = 0; i < e->register_ids.size(); ++i) {
      unit->churn.push_back(
          ChurnOp{true, e->register_ids[i], std::move(e->register_queries[i])});
    }
    unit->docs = std::move(e->batch);
    unit->has_advance = e->has_advance;
    unit->advance_to = e->advance_to;
  }

 private:
  static ita::sim::ScenarioSpec Spec(const WorkloadConfig& w,
                                     std::uint64_t seed) {
    ita::sim::ScenarioSpec s;
    s.name = w.name;
    s.window = w.window;
    s.seed = seed;
    s.events = std::size_t{1} << 40;
    s.batch_size = 1;
    s.pool_documents = w.pool_documents;
    s.advance_time = w.advance_period > 0;
    s.advance_period_epochs = w.advance_period;
    s.arrivals.rate_per_second = w.virtual_rate;
    s.vocabulary.dictionary_size = w.dictionary;
    s.vocabulary.length_mu = w.length_mu;
    s.vocabulary.length_sigma = w.length_sigma;
    s.vocabulary.min_length = w.length_min;
    s.vocabulary.max_length = w.length_max;
    s.vocabulary.flood_terms = w.flood_terms;
    s.vocabulary.flood_period_events = w.flood_period;
    s.vocabulary.flood_duration_events = w.flood_duration;
    s.queries.initial_queries = w.queries;
    s.queries.install_after_events = w.prefill_docs;
    s.queries.terms_per_query = w.terms_per_query;
    s.queries.k = w.k;
    s.queries.heavy_tailed_k = w.heavy_tailed_k;
    s.queries.k_max = w.k_max;
    s.queries.hot_max_term = w.hot_max_term;
    s.queries.storm_period_epochs = w.storm_period;
    s.queries.storm_size = w.storm_size;
    return s;
  }

  ita::sim::EventStreamGenerator gen_;
};

// WSJ-calibrated Zipf bodies rendered as pseudo-word text, cycled from a
// pool built at set-up; every epoch analyzes its texts.
class TextSource final : public Source {
 public:
  TextSource(const WorkloadConfig& w, std::uint64_t seed)
      : rng_(seed), gap_micros_(std::max<Timestamp>(
                        1, static_cast<Timestamp>(1e6 / w.virtual_rate))) {
    ita::ZipfDocumentSampler::Options o;
    o.dictionary_size = w.dictionary;
    o.length_mu = w.length_mu;
    o.length_sigma = w.length_sigma;
    o.min_length = w.length_min;
    o.max_length = w.length_max;
    ita::ZipfDocumentSampler sampler(o);
    ita::TermCounts counts;
    pool_.reserve(w.pool_documents);
    for (std::size_t i = 0; i < w.pool_documents; ++i) {
      sampler.SampleBody(&rng_, 0, &counts);
      std::string text;
      for (const auto& [term, n] : counts) {
        const std::string word = PseudoWord(term);
        for (std::uint32_t r = 0; r < n; ++r) {
          text += word;
          text += ' ';
        }
      }
      pool_.push_back(std::move(text));
    }
  }

  void Next(Epoch* unit) override {
    clock_ += gap_micros_;
    unit->raw.push_back(
        RawDocument{pool_[cursor_++ % pool_.size()], clock_});
  }

  // A query of `terms` pseudo-words drawn uniformly from the dictionary.
  std::string QueryText(std::size_t terms, std::size_t dictionary) {
    std::string text;
    for (std::size_t i = 0; i < terms; ++i) {
      text += PseudoWord(static_cast<TermId>(rng_.UniformInt(0, dictionary - 1)));
      text += ' ';
    }
    return text;
  }

 private:
  ita::Rng rng_;
  Timestamp gap_micros_;
  Timestamp clock_ = 0;
  std::size_t cursor_ = 0;
  std::vector<std::string> pool_;
};

// --- Phase outcomes ----------------------------------------------------------

struct SaturatedOutcome {
  std::size_t docs = 0;
  double seconds = 0.0;
  /// Throughput of each block of consecutive epochs (see Saturated).
  std::vector<double> block_docs_per_s;
  WorkCounts work;             // every engine call of the phase
  std::uint64_t digest = 0;    // sim::NotificationConsumer over the phase
  std::uint64_t deliveries = 0;
  ServerStats gauges;          // engine stats at the end of the phase
  double docs_per_s() const { return seconds > 0 ? docs / seconds : 0.0; }
};

struct PacedOutcome {
  std::vector<double> freshness_ms;
  std::vector<double> lag_ms;
  std::size_t docs = 0;
  std::size_t epochs = 0;
  double growth_docs = 0.0;
};

// Per-epoch sums of the traced ingest path; divided by the epoch count
// when reported.
struct TracedSums {
  std::size_t epochs = 0;
  std::size_t docs = 0;
  std::vector<double> ingest_ms;
  std::vector<std::int32_t> ingest_spans;
  double generate_ms = 0, analyze_ms = 0, analyzed_docs = 0, terms = 0;
  double plan_ms = 0, critical_ms = 0, barrier_ms = 0, notify_ms = 0;
  double busy_sum_ms = 0, imbalance = 0;
  double expire_max = 0, expire_sum = 0, arrive_max = 0, arrive_sum = 0;
  std::array<double, ita::obs::kSubSpanCount> sub_max{}, sub_sum{};
  double notifications = 0, migrations = 0;
  WorkCounts ingest_work;
};

// Control-plane and persistence samples of the traced session.
struct ControlSamples {
  WorkCounts register_work;
  std::size_t registrations = 0;
  std::vector<double> unregister_us;
  std::vector<double> result_fetch_us;
  std::vector<double> reshard_ms;
  std::uint64_t reshard_queries = 0;
  std::vector<double> checkpoint_ms;
  std::vector<double> checkpoint_mb;
  std::vector<double> wal_append_us;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_epochs = 0;
};

// --- Session: one engine instance and its stream -----------------------------------

class Session {
 public:
  Session(const WorkloadConfig& w, std::uint64_t seed, SpanLog* spans,
          Tally* tally)
      : w_(w), seed_(seed), spans_(spans), tally_(tally) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  bool traced() const { return spans_ != nullptr; }
  double setup_seconds() const { return setup_seconds_; }
  const TracedSums& traced_sums() const { return sums_; }
  const ControlSamples& control() const { return control_; }

  // Pool synthesis, engine construction, window prefill, initial query
  // registration and settle epochs; times the whole.
  void Setup() {
    const std::int64_t t0 = NowNanos();
    if (w_.text_pipeline) {
      text_ = new TextSource(w_, seed_);
      source_.reset(text_);
      ita::IngestPipelineOptions po;
      po.keep_text = false;
      pipeline_ = std::make_unique<ita::IngestPipeline>(po);
    } else {
      source_ = std::make_unique<GeneratorSource>(w_, seed_);
    }
    const std::size_t threads = std::min<std::size_t>(
        4, std::max(1u, std::thread::hardware_concurrency()));
    if (w_.shards == 0) {
      engine_ = ita::sim::MakeSequentialEngine(
          ita::sim::SequentialStrategy::kIta, w_.window);
    } else {
      engine_ = ita::sim::MakeShardedEngine(w_.window, w_.shards, threads);
      busy_prev_.assign(w_.shards, 0);
    }
    if (traced()) engine_->EnableTracing(8);
    engine_->SetResultListener(
        [this](QueryId id, const std::vector<ResultEntry>&) {
          notified_.push_back(id);
        });

    for (std::size_t done = 0; done < w_.prefill_docs;) {
      const std::size_t n = std::min(w_.prefill_epoch, w_.prefill_docs - done);
      Epoch e = NextEpoch(n);
      RunEpoch(e);
      done += n;
    }
    if (text_ != nullptr) {
      for (std::size_t i = 0; i < w_.queries; ++i) {
        auto q = pipeline_->AnalyzeQuery(
            text_->QueryText(w_.terms_per_query, w_.dictionary), w_.k);
        tally_->Op(q.status(), "AnalyzeQuery");
        if (q.ok()) Register(0, std::move(*q), std::nullopt);
      }
    }
    for (std::size_t i = 0; i < w_.settle_epochs; ++i) {
      Epoch e = NextEpoch(w_.epoch_docs);
      RunEpoch(e);
    }
    setup_seconds_ = static_cast<double>(NowNanos() - t0) / 1e9;
  }

  // Closed loop: `blocks` blocks of the workload's block_epochs epochs of
  // its fixed size, each epoch issued as soon as the previous one (and
  // its result reads) returned. Every block's throughput is recorded, so
  // the run can report a median that a burst of outside load moves
  // little.
  SaturatedOutcome Saturated(std::size_t blocks) {
    SaturatedOutcome out;
    measuring_ = true;
    consumer_ = ita::sim::NotificationConsumer();
    const std::size_t epochs = blocks * w_.block_epochs;
    const std::int64_t pregen = Pregenerate(epochs * w_.epoch_docs);
    in_saturated_ = true;
    if (traced()) sums_.generate_ms += Millis(pregen);
    BeginWorkSegment();
    const std::int64_t t0 = NowNanos();
    std::int64_t block_start = t0;
    std::size_t block_docs = 0;
    for (std::size_t i = 0; i < epochs; ++i) {
      Epoch e = NextEpoch(w_.epoch_docs);
      block_docs += e.size();
      RunEpoch(e);
      if ((i + 1) % w_.block_epochs == 0) {
        const std::int64_t now = NowNanos();
        out.block_docs_per_s.push_back(static_cast<double>(block_docs) * 1e9 /
                                       static_cast<double>(now - block_start));
        out.docs += block_docs;
        block_docs = 0;
        block_start = now;
      }
    }
    out.seconds = static_cast<double>(NowNanos() - t0) / 1e9;
    EndWorkSegment();
    in_saturated_ = false;
    out.work = work_;
    out.digest = consumer_.digest();
    out.deliveries = consumer_.deliveries();
    out.gauges = engine_->stats();
    return out;
  }

  // Open loop at the workload's paced rate for `seconds`. The driver
  // wakes every epoch interval and ingests every document due by then as
  // one epoch; after an overrun it starts the next epoch at once. Each
  // document is charged from its scheduled arrival until its epoch's
  // results were read.
  PacedOutcome Paced(double seconds) {
    PacedOutcome out;
    measuring_ = true;
    const auto total = static_cast<std::size_t>(
        std::max(1.0, std::round(w_.paced_rate * seconds)));
    Pregenerate(total);
    const std::int64_t start = NowNanos() + 1'000'000;
    const PacedSchedule schedule(start, w_.paced_rate, total);
    const auto interval = static_cast<std::int64_t>(w_.paced_interval_ms * 1e6);
    std::vector<std::pair<double, double>> backlog;
    std::size_t next = 0;
    std::int64_t tick = start;
    std::int64_t prev_done = 0;
    while (next < total) {
      tick += interval;
      if (NowNanos() < tick) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(tick)));
      }
      const std::int64_t now = NowNanos();
      const std::size_t due = schedule.DueBy(now);
      if (due <= next) continue;
      const std::size_t n = due - next;
      backlog.emplace_back(static_cast<double>(now) / 1e9,
                           static_cast<double>(n));
      Epoch e = NextEpoch(n);
      out.lag_ms.push_back(Millis(NowNanos() - std::max(tick, prev_done)));
      const std::int64_t done = RunEpoch(e);
      schedule.ChargeEpoch(next, n, done, &out.freshness_ms);
      out.docs += n;
      ++out.epochs;
      next = due;
      prev_done = NowNanos();
    }
    out.growth_docs = BacklogGrowth(backlog);
    const double limit = std::max(8.0, 0.05 * static_cast<double>(total));
    char what[128];
    std::snprintf(what, sizeof what,
                  "paced backlog grew by %.1f documents (limit %.1f)",
                  out.growth_docs, limit);
    tally_->Op(out.growth_docs <= limit, what);
    return out;
  }

  // Recomputes the exact top-k of every live query whose position is
  // `slice` modulo `slices` by brute force over the window and compares
  // it with Result(). Untimed.
  void Audit(std::size_t slice, std::size_t slices) {
    std::vector<DocumentView> docs;
    const ita::DocumentArena& arena =
        engine_->sequential() != nullptr ? engine_->sequential()->documents()
                                         : engine_->sharded()->documents();
    for (const DocumentView d : arena) docs.push_back(d);
    const auto ranks_before = [](const ResultEntry& a, const ResultEntry& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.doc > b.doc;
    };
    std::size_t position = 0;
    std::vector<ResultEntry> expected;
    for (const auto& [id, query] : live_) {
      if (position++ % slices != slice) continue;
      expected.clear();
      for (const DocumentView& d : docs) {
        const double score = ita::ScoreDocument(d.composition, query.terms);
        if (score > 0.0) expected.push_back(ResultEntry{d.id, score});
      }
      const std::size_t k =
          std::min<std::size_t>(static_cast<std::size_t>(query.k), expected.size());
      std::partial_sort(expected.begin(), expected.begin() + k, expected.end(),
                        ranks_before);
      expected.resize(k);
      const auto actual = engine_->Result(id);
      tally_->Op(actual.ok() && *actual == expected,
                 "audit: Result() differs from the brute-force top-k");
    }
  }

  // Unregisters every live query (a subscriber leaving), timing each.
  void Teardown() {
    std::vector<QueryId> ids;
    for (const auto& entry : live_) ids.push_back(entry.first);
    for (const QueryId id : ids) Unregister(0, id);
  }

 private:
  // Generates the next `docs` documents ahead of the phase that ingests
  // them, so the load source's own allocations stay out of its timed
  // loop; returns the time taken.
  std::int64_t Pregenerate(std::size_t docs) {
    ScopedSpan span(spans_, "pregenerate", epoch_index_);
    const std::int64_t t0 = NowNanos();
    for (std::size_t i = 0; i < docs; ++i) {
      Epoch unit;
      source_->Next(&unit);
      ahead_.push_back(std::move(unit));
    }
    return NowNanos() - t0;
  }

  // The next ingest epoch of `docs` documents: pregenerated ones first.
  Epoch NextEpoch(std::size_t docs) {
    ScopedSpan span(spans_, "generate", epoch_index_);
    const std::int64_t t0 = traced() ? NowNanos() : 0;
    Epoch e;
    e.index = epoch_index_++;
    for (std::size_t i = 0; i < docs; ++i) {
      Epoch unit;
      if (ahead_.empty()) {
        source_->Next(&unit);
      } else {
        unit = std::move(ahead_.front());
        ahead_.pop_front();
      }
      MergeInto(&e, std::move(unit));
    }
    if (traced() && in_saturated_) sums_.generate_ms += Millis(NowNanos() - t0);
    return e;
  }

  void Register(std::uint64_t request, Query query,
                std::optional<QueryId> predicted) {
    const WorkCounts before =
        traced() ? WorkCounts::Of(engine_->stats()) : WorkCounts();
    Query copy = query;
    StatusOr<QueryId> id = ita::Status::Internal("not registered");
    {
      ScopedSpan span(spans_, "register", request);
      const std::int64_t t0 = NowNanos();
      id = engine_->RegisterQuery(std::move(query));
      tally_->register_ms.push_back(Millis(NowNanos() - t0));
    }
    if (traced()) {
      control_.register_work += WorkCounts::Of(engine_->stats()) - before;
      ++control_.registrations;
    }
    tally_->Op(id.status(), "RegisterQuery");
    if (!id.ok()) return;
    tally_->Op(!predicted || *id == *predicted, "RegisterQuery id mismatch");
    live_.emplace(*id, std::move(copy));
  }

  void Unregister(std::uint64_t request, QueryId id) {
    ScopedSpan span(spans_, "unregister", request);
    const std::int64_t t0 = NowNanos();
    const Status status = engine_->UnregisterQuery(id);
    if (traced()) control_.unregister_us.push_back(Micros(NowNanos() - t0));
    tally_->Op(status, "UnregisterQuery");
    live_.erase(id);
  }

  // Reads Result() of every query notified by the epoch just applied and
  // hands it to the subscriber model.
  void ReadNotified(std::uint64_t request) {
    ScopedSpan span(spans_, "result", request);
    consumer_.BeginEpoch(consumer_epoch_++);
    for (const QueryId id : notified_) {
      const std::int64_t t0 = traced() ? NowNanos() : 0;
      const auto result = engine_->Result(id);
      if (traced()) control_.result_fetch_us.push_back(Micros(NowNanos() - t0));
      tally_->Op(result.status(), "Result");
      if (result.ok()) consumer_.Deliver(id, *result);
    }
    notified_.clear();
  }

  // Work counters are folded per segment: Reshard restarts every shard's
  // counters, so a segment ends before each reshard and a new one starts
  // after it.
  void BeginWorkSegment() {
    work_ = WorkCounts();
    segment_base_ = WorkCounts::Of(engine_->stats());
  }
  void EndWorkSegment() { work_ += WorkCounts::Of(engine_->stats()) - segment_base_; }

  // Applies one epoch in stream order — log, churn, analysis, ingest,
  // result reads, clock advance, then the document-count schedules of
  // checkpoints and reshards — and returns when the subscriber had read
  // the epoch's results.
  std::int64_t RunEpoch(Epoch& e) {
    const std::uint64_t req = e.index;
    const std::size_t docs = e.size();
    ScopedSpan epoch_span(spans_, "epoch", req);
    const bool sat = traced() && in_saturated_;

    if (w_.epoch_log && measuring_) AppendLog(e);

    for (ChurnOp& op : e.churn) {
      if (op.reg) {
        Register(req, std::move(op.query), op.id);
      } else {
        Unregister(req, op.id);
      }
    }

    std::vector<Document> batch;
    if (pipeline_ != nullptr) {
      ScopedSpan span(spans_, "analyze", req);
      const std::int64_t t0 = NowNanos();
      batch = pipeline_->AnalyzeEpoch(e.raw).documents;
      if (sat) {
        sums_.analyze_ms += Millis(NowNanos() - t0);
        sums_.analyzed_docs += static_cast<double>(batch.size());
        for (const Document& d : batch) {
          sums_.terms += static_cast<double>(d.composition.size());
        }
      }
    } else {
      batch = std::move(e.docs);
    }

    if (!batch.empty()) Ingest(req, std::move(batch), sat);
    ReadNotified(req);
    const std::int64_t done = NowNanos();

    if (e.has_advance) {
      ScopedSpan span(spans_, "advance", req);
      tally_->Op(engine_->AdvanceTime(e.advance_to), "AdvanceTime");
      ReadNotified(req);
    }
    if (measuring_) {
      measured_docs_ += docs;
      MaybeCheckpoint(req);
      MaybeReshard(req);
    }
    return done;
  }

  void Ingest(std::uint64_t req, std::vector<Document> batch, bool sat) {
    const std::size_t n = batch.size();
    const WorkCounts before =
        sat ? WorkCounts::Of(engine_->stats()) : WorkCounts();
    const std::uint64_t migrations_before =
        sat && engine_->sharded() != nullptr
            ? engine_->sharded()->rebalance_stats().queries_migrated
            : 0;
    std::int32_t span_id = -1;
    std::int64_t t0 = 0, t1 = 0;
    {
      ScopedSpan span(spans_, "ingest", req);
      span_id = span.id();
      t0 = NowNanos();
      auto ids = engine_->IngestBatch(std::move(batch));
      t1 = NowNanos();
      tally_->Op(ids.status(), "IngestBatch");
    }
    if (!sat) return;
    ++sums_.epochs;
    sums_.docs += n;
    sums_.ingest_ms.push_back(Millis(t1 - t0));
    sums_.ingest_spans.push_back(span_id);
    sums_.ingest_work += WorkCounts::Of(engine_->stats()) - before;
    sums_.notifications += static_cast<double>(notified_.size());
    if (engine_->sharded() != nullptr) {
      sums_.migrations += static_cast<double>(
          engine_->sharded()->rebalance_stats().queries_migrated -
          migrations_before);
    }
    FoldTrace(span_id, t0);
  }

  // Folds the engine's own trace of the epoch just ingested under the
  // benchmark's ingest span: plan, the critical path (the slowest
  // shard's expire + arrive work), the rest of the barriered phase wall
  // and the notification flush, laid end to end from the span's start.
  // The ingest span's self time is then the time no engine span covers.
  void FoldTrace(std::int32_t span_id, std::int64_t start) {
    using ita::obs::Phase;
    const ita::obs::EpochTrace* trace = engine_->trace();
    if (trace == nullptr || trace->size() == 0) return;
    const auto s = trace->Sample(trace->size() - 1);
    const std::size_t lanes = trace->shards();
    const std::uint64_t plan = s.Phase(0, Phase::kPlan);
    const std::uint64_t notify = s.Phase(0, Phase::kNotifyFlush);
    std::uint64_t critical = 0, busy_sum = 0, expire_max = 0, arrive_max = 0;
    std::uint64_t expire_sum = 0, arrive_sum = 0;
    std::array<std::uint64_t, ita::obs::kSubSpanCount> sub_max{}, sub_sum{};
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::uint64_t ex = s.Phase(l, Phase::kExpire);
      const std::uint64_t ar = s.Phase(l, Phase::kArrive);
      critical = std::max(critical, ex + ar);
      busy_sum += ex + ar;
      expire_max = std::max(expire_max, ex);
      arrive_max = std::max(arrive_max, ar);
      expire_sum += ex;
      arrive_sum += ar;
      for (std::size_t k = 0; k < ita::obs::kSubSpanCount; ++k) {
        const std::uint64_t v = s.Sub(l, static_cast<ita::obs::SubSpan>(k));
        sub_max[k] = std::max(sub_max[k], v);
        sub_sum[k] += v;
      }
    }
    const std::uint64_t phase_wall = s.Phase(0, Phase::kExpire) +
                                     s.Phase(0, Phase::kArrive) +
                                     s.Phase(0, Phase::kBarrierWait);
    const std::uint64_t barrier = phase_wall > critical ? phase_wall - critical : 0;

    std::int64_t t = start;
    const auto child = [&](const char* name, std::uint64_t nanos) {
      spans_->AddChild(span_id, name, t, t + static_cast<std::int64_t>(nanos));
      t += static_cast<std::int64_t>(nanos);
    };
    child("engine.plan", plan);
    child("engine.critical", critical);
    child("engine.barrier_wait", barrier);
    child("engine.notify_flush", notify);

    sums_.plan_ms += Millis(plan);
    sums_.critical_ms += Millis(critical);
    sums_.barrier_ms += Millis(barrier);
    sums_.notify_ms += Millis(notify);
    sums_.expire_max += Millis(expire_max);
    sums_.expire_sum += Millis(expire_sum);
    sums_.arrive_max += Millis(arrive_max);
    sums_.arrive_sum += Millis(arrive_sum);
    for (std::size_t k = 0; k < ita::obs::kSubSpanCount; ++k) {
      sums_.sub_max[k] += Millis(sub_max[k]);
      sums_.sub_sum[k] += Millis(sub_sum[k]);
    }
    if (busy_sum > 0) {
      sums_.imbalance += static_cast<double>(critical) /
                         (static_cast<double>(busy_sum) / lanes);
    }
    // Summed shard busy time: the engine's own shard_busy_micros tallies
    // where they exist (sharded), else the traced phase work.
    if (const auto* sharded = engine_->sharded(); sharded != nullptr) {
      std::uint64_t micros = 0;
      for (std::size_t i = 0; i < sharded->shard_count(); ++i) {
        micros += sharded->shard_busy_micros(i) - busy_prev_[i];
        busy_prev_[i] = sharded->shard_busy_micros(i);
      }
      sums_.busy_sum_ms += static_cast<double>(micros) / 1e3;
    } else {
      sums_.busy_sum_ms += Millis(busy_sum);
    }
  }

  void AppendLog(Epoch& e) {
    ScopedSpan span(spans_, "wal_append", e.index);
    ita::sim::SimEpoch record;
    record.index = e.index;
    for (const ChurnOp& op : e.churn) {
      if (op.reg) {
        record.register_ids.push_back(op.id);
        record.register_queries.push_back(op.query);
      } else {
        record.unregister.push_back(op.id);
      }
    }
    record.batch = std::move(e.docs);
    record.has_advance = e.has_advance;
    record.advance_to = e.advance_to;
    const std::size_t bytes_before = log_.bytes().size();
    const std::int64_t t0 = NowNanos();
    log_.Append(record);
    const std::int64_t t1 = NowNanos();
    e.docs = std::move(record.batch);
    tally_->Op(true, "EpochLog::Append");
    if (traced()) {
      control_.wal_append_us.push_back(Micros(t1 - t0));
      control_.wal_bytes += log_.bytes().size() - bytes_before;
      ++control_.wal_epochs;
    }
  }

  void MaybeCheckpoint(std::uint64_t req) {
    if (w_.checkpoint_every == 0 ||
        measured_docs_ / w_.checkpoint_every <= checkpoints_) {
      return;
    }
    ++checkpoints_;
    ScopedSpan span(spans_, "checkpoint", req);
    std::string bytes;
    const std::int64_t t0 = NowNanos();
    tally_->Op(engine_->sharded()->Checkpoint(&bytes), "Checkpoint");
    const std::int64_t t1 = NowNanos();
    // The snapshot covers every logged epoch: truncate the log.
    log_.Clear();
    if (traced()) {
      control_.checkpoint_ms.push_back(Millis(t1 - t0));
      control_.checkpoint_mb.push_back(static_cast<double>(bytes.size()) / 1e6);
    }
  }

  void MaybeReshard(std::uint64_t req) {
    if (w_.reshard_every == 0 ||
        measured_docs_ / w_.reshard_every <= reshards_) {
      return;
    }
    const std::size_t width =
        w_.reshard_widths[reshards_ % w_.reshard_widths.size()];
    ++reshards_;
    ita::exec::ShardedServer* sharded = engine_->sharded();
    if (in_saturated_) EndWorkSegment();
    const std::uint64_t remapped_before = sharded->reshard_stats().queries_remapped;
    {
      ScopedSpan span(spans_, "reshard", req);
      const std::int64_t t0 = NowNanos();
      tally_->Op(sharded->Reshard(width), "Reshard");
      if (traced()) control_.reshard_ms.push_back(Millis(NowNanos() - t0));
    }
    if (traced()) {
      control_.reshard_queries +=
          sharded->reshard_stats().queries_remapped - remapped_before;
    }
    busy_prev_.assign(sharded->shard_count(), 0);
    if (in_saturated_) segment_base_ = WorkCounts::Of(engine_->stats());
  }

  const WorkloadConfig& w_;
  std::uint64_t seed_;
  SpanLog* spans_;  // null = untraced session
  Tally* tally_;

  std::unique_ptr<Source> source_;
  TextSource* text_ = nullptr;  // source_ when it renders text
  std::unique_ptr<ita::IngestPipeline> pipeline_;
  std::unique_ptr<ita::sim::SimEngine> engine_;
  std::deque<Epoch> ahead_;  // pregenerated one-document units
  std::map<QueryId, Query> live_;
  std::vector<QueryId> notified_;
  ita::sim::NotificationConsumer consumer_;
  ita::persist::EpochLog log_;

  std::uint64_t epoch_index_ = 0;
  std::uint64_t consumer_epoch_ = 0;
  double setup_seconds_ = 0.0;
  bool measuring_ = false;
  bool in_saturated_ = false;
  std::size_t measured_docs_ = 0;
  std::size_t checkpoints_ = 0;
  std::size_t reshards_ = 0;
  std::vector<std::uint64_t> busy_prev_;
  WorkCounts work_;
  WorkCounts segment_base_;
  TracedSums sums_;
  ControlSamples control_;
};

// --- Reporting -----------------------------------------------------------------

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

double Median(std::vector<double> v) { return PercentileOf(v, 50.0).value; }

// Sessions per untraced run: setup_s and docs_per_s are medians over
// them.
constexpr std::size_t kSessions = 3;

// The inputs of session `i` of a run: session 0 takes the run's seed, the
// others distinct streams derived from it, so a run's medians span three
// query populations.
std::uint64_t SessionSeed(std::uint64_t seed, std::size_t i) {
  return seed + i * 1'000'003;
}

// Samples per window of a latency percentile: the fewest that leave ten
// beyond p99.
constexpr std::size_t kLatencyWindow = 1000;

std::string Determinism(const char* label, const SaturatedOutcome& s) {
  char digest[64];
  std::snprintf(digest, sizeof digest, " deliveries=%" PRIu64 " digest=%016" PRIx64,
                s.deliveries, s.digest);
  return std::string("determinism ") + label + ": " + s.work.ToString() + digest;
}

// The highest percentile the samples support (ten beyond it), over all
// samples at once.
std::string TailLine(const char* name, std::vector<double> samples) {
  const Percentile p = TailPercentile(samples);
  char line[160];
  std::snprintf(line, sizeof line,
                "tail: %s p%g = %.6g (samples %zu, beyond %zu)", name, p.q,
                p.value, p.samples, p.beyond);
  return line;
}

double PerDoc(const TracedSums& s, const char* counter) {
  return s.docs == 0 ? 0.0
                     : static_cast<double>(s.ingest_work.get(counter)) /
                           static_cast<double>(s.docs);
}

void ReportPerLayer(const Session& b, const SaturatedOutcome& untraced,
                    const SaturatedOutcome& traced, PacedOutcome& paced,
                    const std::vector<double>& register_ms,
                    const SpanLog& spans, RunReport* report) {
  const TracedSums& s = b.traced_sums();
  const ControlSamples& c = b.control();
  const ServerStats& g = traced.gauges;
  const double epochs = std::max<double>(1.0, static_cast<double>(s.epochs));
  MetricSet& m = report->metrics;

  m.Set("sim.generate_ms", s.generate_ms / epochs, "ms");
  m.SetPercentile("sim.lag_ms_p99", PercentileOf(paced.lag_ms, 99.0), "ms");

  m.Set("pipeline.analyze_ms", s.analyze_ms / epochs, "ms");
  m.Set("pipeline.analyze_us_per_doc",
        s.analyzed_docs > 0 ? s.analyze_ms * 1e3 / s.analyzed_docs : 0.0, "us");
  m.Set("pipeline.terms_per_doc",
        s.analyzed_docs > 0 ? s.terms / s.analyzed_docs : 0.0, "count");

  m.Set("stream.document_bytes", static_cast<double>(g.document_bytes), "bytes");
  m.Set("stream.arena_segments", static_cast<double>(g.arena_segments), "count");

  m.Set("index.postings_bytes", static_cast<double>(g.postings_bytes), "bytes");
  m.Set("index.entries_inserted_per_doc", PerDoc(s, "index_inserted"), "count");
  m.Set("index.entries_erased_per_doc", PerDoc(s, "index_erased"), "count");

  m.Set("core.plan_ms", s.plan_ms / epochs, "ms");
  m.Set("core.expire_ms", s.expire_max / epochs, "ms");
  m.Set("core.expire_ms_sum", s.expire_sum / epochs, "ms");
  m.Set("core.arrive_ms", s.arrive_max / epochs, "ms");
  m.Set("core.arrive_ms_sum", s.arrive_sum / epochs, "ms");
  const char* kSubNames[] = {"probe", "rollup", "refill"};
  for (std::size_t k = 0; k < ita::obs::kSubSpanCount; ++k) {
    const std::string base = std::string("core.") + kSubNames[k] + "_ms";
    m.Set(base, s.sub_max[k] / epochs, "ms");
    m.Set(base + "_sum", s.sub_sum[k] / epochs, "ms");
  }

  m.Set("core.probe_steps_per_doc", PerDoc(s, "probe_steps"), "count");
  m.Set("core.queries_probed_per_doc", PerDoc(s, "queries_probed"), "count");
  m.Set("core.list_reads_per_doc", PerDoc(s, "list_reads"), "count");
  m.Set("core.scores_per_doc", PerDoc(s, "scores"), "count");
  m.Set("core.rollups_per_doc", PerDoc(s, "rollups"), "count");
  m.Set("core.refills_per_doc", PerDoc(s, "refills"), "count");
  m.Set("core.rollup_evictions_per_doc", PerDoc(s, "rollup_evictions"), "count");
  m.Set("core.result_inserts_per_doc", PerDoc(s, "result_inserts"), "count");
  m.Set("core.result_removes_per_doc", PerDoc(s, "result_removes"), "count");
  const double scores = static_cast<double>(s.ingest_work.get("scores"));
  const double probed = static_cast<double>(s.ingest_work.get("queries_probed"));
  m.Set("core.score_yield",
        scores > 0 ? static_cast<double>(s.ingest_work.get("result_inserts")) / scores
                   : 0.0,
        "ratio");
  m.Set("core.probe_yield", probed > 0 ? s.notifications / probed : 0.0, "ratio");

  m.Set("core.threshold_entries", static_cast<double>(g.threshold_entries), "count");
  m.Set("core.query_state_slots", static_cast<double>(g.query_state_slots), "count");
  m.Set("core.catalog_slab_bytes", static_cast<double>(g.catalog_slab_bytes), "bytes");
  m.Set("core.hot_tier_terms", static_cast<double>(g.hot_tier_terms), "count");
  m.Set("core.tier_moves_per_epoch",
        static_cast<double>(s.ingest_work.get("tier_moves")) / epochs, "count");

  const double regs = std::max<double>(1.0, static_cast<double>(c.registrations));
  // Per registration, over every registration of the traced session.
  m.Set("core.register_list_reads",
        static_cast<double>(c.register_work.get("list_reads")) / regs, "count");
  m.Set("core.register_scores",
        static_cast<double>(c.register_work.get("scores")) / regs, "count");
  // Registration's tail spreads more between runs on a shared host than
  // an end-to-end bound allows, so it is reported here, unbounded.
  m.SetPercentile("core.register_ms_p99",
                  WindowedPercentile(register_ms, 99.0, kLatencyWindow), "ms");
  std::vector<double> unregister_us = c.unregister_us;
  std::vector<double> fetch_us = c.result_fetch_us;
  m.SetPercentile("core.unregister_us_p50", PercentileOf(unregister_us, 50.0), "us");
  m.SetPercentile("core.result_fetch_us_p50", PercentileOf(fetch_us, 50.0), "us");

  // The ingest split: plan + critical + barrier wait + notify flush +
  // unattributed = the benchmark's IngestBatch span, per epoch.
  const std::vector<std::int64_t> self = spans.SelfTimes();
  double unattributed = 0.0;
  for (const std::int32_t id : s.ingest_spans) {
    unattributed += Millis(self[static_cast<std::size_t>(id)]);
  }
  std::vector<double> ingest = s.ingest_ms;
  const double ingest_mean = Mean(ingest);
  m.SetPercentile("exec.ingest_ms_p50", PercentileOf(ingest, 50.0), "ms");
  m.SetPercentile("exec.ingest_ms_p99", PercentileOf(ingest, 99.0), "ms");
  m.Set("exec.ingest_ms_mean", ingest_mean, "ms");
  m.Set("exec.critical_ms", s.critical_ms / epochs, "ms");
  m.Set("exec.busy_sum_ms", s.busy_sum_ms / epochs, "ms");
  m.Set("exec.imbalance", s.imbalance / epochs, "ratio");
  m.Set("exec.barrier_wait_ms", s.barrier_ms / epochs, "ms");
  m.Set("exec.notify_flush_ms", s.notify_ms / epochs, "ms");
  m.Set("exec.unattributed_ms", unattributed / epochs, "ms");
  m.Set("exec.notifications_per_epoch", s.notifications / epochs, "count");
  m.Set("exec.migrations_per_epoch", s.migrations / epochs, "count");
  m.Set("exec.reshard_ms", Mean(c.reshard_ms), "ms");
  m.Set("exec.reshard_queries",
        c.reshard_ms.empty() ? 0.0
                             : static_cast<double>(c.reshard_queries) /
                                   static_cast<double>(c.reshard_ms.size()),
        "count");

  m.Set("persist.checkpoint_ms", Mean(c.checkpoint_ms), "ms");
  m.Set("persist.checkpoint_mb", Mean(c.checkpoint_mb), "MB");
  m.Set("persist.wal_append_us", Mean(c.wal_append_us), "us");
  m.Set("persist.wal_bytes_per_epoch",
        c.wal_epochs == 0 ? 0.0
                          : static_cast<double>(c.wal_bytes) /
                                static_cast<double>(c.wal_epochs),
        "bytes");

  m.Set("obs.trace_overhead",
        untraced.docs_per_s() > 0 ? 1.0 - traced.docs_per_s() / untraced.docs_per_s()
                                  : 0.0,
        "ratio");

  char line[256];
  const double split = (s.plan_ms + s.critical_ms + s.barrier_ms + s.notify_ms +
                        unattributed) / epochs;
  std::snprintf(line, sizeof line,
                "split per epoch: plan %.3f + critical %.3f + barrier_wait %.3f"
                " + notify_flush %.3f + unattributed %.3f = %.3f ms"
                " (exec.ingest_ms_mean %.3f, p50 %.3f, %zu epochs)",
                s.plan_ms / epochs, s.critical_ms / epochs, s.barrier_ms / epochs,
                s.notify_ms / epochs, unattributed / epochs, split, ingest_mean,
                m.Find("exec.ingest_ms_p50")->value, s.epochs);
  report->lines.push_back(line);
  std::snprintf(line, sizeof line,
                "traced docs_per_s %.1f, untraced docs_per_s %.1f",
                traced.docs_per_s(), untraced.docs_per_s());
  report->lines.push_back(line);
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const auto* names = new std::vector<std::pair<std::string, std::string>>{
      {"setup_s", "s"},
      {"docs_per_s", "docs/s"},
      {"freshness_ms_p50", "ms"},
      {"freshness_ms_p99", "ms"},
      {"register_ms_p50", "ms"},
      {"mem_peak_mb", "MB"},
  };
  return *names;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* names = new std::vector<std::pair<std::string, std::string>>{
      {"sim.generate_ms", "ms"},
      {"sim.lag_ms_p99", "ms"},
      {"pipeline.analyze_ms", "ms"},
      {"pipeline.analyze_us_per_doc", "us"},
      {"pipeline.terms_per_doc", "count"},
      {"stream.document_bytes", "bytes"},
      {"stream.arena_segments", "count"},
      {"index.postings_bytes", "bytes"},
      {"index.entries_inserted_per_doc", "count"},
      {"index.entries_erased_per_doc", "count"},
      {"core.plan_ms", "ms"},
      {"core.expire_ms", "ms"},
      {"core.expire_ms_sum", "ms"},
      {"core.arrive_ms", "ms"},
      {"core.arrive_ms_sum", "ms"},
      {"core.probe_ms", "ms"},
      {"core.probe_ms_sum", "ms"},
      {"core.rollup_ms", "ms"},
      {"core.rollup_ms_sum", "ms"},
      {"core.refill_ms", "ms"},
      {"core.refill_ms_sum", "ms"},
      {"core.probe_steps_per_doc", "count"},
      {"core.queries_probed_per_doc", "count"},
      {"core.list_reads_per_doc", "count"},
      {"core.scores_per_doc", "count"},
      {"core.rollups_per_doc", "count"},
      {"core.refills_per_doc", "count"},
      {"core.rollup_evictions_per_doc", "count"},
      {"core.result_inserts_per_doc", "count"},
      {"core.result_removes_per_doc", "count"},
      {"core.score_yield", "ratio"},
      {"core.probe_yield", "ratio"},
      {"core.threshold_entries", "count"},
      {"core.query_state_slots", "count"},
      {"core.catalog_slab_bytes", "bytes"},
      {"core.hot_tier_terms", "count"},
      {"core.tier_moves_per_epoch", "count"},
      {"core.register_list_reads", "count"},
      {"core.register_scores", "count"},
      {"core.register_ms_p99", "ms"},
      {"core.unregister_us_p50", "us"},
      {"core.result_fetch_us_p50", "us"},
      {"exec.ingest_ms_p50", "ms"},
      {"exec.ingest_ms_p99", "ms"},
      {"exec.ingest_ms_mean", "ms"},
      {"exec.critical_ms", "ms"},
      {"exec.busy_sum_ms", "ms"},
      {"exec.imbalance", "ratio"},
      {"exec.barrier_wait_ms", "ms"},
      {"exec.notify_flush_ms", "ms"},
      {"exec.unattributed_ms", "ms"},
      {"exec.notifications_per_epoch", "count"},
      {"exec.migrations_per_epoch", "count"},
      {"exec.reshard_ms", "ms"},
      {"exec.reshard_queries", "count"},
      {"persist.checkpoint_ms", "ms"},
      {"persist.checkpoint_mb", "MB"},
      {"persist.wal_append_us", "us"},
      {"persist.wal_bytes_per_epoch", "bytes"},
      {"obs.trace_overhead", "ratio"},
  };
  return *names;
}

RunReport RunBenchmark(const RunOptions& options) {
  RunReport report;
  WorkloadConfig w;
  if (!MakeWorkload(options.workload, options.tiny, &w)) {
    report.correct = false;
    report.attempted = report.failed = 1;
    report.lines.push_back("unknown workload " + options.workload);
    return report;
  }
  Tally tally;
  // Half of the requested seconds go to the saturated blocks, split over
  // the sessions, and half to the paced phase.
  const double paced_seconds = options.seconds / 2;
  const auto blocks = static_cast<std::size_t>(std::max(
      1.0, std::round(w.blocks_per_second * paced_seconds / kSessions)));

  if (!options.trace) {
    // Three sessions, each set up from scratch on its own inputs and run
    // through the saturated blocks (setup_s and docs_per_s are medians
    // over them); the last one also runs the paced phase. Session 0's
    // inputs are those of --seed itself, so its work counts repeat in
    // the traced run. Audits check a quarter of the first two sessions'
    // queries and all of the last session's, half after each phase.
    std::vector<double> setups;
    std::vector<double> block_rates;
    std::unique_ptr<Session> s;
    for (std::size_t i = 0; i < kSessions; ++i) {
      s.reset();
      // Hand the last session's freed heap back, so each session starts
      // from a comparable resident set.
      malloc_trim(0);
      s = std::make_unique<Session>(w, SessionSeed(options.seed, i), nullptr,
                                    &tally);
      s->Setup();
      setups.push_back(s->setup_seconds());
      const SaturatedOutcome sat = s->Saturated(blocks);
      s->Audit(0, i + 1 == kSessions ? 2 : 4);
      block_rates.insert(block_rates.end(), sat.block_docs_per_s.begin(),
                         sat.block_docs_per_s.end());
      if (i == 0) report.lines.push_back(Determinism("saturated", sat));
    }
    std::string rates = "saturated block docs/s:";
    for (const double r : block_rates) rates += " " + std::to_string(std::lround(r));
    report.lines.push_back(rates);
    PacedOutcome paced = s->Paced(paced_seconds);
    s->Audit(1, 2);
    s->Teardown();

    MetricSet& m = report.metrics;
    m.Set("setup_s", Median(setups), "s");
    m.SetPercentile("docs_per_s", PercentileOf(block_rates, 50.0), "docs/s");
    // With reshards scheduled, the tail is their pauses: it is taken over
    // the whole phase, which holds several.
    const std::size_t tail_window =
        w.reshard_every > 0 ? paced.freshness_ms.size() : kLatencyWindow;
    m.SetPercentile("freshness_ms_p50",
                    WindowedPercentile(paced.freshness_ms, 50.0, kLatencyWindow),
                    "ms");
    m.SetPercentile("freshness_ms_p99",
                    WindowedPercentile(paced.freshness_ms, 99.0, tail_window), "ms");
    m.SetPercentile("register_ms_p50",
                    WindowedPercentile(tally.register_ms, 50.0, kLatencyWindow), "ms");
    m.Set("mem_peak_mb", PeakRssMb(), "MB");
    char line[160];
    std::snprintf(line, sizeof line,
                  "paced: %zu documents in %zu epochs at %.0f docs/s offered,"
                  " backlog growth %.1f documents",
                  paced.docs, paced.epochs, w.paced_rate, paced.growth_docs);
    report.lines.push_back(line);
    report.lines.push_back(TailLine("freshness_ms", paced.freshness_ms));
    report.lines.push_back(TailLine("register_ms", tally.register_ms));
  } else {
    // An untraced and a traced session on the same seed: the saturated
    // blocks must do identical work in both, and their throughput ratio
    // is the tracing overhead.
    SaturatedOutcome untraced;
    {
      Session a(w, options.seed, nullptr, &tally);
      a.Setup();
      untraced = a.Saturated(blocks);
      a.Audit(0, 3);
    }
    malloc_trim(0);
    SpanLog spans;
    Session b(w, options.seed, &spans, &tally);
    b.Setup();
    const SaturatedOutcome traced = b.Saturated(blocks);
    b.Audit(1, 3);
    PacedOutcome paced = b.Paced(paced_seconds);
    b.Audit(2, 3);
    b.Teardown();
    report.lines.push_back(Determinism("untraced", untraced));
    report.lines.push_back(Determinism("traced", traced));
    tally.Op(untraced.work == traced.work && untraced.digest == traced.digest,
             "saturated work counts or digest differ between the traced and "
             "untraced sessions");
    ReportPerLayer(b, untraced, traced, paced, tally.register_ms, spans, &report);
    if (!options.spans_path.empty() && !spans.WriteJsonLines(options.spans_path)) {
      tally.Op(false, ("cannot write spans to " + options.spans_path).c_str());
    }
  }

  for (const std::string& f : tally.failures) report.lines.push_back("FAILED " + f);
  report.attempted = tally.ops;
  report.failed = tally.failed;
  report.correct = tally.failed == 0;
  return report;
}

std::string ReportJson(const RunReport& report) {
  std::ostringstream out;
  out << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics.all()) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    out << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
