// The benchmark's three workloads as plain data. README.md in this
// directory records each one's parameters, its paced rate and why it was
// chosen; keep the two in step.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stream/window.h"

namespace perfbench {

/// One workload: the engine it drives, the stream and query population
/// it feeds, and the sizes of its set-up, saturated and paced phases.
struct WorkloadConfig {
  std::string name;

  // Engine. `shards` == 0 selects the sequential ItaServer.
  std::size_t shards = 0;
  ita::WindowSpec window = ita::WindowSpec::CountBased(1000);

  // Documents. `text_pipeline` renders the Zipf bodies as pseudo-word text
  // that every epoch analyzes through IngestPipeline; otherwise documents
  // come pre-analyzed from sim::EventStreamGenerator.
  bool text_pipeline = false;
  std::size_t dictionary = 181'978;
  double length_mu = 4.6;
  double length_sigma = 0.5;
  std::size_t length_min = 16;
  std::size_t length_max = 1'000;
  std::size_t pool_documents = 4'096;
  std::size_t flood_terms = 0;
  std::size_t flood_period = 0;
  std::size_t flood_duration = 0;
  /// Virtual arrival rate stamped on documents (drives time windows).
  double virtual_rate = 1'000.0;

  // Queries.
  std::size_t queries = 1'000;
  std::size_t terms_per_query = 10;
  int k = 10;
  bool heavy_tailed_k = false;
  int k_max = 64;
  std::size_t hot_max_term = 0;  ///< 0 = uniform over the dictionary
  /// Churn storm: every `storm_period` documents the `storm_size` oldest
  /// queries are unregistered and as many fresh ones registered.
  std::size_t storm_period = 0;
  std::size_t storm_size = 0;
  /// Expiration-only AdvanceTime epoch every this many documents (time
  /// windows only; 0 = none).
  std::size_t advance_period = 0;

  // Durability and elasticity (sharded engines only; 0 = off), on a
  // document-count schedule so saturated and paced phases see the same
  // events per document.
  bool epoch_log = false;
  std::size_t checkpoint_every = 0;
  std::size_t reshard_every = 0;
  std::vector<std::size_t> reshard_widths;  ///< cycled: 2→4→2→...

  // Phase sizes.
  std::size_t prefill_docs = 0;
  std::size_t prefill_epoch = 1'000;
  std::size_t settle_epochs = 2;
  std::size_t epoch_docs = 64;  ///< saturated phase epoch size
  /// Saturated epochs are measured in blocks of this many; the run
  /// reports the median block throughput.
  std::size_t block_epochs = 1;
  /// Saturated blocks per requested second of measurement, split over
  /// the run's sessions. Fixed per workload so the saturated phase is a
  /// pure function of the seed and the requested seconds.
  double blocks_per_second = 1.0;
  /// Open-loop offered load of the paced phase (documents per second).
  double paced_rate = 100.0;
  /// The paced phase's epoch interval: the driver ingests the documents
  /// due every this many milliseconds as one epoch.
  double paced_interval_ms = 10.0;
};

/// The workload names, in the order BENCHMARK.json lists them.
std::vector<std::string> WorkloadNames();

/// The named workload, or false when the name is unknown. `tiny` shrinks
/// every size so a smoke run finishes in about a second.
bool MakeWorkload(const std::string& name, bool tiny, WorkloadConfig* out);

}  // namespace perfbench
