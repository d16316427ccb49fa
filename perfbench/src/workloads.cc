#include "workloads.h"

#include <algorithm>

namespace perfbench {
namespace {

// The paper's Section IV setup through the whole user path: text
// analysis, the sequential ItaServer, 1,000 cold ten-term queries over a
// 10,000-document count window.
WorkloadConfig PaperS1() {
  WorkloadConfig w;
  w.name = "paper_s1";
  w.shards = 0;
  w.window = ita::WindowSpec::CountBased(10'000);
  w.text_pipeline = true;
  w.queries = 1'000;
  w.terms_per_query = 10;
  w.k = 10;
  w.prefill_docs = 10'000;
  w.settle_epochs = 4;
  w.epoch_docs = 128;
  w.block_epochs = 16;
  w.blocks_per_second = 3.0;
  w.paced_rate = 1'500.0;
  w.paced_interval_ms = 10.0;
  return w;
}

// Query-heavy and skewed: 2,000 hot queries on the sharded engine at
// S = 4 under the hot-term flood vocabulary.
WorkloadConfig HotFloodS4() {
  WorkloadConfig w;
  w.name = "hot_flood_s4";
  w.shards = 4;
  w.window = ita::WindowSpec::CountBased(4'096);
  w.flood_terms = 5;
  w.flood_period = 400;
  w.flood_duration = 120;
  w.queries = 2'000;
  w.terms_per_query = 10;
  w.k = 10;
  w.hot_max_term = 200;
  w.prefill_docs = 4'096;
  w.prefill_epoch = 512;
  w.settle_epochs = 2;
  w.epoch_docs = 256;
  w.block_epochs = 1;
  w.blocks_per_second = 2.5;
  w.paced_rate = 150.0;
  w.paced_interval_ms = 100.0;
  return w;
}

// Control-plane writes beside document reads: a time window with
// expiration-only epochs, a churn storm every epoch, a write-ahead epoch
// log, periodic checkpoints and a 2→4→2 reshard cycle.
WorkloadConfig ChurnElastic() {
  WorkloadConfig w;
  w.name = "churn_elastic";
  w.shards = 2;
  w.virtual_rate = 1'000.0;
  w.window = ita::WindowSpec::TimeBased(4'000'000);  // 4 virtual seconds
  w.advance_period = 1'024;
  w.queries = 600;
  w.terms_per_query = 6;
  w.heavy_tailed_k = true;
  w.k_max = 64;
  w.hot_max_term = 2'000;
  w.storm_period = 64;
  w.storm_size = 8;
  w.epoch_log = true;
  w.checkpoint_every = 2'048;
  w.reshard_every = 4'096;
  w.reshard_widths = {4, 2};
  w.prefill_docs = 2'048;
  w.prefill_epoch = 256;
  w.settle_epochs = 2;
  w.epoch_docs = 64;
  // One block is one reshard cycle: every block holds one reshard and
  // two checkpoints.
  w.block_epochs = 64;
  w.blocks_per_second = 0.8;
  // Fast enough that two reshard pauses fall in the paced phase.
  w.paced_rate = 1'200.0;
  w.paced_interval_ms = 20.0;
  return w;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"paper_s1", "hot_flood_s4", "churn_elastic"};
}

bool MakeWorkload(const std::string& name, bool tiny, WorkloadConfig* out) {
  WorkloadConfig w;
  if (name == "paper_s1") {
    w = PaperS1();
  } else if (name == "hot_flood_s4") {
    w = HotFloodS4();
  } else if (name == "churn_elastic") {
    w = ChurnElastic();
  } else {
    return false;
  }
  if (tiny) {
    // Same code paths, toy sizes: every phase, audit and schedule still
    // runs at least once.
    w.dictionary = 2'000;
    w.pool_documents = 64;
    w.length_mu = 2.5;
    w.length_min = 4;
    w.length_max = 32;
    w.queries = std::min<std::size_t>(w.queries, 24);
    w.storm_size = std::min<std::size_t>(w.storm_size, 2);
    w.storm_period = w.storm_period == 0 ? 0 : 16;
    w.hot_max_term = w.hot_max_term == 0 ? 0 : 50;
    if (w.window.kind == ita::WindowSpec::Kind::kCountBased) {
      w.window = ita::WindowSpec::CountBased(96);
    } else {
      w.window = ita::WindowSpec::TimeBased(200'000);
      w.virtual_rate = 500.0;
      w.advance_period = 48;
    }
    w.prefill_docs = 96;
    w.prefill_epoch = 32;
    w.settle_epochs = 1;
    w.epoch_docs = 16;
    w.checkpoint_every = w.checkpoint_every == 0 ? 0 : 32;
    w.reshard_every = w.reshard_every == 0 ? 0 : 48;
    w.block_epochs = 3;
    w.blocks_per_second = 6.0;
    w.paced_rate = 200.0;
    w.paced_interval_ms = 10.0;
  }
  *out = w;
  return true;
}

}  // namespace perfbench
