// Layer replay: the workload's distinct queries, re-run off the clock one
// layer at a time through each layer's public functions.
//
// Every run replays each query's plan one job at a time through the
// mr::JobExecution phases, checking that every job's map side sent as many
// shuffle MB as its reduce side received and that the outputs equal the
// reference. In traced mode the replay additionally times, under spans,
// parsing, skew classification, group cost estimation, grouping,
// planning, the round runtime, sharded execution and the wire codec, and
// a small serving probe; the per-layer metrics are computed from those
// spans and from the counters the calls return.
#ifndef E2EBENCH_REPLAY_H_
#define E2EBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "check.h"
#include "common/relation.h"
#include "serve/service.h"
#include "sgf/sgf.h"
#include "trace.h"

namespace e2ebench {

/// One distinct query of a workload.
struct Distinct {
  std::string text;              ///< SGF text, parsed again by the replay
  gumbo::sgf::SgfQuery query;
  Answer reference;              ///< naive answer over the replay database
};

/// Per-layer metric name -> value (BENCHMARK.json "per_layer").
using LayerMetrics = std::map<std::string, double>;

/// Serving tally over a set of responses plus service counter deltas.
struct ServeTally {
  uint64_t reads = 0;
  uint64_t plan_hits = 0;    ///< full executions whose plan was cached
  uint64_t result_hits = 0;  ///< answered from the result cache
  uint64_t deltas = 0;       ///< answered by a delta maintenance pass
  uint64_t executions = 0;   ///< full plan (or plan-cache) + execute
  uint64_t delta_rows = 0;
  uint64_t addfacts = 0;
  double addfact_ms = 0.0;
  // Sums over every query the service finished.
  double queue_ms = 0.0, plan_ms = 0.0, exec_ms = 0.0, sched_wait_ms = 0.0;
  uint64_t finished = 0;

  void Add(const gumbo::serve::Response& r);
  void AddFact(double ms) {
    ++addfacts;
    addfact_ms += ms;
  }
  /// Adds the phase sums of every query `stats`' service finished: its
  /// warm-up pass and its timed rounds. On `catalog`, where the warm
  /// plan cache answers every timed query, the warm-up is what planned.
  void AddStats(const gumbo::serve::ServiceStats& stats);
  /// Writes the serve.* metrics.
  void Fill(LayerMetrics* out) const;
};

/// What the check replay hands to the self-test: one real job's balance.
struct ReplayOutcome {
  std::vector<std::string> errors;
  double sent_mb = 0.0;
  double received_mb = 0.0;
};

/// Replays `queries` over `db`. With `traced`, records spans on `tracer`
/// and fills `metrics` with every per-layer metric except serve.*.
ReplayOutcome ReplayLayers(const gumbo::Database& db,
                           const std::vector<Distinct>& queries, bool traced,
                           Tracer* tracer, LayerMetrics* metrics);

/// The serving probe: each query cold, again, then after a batch of
/// inserts into `write_relation` — over a private copy of `db`.
ServeTally ServeProbe(const gumbo::Database& db,
                      const std::vector<Distinct>& queries,
                      const std::string& write_relation, uint64_t seed,
                      std::vector<std::string>* errors);

/// A seeded guard tuple of `arity` values in [0, domain).
gumbo::Tuple GuardFact(uint32_t arity, uint64_t domain, uint64_t seed,
                       uint64_t index);

}  // namespace e2ebench

#endif  // E2EBENCH_REPLAY_H_
