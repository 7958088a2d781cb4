// The benchmark's four workloads. Each one generates its inputs from the
// seed, sets up the program (timed as setup_s), runs whole rounds of
// operations for the requested number of seconds, checks every answer
// off the clock, and replays its distinct queries layer by layer.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mr/stats.h"
#include "plan/executor.h"
#include "replay.h"
#include "trace.h"

namespace e2ebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// Wall-clock and process CPU time (user + system, all threads) summed
/// over Start/Stop intervals.
class Meter {
 public:
  void Start();
  void Stop();
  double wall_s() const { return wall_s_; }
  double cpu_s() const { return cpu_s_; }

 private:
  Clock::time_point wall0_;
  double cpu0_ = 0.0;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
};

/// The timed operations of one set of rounds.
struct Timed {
  Meter meter;
  uint64_t ops = 0;                 ///< completed queries and writes
  std::vector<double> latency_ms;   ///< submit -> answer, per query
  /// Per round: completed operations per second, and CPU ms per
  /// operation. Every round holds the same mix of operations, so the
  /// median round stands for the run without the rounds a neighbour
  /// disturbed.
  std::vector<double> round_ops_s;
  std::vector<double> round_cpu_ms_per_op;
};

/// The paper's modeled figures (§5.1), summed over one cold pass of a
/// workload's distinct queries.
struct ModelTotals {
  double net_s = 0.0;
  double total_s = 0.0;
  double input_mb = 0.0;
  double comm_mb = 0.0;
  void Add(const gumbo::plan::Metrics& m);
  void Add(const gumbo::mr::ProgramStats& s);
};

struct Report {
  bool correct = true;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double setup_s = 0.0;
  /// Peak resident MB of the process when the timed rounds end, so the
  /// layer replay and the self-test that follow do not count.
  double peak_rss_mb = 0.0;
  /// [0]: untraced rounds (all of them unless tracing), [1]: traced rounds.
  Timed timed[2];
  ModelTotals model;
  LayerMetrics layer;

  std::vector<std::string> op_errors;

  void Fail(const std::string& msg) {
    correct = false;
    errors.push_back(msg);
  }
  /// A timed operation that returned an error: counted in `failed` and
  /// logged; `correct` speaks of the operations that did not fail.
  void OpFailed(const std::string& msg) {
    ++failed;
    op_errors.push_back(msg);
  }
  void FailAll(const std::vector<std::string>& msgs) {
    for (const std::string& m : msgs) Fail(m);
  }
};

/// Names accepted by RunWorkload.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. `process_start` anchors setup_s.
void RunWorkload(const Options& options, Clock::time_point process_start,
                 Tracer* tracer, Report* report);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
