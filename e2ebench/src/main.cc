// End-to-end benchmark program for gumbo.
//
//   e2ebench --workload <catalog|adhoc|serve-mixed|sharded> --seed N
//            --seconds S --trace <0|1> [--out-dir DIR]
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics; traced runs report the per-layer metrics, print the
// per-span self-time table and their own end-to-end numbers against the
// interleaved untraced rounds, and write DIR/trace-<workload>-<seed>.json.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace e2ebench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"throughput_ops_s", "ops/s"},
    {"latency_p50_ms", "ms"},  {"latency_p90_ms", "ms"},
    {"cpu_ms_per_op", "ms"},   {"peak_rss_mb", "MB"},
    {"model_net_time_s", "s"}, {"model_total_time_s", "s"},
    {"model_input_mb", "MB"},  {"model_comm_mb", "MB"},
};

const Metric kPerLayer[] = {
    {"sgf.parse_ms", "ms"},
    {"cost.classify_skew_ms", "ms"},
    {"plan.estimate_group_ms", "ms"},
    {"plan.grouping_ms", "ms"},
    {"plan.plan_ms", "ms"},
    {"plan.jobs", "count"},
    {"plan.rounds", "count"},
    {"mr.prepare_ms.msj", "ms"},
    {"mr.prepare_ms.eval", "ms"},
    {"mr.map_ms.msj", "ms"},
    {"mr.map_ms.eval", "ms"},
    {"mr.partition_ms.msj", "ms"},
    {"mr.partition_ms.eval", "ms"},
    {"mr.reduce_ms.msj", "ms"},
    {"mr.reduce_ms.eval", "ms"},
    {"mr.finish_ms.msj", "ms"},
    {"mr.finish_ms.eval", "ms"},
    {"mr.shuffle_records", "count"},
    {"mr.shuffle_messages", "count"},
    {"mr.combined_messages", "count"},
    {"mr.filtered_messages", "count"},
    {"mr.fingerprint_collisions", "count"},
    {"mr.filter_yield", "ratio"},
    {"runtime.execute_ms", "ms"},
    {"runtime.peak_concurrent_jobs", "count"},
    {"sched.busy_ms", "ms"},
    {"sched.stall_ms", "ms"},
    {"sched.morsels", "count"},
    {"sched.steals", "count"},
    {"serve.queue_ms", "ms"},
    {"serve.plan_ms", "ms"},
    {"serve.exec_ms", "ms"},
    {"serve.sched_wait_ms", "ms"},
    {"serve.plan_cache_hit_ratio", "ratio"},
    {"serve.result_hit_ratio", "ratio"},
    {"serve.delta_ratio", "ratio"},
    {"serve.fallback_ratio", "ratio"},
    {"serve.delta_rows", "count"},
    {"serve.addfact_ms", "ms"},
    {"dist.execute_ms", "ms"},
    {"dist.single_ms", "ms"},
    {"dist.slowdown", "ratio"},
    {"dist.wire_mb", "MB"},
    {"dist.encode_ms_per_mb", "ms/MB"},
    {"dist.decode_ms_per_mb", "ms/MB"},
};

// Quantile with linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

LayerMetrics EndToEnd(const Report& r, const Timed& t) {
  return {
      {"setup_s", r.setup_s},
      {"throughput_ops_s", Quantile(t.round_ops_s, 0.5)},
      {"latency_p50_ms", Quantile(t.latency_ms, 0.5)},
      {"latency_p90_ms", Quantile(t.latency_ms, 0.9)},
      {"cpu_ms_per_op", Quantile(t.round_cpu_ms_per_op, 0.5)},
      {"peak_rss_mb", r.peak_rss_mb},
      {"model_net_time_s", r.model.net_s},
      {"model_total_time_s", r.model.total_s},
      {"model_input_mb", r.model.input_mb},
      {"model_comm_mb", r.model.comm_mb},
  };
}

void PrintTraceReport(const Options& o, const Tracer& tracer, const Report& r) {
  std::printf("%-28s %8s %12s %12s %10s\n", "span", "count", "total_ms",
              "self_ms", "mean_ms");
  for (const auto& [name, t] : tracer.Totals()) {
    std::printf("%-28s %8" PRIu64 " %12.3f %12.3f %10.4f\n", name.c_str(),
                t.count, t.total_ms, t.self_ms, t.MeanMs());
  }
  const LayerMetrics plain = EndToEnd(r, r.timed[0]);
  const LayerMetrics traced = EndToEnd(r, r.timed[1]);
  std::printf("\nend-to-end: traced rounds, interleaved untraced rounds, "
              "traced/untraced - 1 (%zu vs %zu queries)\n",
              r.timed[1].latency_ms.size(), r.timed[0].latency_ms.size());
  for (const Metric& m : kEndToEnd) {
    const double a = plain.at(m.name);
    const double b = traced.at(m.name);
    std::printf("  %-20s %14.4f %14.4f %-6s %+.1f%%\n", m.name, b, a, m.unit,
                a != 0 ? (b / a - 1.0) * 100.0 : 0.0);
  }
  const std::string path =
      o.out_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json";
  if (tracer.WriteChromeTrace(path)) {
    std::printf("trace: %zu spans written to %s\n", tracer.span_count(),
                path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
}

void PrintJson(const Report& r, const Metric* metrics, size_t n,
               const LayerMetrics& values) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (size_t i = 0; i < n; ++i) {
    auto it = values.find(metrics[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, v, metrics[i].unit);
  }
  std::printf("}}\n");
}

void PrintErrors(const char* what, const std::vector<std::string>& errors) {
  constexpr size_t kShown = 20;
  for (size_t i = 0; i < errors.size() && i < kShown; ++i) {
    std::fprintf(stderr, "%s: %s\n", what, errors[i].c_str());
  }
  if (errors.size() > kShown) {
    std::fprintf(stderr, "%s: ... and %zu more\n", what, errors.size() - kShown);
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <catalog|adhoc|serve-mixed|sharded> "
               "--seed N --seconds S --trace <0|1> [--out-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  const Clock::time_point start = Clock::now();
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  const auto& names = WorkloadNames();
  if (argc % 2 == 0 || o.seconds <= 0 ||
      std::find(names.begin(), names.end(), o.workload) == names.end()) {
    return Usage(argv[0]);
  }

  Tracer tracer;
  Report report;
  RunWorkload(o, start, &tracer, &report);
  PrintErrors("CHECK FAILED", report.errors);
  PrintErrors("OPERATION FAILED", report.op_errors);
  if (report.attempted == 0) {
    std::fprintf(stderr, "no operation ran\n");
    return 1;
  }
  std::printf("workload %s seed %" PRIu64 ": %" PRIu64 " operations, %" PRIu64
              " failed, answers %s\n",
              o.workload.c_str(), o.seed, report.attempted, report.failed,
              report.correct ? "correct" : "WRONG");
  if (o.trace) {
    PrintTraceReport(o, tracer, report);
    PrintJson(report, kPerLayer, sizeof(kPerLayer) / sizeof(kPerLayer[0]),
              report.layer);
  } else {
    PrintJson(report, kEndToEnd, sizeof(kEndToEnd) / sizeof(kEndToEnd[0]),
              EndToEnd(report, report.timed[0]));
  }
  std::fflush(stdout);
  return 0;
}
