// Span recorder of the benchmark's traced mode.
//
// Spans are recorded only around calls the benchmark itself makes into a
// layer's public functions; nothing inside the library is instrumented.
// Each span has a name, a start, an end, the span that enclosed it on the
// same thread, and the id of the query it belongs to. Spans are kept in
// memory and written out once, at exit, as Chrome trace-event JSON.
#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  /// Spans opened while disabled record nothing and cost one load.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// A fresh query id; spans opened on this thread inherit it from the
  /// enclosing span, or take it from the constructor.
  uint64_t NewQueryId() { return next_query_.fetch_add(1) + 1; }

  /// RAII span. `tracer` may be null (no recording).
  class Span {
   public:
    Span(Tracer* tracer, const char* name, uint64_t query = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Wall time since the span opened, in ms (valid even when disabled).
    double ElapsedMs() const;

   private:
    Tracer* tracer_ = nullptr;  // null when not recording
    const char* name_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    uint64_t query_ = 0;
    Clock::time_point start_;
  };

  /// Per span name: number of spans, summed duration, summed self time
  /// (duration less the time its child spans cover).
  struct NameTotals {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    double MeanMs() const { return count == 0 ? 0.0 : total_ms / count; }
  };
  std::map<std::string, NameTotals> Totals() const;

  /// Writes every recorded span as Chrome trace-event JSON ("X" events).
  bool WriteChromeTrace(const std::string& path) const;

  size_t span_count() const;

 private:
  struct Record {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t query = 0;
    uint64_t thread = 0;
    double start_us = 0.0;
    double end_us = 0.0;
  };
  void Add(Record r);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> next_query_{0};
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Record> records_;  // guarded by mu_
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
