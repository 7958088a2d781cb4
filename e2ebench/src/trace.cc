#include "trace.h"

#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>
#include <utility>

namespace e2ebench {

namespace {

// The open spans of this thread, innermost last: (span id, query id).
thread_local std::vector<std::pair<uint64_t, uint64_t>> open_spans;

double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

void JsonEscape(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* name, uint64_t query)
    : name_(name), start_(Clock::now()) {
  if (tracer == nullptr || !tracer->enabled()) return;
  tracer_ = tracer;
  id_ = tracer->next_id_.fetch_add(1) + 1;
  if (!open_spans.empty()) {
    parent_ = open_spans.back().first;
    query_ = open_spans.back().second;
  }
  if (query != 0) query_ = query;
  open_spans.emplace_back(id_, query_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  open_spans.pop_back();
  Record r;
  r.name = name_;
  r.id = id_;
  r.parent = parent_;
  r.query = query_;
  r.thread = std::hash<std::thread::id>()(std::this_thread::get_id());
  r.start_us = UsBetween(tracer_->origin_, start_);
  r.end_us = UsBetween(tracer_->origin_, end);
  tracer_->Add(std::move(r));
}

double Tracer::Span::ElapsedMs() const {
  return UsBetween(start_, Clock::now()) / 1e3;
}

void Tracer::Add(Record r) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(r));
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::map<std::string, Tracer::NameTotals> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children close before their parent and run on the parent's thread,
  // so their durations lie inside it and never overlap each other.
  std::unordered_map<uint64_t, double> child_us;
  for (const Record& r : records_) {
    if (r.parent != 0) child_us[r.parent] += r.end_us - r.start_us;
  }
  std::map<std::string, NameTotals> totals;
  for (const Record& r : records_) {
    NameTotals& t = totals[r.name];
    const double dur_us = r.end_us - r.start_us;
    auto it = child_us.find(r.id);
    const double self_us = dur_us - (it == child_us.end() ? 0.0 : it->second);
    ++t.count;
    t.total_ms += dur_us / 1e3;
    t.self_ms += self_us / 1e3;
  }
  return totals;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::string json = "{\"traceEvents\":[";
  {
    std::lock_guard<std::mutex> lock(mu_);
    char buf[256];
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      if (i > 0) json += ",\n";
      json += "{\"name\":\"";
      JsonEscape(r.name, &json);
      std::snprintf(buf, sizeof(buf),
                    "\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                    "\"query\":%llu}}",
                    static_cast<unsigned long long>(r.thread % 100000),
                    r.start_us, r.end_us - r.start_us,
                    static_cast<unsigned long long>(r.id),
                    static_cast<unsigned long long>(r.parent),
                    static_cast<unsigned long long>(r.query));
      json += buf;
    }
  }
  json += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace e2ebench
