// In-memory span log for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into the library
// (never inside the library): name ("<layer>.<what>"), start, end, parent
// and query id. A library call that reports its own host-time split (e.g.
// QueryMetrics::tune_wall_ms) gets *derived* child spans carrying that
// duration, laid end to end from the parent's start. Spans stay in memory
// and are written once, at exit.
#ifndef GPL_PERFBENCH_SPANS_H_
#define GPL_PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t query = -1;
  bool derived = false;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Pauses (false) or resumes recording; a disabled log never records.
  void set_recording(bool on) { recording_ = on; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Opens a span as a child of the innermost open one. Returns its id, or
  /// -1 when tracing is off (Close(-1) is a no-op).
  int Open(std::string name, int64_t query = -1) {
    if (!enabled_ || !recording_) return -1;
    Span span;
    span.name = std::move(name);
    span.start_ns = NowNs();
    span.parent = open_.empty() ? -1 : open_.back();
    span.query = query;
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void Close(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    open_.erase(std::find(open_.begin(), open_.end(), id));
  }

  /// Adds a derived child of `parent` lasting `ms`, placed after the
  /// parent's earlier derived children and clipped to the parent's end.
  void AddDerived(int parent, std::string name, double ms) {
    if (parent < 0 || ms <= 0.0) return;
    const Span& p = spans_[static_cast<size_t>(parent)];
    int64_t start = p.start_ns;
    for (size_t i = static_cast<size_t>(parent) + 1; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent == parent && s.derived) start = std::max(start, s.end_ns);
    }
    Span span;
    span.name = std::move(name);
    span.start_ns = start;
    span.end_ns = std::min(p.end_ns, start + static_cast<int64_t>(ms * 1e6));
    span.parent = parent;
    span.query = p.query;
    span.derived = true;
    spans_.push_back(std::move(span));
  }

  /// Self seconds per layer (the name up to the first '.') over the spans
  /// that start inside [from_ns, to_ns): duration minus the part covered by
  /// direct children.
  std::map<std::string, double> SelfSecondsByLayer(int64_t from_ns,
                                                   int64_t to_ns) const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.start_ns < from_ns || s.start_ns >= to_ns) continue;
      const int64_t own = std::max<int64_t>(0, s.end_ns - s.start_ns - child_ns[i]);
      self[s.name.substr(0, s.name.find('.'))] += static_cast<double>(own) * 1e-9;
    }
    return self;
  }

  /// Durations (ms) of every span with this exact name.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
    return out;
  }

  /// Writes one JSON object per span (times in µs from the first span).
  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                   "\"parent\":%d,\"query\":%lld,\"derived\":%s}\n",
                   i, s.name.c_str(), (s.start_ns - origin) * 1e-3,
                   (s.end_ns - origin) * 1e-3, s.parent,
                   static_cast<long long>(s.query), s.derived ? "true" : "false");
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  bool recording_ = true;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; inert when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int64_t query = -1)
      : log_(log), id_(log.Open(std::move(name), query)) {}
  ~ScopedSpan() { log_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace perfbench

#endif  // GPL_PERFBENCH_SPANS_H_
