// In-memory span recorder for the traced benchmark run.
//
// A span wraps one call into a layer's public API from the benchmark's own
// code: name (the per-layer metric it feeds), start and end on the host
// steady clock, the enclosing span and the operation (load or metro run)
// it belongs to.  Spans stay in memory until the run ends and are written
// out in one go, so recording costs one vector append and two clock reads.
// A disabled recorder still runs the wrapped calls, which is how the
// benchmark prices its own tracing (traced vs untraced wall).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // static string: a layer entry point
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the recorder's spans, -1 = root
  std::int64_t op = 0;       // operation id; spans of one operation share it
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  void set_op(std::int64_t op) { op_ = op; }

  std::int32_t open(const char* name) {
    if (!enabled_) return -1;
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, now_ns(), 0, parent_, op_});
    parent_ = index;
    return index;
  }

  void close(std::int32_t index) {
    if (index < 0) return;
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = now_ns();
    parent_ = span.parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the time its direct
  /// children cover, in nanoseconds.
  std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const std::int64_t duration = span.end_ns - span.start_ns;
      self[i] += duration;
      if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= duration;
    }
    return self;
  }

  /// Self time summed per span name, in milliseconds, over the spans
  /// recorded from index `from` on.
  std::map<std::string, double> self_ms_by_name(std::size_t from = 0) const {
    const std::vector<std::int64_t> self = self_ns();
    std::map<std::string, double> out;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      out[spans_[i].name] += static_cast<double>(self[i]) / 1e6;
    }
    return out;
  }

  /// Writes one tab-separated line per span: index, op, parent, name,
  /// start_ns, end_ns (start/end relative to the first span).
  bool write(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(file, "index\top\tparent\tname\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(file, "%zu\t%lld\t%d\t%s\t%lld\t%lld\n", i,
                   static_cast<long long>(s.op), s.parent, s.name,
                   static_cast<long long>(s.start_ns - base),
                   static_cast<long long>(s.end_ns - base));
    }
    return std::fclose(file) == 0;
  }

 private:
  bool enabled_;
  std::int64_t op_ = 0;
  std::int32_t parent_ = -1;
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the scope.
class SpanScope {
 public:
  SpanScope(SpanRecorder& recorder, const char* name)
      : recorder_(recorder), index_(recorder.open(name)) {}
  ~SpanScope() { recorder_.close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int32_t index_;
};

}  // namespace perfbench
