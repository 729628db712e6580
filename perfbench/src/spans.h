// In-memory spans around the benchmark's calls into each layer.
//
// A span records name, start, end, the span that was open when it began
// (its parent) and the request it served.  Spans stay in memory while the
// traced run executes and are written out once at the end, so the cost of
// tracing is a clock read and a vector push per call.  A layer's self time
// is its span's duration minus the part of that interval its child spans
// cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the recorder was created
  double end = 0.0;
  int64_t parent = -1;  ///< index of the enclosing span; -1 = root
  int64_t request = -1;

  [[nodiscard]] double duration() const { return end - start; }
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its index.
  int64_t open(std::string name, int64_t request);
  /// Closes the innermost open span (which must be `index`).
  void close(int64_t index);
  /// Renames a span, for calls whose kind is known only once they return.
  void rename(int64_t index, std::string name);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double now() const;

  /// Writes one JSON object per span.  Returns false if the file cannot be
  /// written.
  bool writeJsonl(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

/// RAII span: open on construction, closed on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, int64_t request)
      : rec_(rec), index_(rec.open(std::move(name), request)) {}
  ~ScopedSpan() { rec_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int64_t index_;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to its own (children may overlap one another).
[[nodiscard]] std::vector<double> selfTimes(const std::vector<Span>& spans);

}  // namespace perfbench
