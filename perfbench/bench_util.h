#ifndef CONTRATOPIC_PERFBENCH_BENCH_UTIL_H_
#define CONTRATOPIC_PERFBENCH_BENCH_UTIL_H_

// Timing, statistics, result reporting and span tracing for the
// end-to-end benchmark. Everything here lives outside the library: spans
// are recorded around calls into the library's public functions.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace contratopic {
namespace perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

// Result of one benchmark run: named metrics plus the operation counts the
// final JSON line carries. A failed correctness check, a failed request
// and a shed request each count as one failed operation.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }
  void Attempt(int64_t n = 1) { attempted_ += n; }
  // Counts one attempted operation; a false `ok` also counts a failure
  // and logs `what` to stderr.
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
  void Fail(int64_t n, const std::string& what) {
    if (n <= 0) return;
    failed_ += n;
    std::fprintf(stderr, "perfbench: %lld failed: %s\n",
                 static_cast<long long>(n), what.c_str());
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  // The single-line JSON object the benchmark prints last.
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// In-memory span recorder. A span has a name, start and end, the span
// open on the recorder when it began (its parent), and an id that ties
// the spans of one serve request together (-1 when unused). Spans are
// written out only when the run ends.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t id = -1;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };

  int Begin(const std::string& name, int64_t id = -1) {
    Span span;
    span.name = name;
    span.id = id;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start = NowSeconds();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  // Closes the innermost open span (which must be `index`) and returns
  // its duration in seconds.
  double End(int index) {
    Span& span = spans_[index];
    span.end = NowSeconds();
    open_.pop_back();
    return span.end - span.start;
  }

  // Self time per span name in seconds: each span's duration minus the
  // part covered by its direct children.
  std::map<std::string, double> SelfSeconds() const;
  // Durations of every span named `name`, in seconds.
  std::vector<double> Durations(const std::string& name) const;
  // Writes one JSON object per span; returns false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span on an optional recorder (null: untraced, costs one branch).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name,
             int64_t id = -1)
      : recorder_(recorder),
        index_(recorder ? recorder->Begin(name, id) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench
}  // namespace contratopic

#endif  // CONTRATOPIC_PERFBENCH_BENCH_UTIL_H_
