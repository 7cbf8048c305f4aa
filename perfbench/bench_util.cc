#include "bench_util.h"

#include <cmath>
#include <fstream>

namespace contratopic {
namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

}  // namespace

std::string Report::ToJson() const {
  bool finite = true;
  std::string metrics;
  for (const auto& [name, value_unit] : metrics_) {
    if (!std::isfinite(value_unit.first)) finite = false;
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " +
               JsonNumber(value_unit.first) +
               ", \"unit\": " + JsonString(value_unit.second) + "}";
  }
  const int64_t failed = failed_ + (finite ? 0 : 1);
  const int64_t attempted = std::max<int64_t>(attempted_, 1);
  return std::string("{\"correct\": ") +
         (failed == 0 && finite ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         metrics + "}}";
}

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  std::map<std::string, double> self;
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_seconds[span.parent] += span.end - span.start;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] +=
        spans_[i].end - spans_[i].start - child_seconds[i];
  }
  return self;
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end - span.start);
  }
  return out;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& span : spans_) {
    out << "{\"name\": " << JsonString(span.name) << ", \"id\": " << span.id
        << ", \"parent\": " << span.parent
        << ", \"start_us\": " << JsonNumber((span.start - origin) * 1e6)
        << ", \"end_us\": " << JsonNumber((span.end - origin) * 1e6)
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
}  // namespace contratopic
