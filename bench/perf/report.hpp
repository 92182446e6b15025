// The report perf_report prints: named metrics with units, in one JSON
// schema for every workload, plus the helpers that build it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace streamha::perf {

struct Metric {
  std::string name;
  std::string unit;
  std::optional<double> value;  ///< Empty: not supported by the samples.
  /// Sample count behind a percentile; -1 for anything else.
  std::int64_t samples = -1;
};

/// A percentile of `samples` by nearest rank. Empty unless at least ten
/// samples lie beyond it, so a tail is never read off a handful of points.
struct Percentile {
  std::optional<double> value;
  std::int64_t samples = 0;
};
Percentile percentile(std::vector<double> samples, double q);

/// FNV-1a, as 16 hex digits; the digests every report carries.
class Digest {
 public:
  void add(const std::string& text);
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::string jsonString(const std::string& s);
/// Shortest decimal that reads back as exactly `v` (null when not finite).
std::string jsonNumber(double v);
std::string metricsJson(const std::vector<Metric>& metrics);

}  // namespace streamha::perf
