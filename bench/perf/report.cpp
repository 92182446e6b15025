#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace streamha::perf {

Percentile percentile(std::vector<double> samples, double q) {
  Percentile out;
  out.samples = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return out;
  const auto n = samples.size();
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n))));
  if (n - rank < 10) return out;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  return out;
}

void Digest::add(const std::string& text) {
  for (unsigned char c : text) {
    h_ ^= c;
    h_ *= 1099511628211ULL;
  }
  // Separator, so ("ab","c") and ("a","bc") differ.
  h_ ^= 0xff;
  h_ *= 1099511628211ULL;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i ? ", " : "") << jsonString(m.name) << ": {\"value\": "
        << (m.value ? jsonNumber(*m.value) : "null")
        << ", \"unit\": " << jsonString(m.unit);
    if (m.samples >= 0) out << ", \"samples\": " << m.samples;
    out << "}";
  }
  out << "}";
  return out.str();
}

}  // namespace streamha::perf
