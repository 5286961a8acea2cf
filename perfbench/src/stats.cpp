#include "stats.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace perfbench {

void WindowedNs::record(std::uint64_t at_ns, std::uint64_t ns) {
  const std::size_t w =
      at_ns > start_ns_ ? (at_ns - start_ns_) / window_ns_ : 0;
  if (w >= windows_.size()) windows_.resize(w + 1);
  windows_[w].record(ns);
}

std::uint64_t WindowedNs::count() const {
  std::uint64_t n = 0;
  for (const auto& h : windows_) n += h.count();
  return n;
}

double WindowedNs::window_iqm(double q, std::uint64_t min_samples) const {
  std::vector<double> per_window;
  cpkcore::LatencyHistogram pooled;
  for (const auto& h : windows_) {
    if (h.count() >= min_samples) {
      per_window.push_back(static_cast<double>(h.quantile_ns(q)));
    }
    pooled.merge(h);
  }
  return per_window.empty() ? static_cast<double>(pooled.quantile_ns(q))
                            : interquartile_mean(std::move(per_window));
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void MetricSet::add(std::string name, double value, std::string unit) {
  items_.push_back({std::move(name), value, std::move(unit)});
}

std::string MetricSet::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i) out += ", ";
    out += json_string(items_[i].name) + ": {\"value\": " +
           json_number(items_[i].value) +
           ", \"unit\": " + json_string(items_[i].unit) + "}";
  }
  return out + "}";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace perfbench
