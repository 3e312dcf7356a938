#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

namespace drmp::obs {

void Histogram::observe(u64 v) noexcept {
  ++buckets[static_cast<std::size_t>(std::bit_width(v))];
  ++count;
  sum += v;
  max = std::max(max, v);
}

void MetricsRegistry::add(std::string_view name, u64 delta) {
  auto it = counters_.lower_bound(name);
  if (it == counters_.end() || it->first != name) {
    it = counters_.emplace_hint(it, name, 0);
  }
  it->second += delta;
}

void MetricsRegistry::max_gauge(std::string_view name, i64 v) {
  auto it = gauges_.lower_bound(name);
  if (it == gauges_.end() || it->first != name) it = gauges_.emplace_hint(it, name, v);
  it->second = std::max(it->second, v);
}

void MetricsRegistry::observe(const std::string& name, u64 v) {
  hists_[name].observe(v);
}

std::optional<u64> MetricsRegistry::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  if (it == counters_.end()) return std::nullopt;
  return it->second;
}

std::optional<i64> MetricsRegistry::gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  if (it == gauges_.end()) return std::nullopt;
  return it->second;
}

std::string MetricsRegistry::to_text() const {
  // std::map iteration is name-sorted, so the dump is deterministic.
  std::ostringstream os;
  for (const auto& [name, v] : counters_) os << name << " " << v << "\n";
  for (const auto& [name, v] : gauges_) os << name << " " << v << "\n";
  for (const auto& [name, h] : hists_) {
    os << name << " count=" << h.count << " sum=" << h.sum << " max=" << h.max
       << "\n";
  }
  return os.str();
}

}  // namespace drmp::obs
