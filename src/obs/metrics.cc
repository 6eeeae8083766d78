#include "obs/metrics.h"

#include <algorithm>

namespace crimson {
namespace obs {

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0 || bounds.empty()) return 0.0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  // Rank of the target observation (1-based, interpolated).
  const double rank = p / 100.0 * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const uint64_t next = seen + counts[i];
    if (static_cast<double>(next) >= rank) {
      const double lower = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
      if (bounds[i] == UINT64_MAX) return std::max(lower, 0.0);
      const double upper = static_cast<double>(bounds[i]);
      const double into =
          counts[i] == 0
              ? 0.0
              : (rank - static_cast<double>(seen)) /
                    static_cast<double>(counts[i]);
      return lower + (upper - lower) * std::min(std::max(into, 0.0), 1.0);
    }
    seen = next;
  }
  // All mass below rank (rounding); report the top finite edge.
  for (size_t i = bounds.size(); i-- > 0;) {
    if (bounds[i] != UINT64_MAX) return static_cast<double>(bounds[i]);
  }
  return 0.0;
}

double HistogramSnapshot::BucketWidth(double value) const {
  double lower = 0.0;
  for (size_t i = 0; i < bounds.size(); ++i) {
    const double upper = bounds[i] == UINT64_MAX
                             ? static_cast<double>(bounds[i == 0 ? 0 : i - 1])
                             : static_cast<double>(bounds[i]);
    if (value <= upper || bounds[i] == UINT64_MAX) {
      return std::max(upper - lower, 1.0);
    }
    lower = upper;
  }
  return 1.0;
}

namespace {

std::vector<uint64_t> WithOverflow(const std::vector<uint64_t>& bounds) {
  std::vector<uint64_t> out = bounds;
  if (out.empty() || out.back() != UINT64_MAX) out.push_back(UINT64_MAX);
  return out;
}

}  // namespace

Histogram::Histogram(const std::vector<uint64_t>& bounds)
    : bounds_(WithOverflow(bounds.empty() ? DefaultLatencyBoundsUs() : bounds)),
      cells_(new std::atomic<uint64_t>[bounds_.size()]) {
  for (size_t i = 0; i < bounds_.size(); ++i) cells_[i].store(0);
}

void Histogram::Observe(uint64_t value) {
  // Upper-bound binary search: first bucket whose inclusive upper edge
  // holds the value. The UINT64_MAX overflow edge guarantees a hit.
  size_t idx =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  cells_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot out;
  out.bounds = bounds_;
  out.counts.resize(bounds_.size());
  for (size_t i = 0; i < bounds_.size(); ++i) {
    out.counts[i] = cells_[i].load(std::memory_order_relaxed);
  }
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  return out;
}

const std::vector<uint64_t>& Histogram::DefaultLatencyBoundsUs() {
  // Exponential 1us .. 1048576us (~1s); overflow appended by the ctor.
  static const std::vector<uint64_t>* bounds = [] {
    auto* b = new std::vector<uint64_t>;
    for (uint64_t edge = 1; edge <= (1ull << 20); edge <<= 1) {
      b->push_back(edge);
    }
    return b;
  }();
  return *bounds;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cells_.find(name);
  if (it == cells_.end()) {
    it = cells_.emplace(std::string(name), Cell{}).first;
    it->second.counter = std::make_unique<Counter>();
    return it->second.counter.get();
  }
  if (it->second.counter) return it->second.counter.get();
  orphan_counters_.push_back(std::make_unique<Counter>());
  return orphan_counters_.back().get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cells_.find(name);
  if (it == cells_.end()) {
    it = cells_.emplace(std::string(name), Cell{}).first;
    it->second.gauge = std::make_unique<Gauge>();
    return it->second.gauge.get();
  }
  if (it->second.gauge) return it->second.gauge.get();
  orphan_gauges_.push_back(std::make_unique<Gauge>());
  return orphan_gauges_.back().get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         const std::vector<uint64_t>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cells_.find(name);
  if (it == cells_.end()) {
    it = cells_.emplace(std::string(name), Cell{}).first;
    it->second.histogram = std::make_unique<Histogram>(bounds);
    return it->second.histogram.get();
  }
  if (it->second.histogram) return it->second.histogram.get();
  orphan_histograms_.push_back(std::make_unique<Histogram>(bounds));
  return orphan_histograms_.back().get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, cell] : cells_) {
    if (cell.counter) out.counters[name] = cell.counter->value();
    if (cell.gauge) out.counters[name] = cell.gauge->value();
    if (cell.histogram) out.histograms[name] = cell.histogram->Snapshot();
  }
  return out;
}

}  // namespace obs
}  // namespace crimson
