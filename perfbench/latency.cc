#include "latency.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Samples::PercentileUs(double p) const {
  if (ns_.empty()) return 0.0;
  std::vector<int64_t> sorted(ns_);
  size_t rank = static_cast<size_t>(std::ceil(p * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return static_cast<double>(sorted[rank - 1]) / 1e3;
}

double Samples::MeanUs() const {
  if (ns_.empty()) return 0.0;
  double sum = 0.0;
  for (int64_t v : ns_) sum += static_cast<double>(v);
  return sum / static_cast<double>(ns_.size()) / 1e3;
}

bool Samples::Supports(double p) const {
  return static_cast<double>(ns_.size()) * (1.0 - p) >= 10.0;
}

std::string Samples::Describe() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "p50=%.1fus p99=%.1fus%s n=%zu",
                PercentileUs(0.50), PercentileUs(0.99),
                Supports(0.99) ? "" : "(unsupported)", ns_.size());
  return buf;
}

}  // namespace perfbench
