#ifndef PERFBENCH_LATENCY_H_
#define PERFBENCH_LATENCY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Every latency sample of one series, kept exactly (no bucketing), so a
// percentile is one of the measured values rather than a bucket bound.
class Samples {
 public:
  void Add(int64_t ns) { ns_.push_back(ns); }
  void Merge(const Samples& other) {
    ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
  }
  void Clear() { ns_.clear(); }
  size_t count() const { return ns_.size(); }

  // Nearest-rank percentile in microseconds, p in (0, 1]. 0 when empty.
  double PercentileUs(double p) const;
  double MeanUs() const;

  // True when at least ten samples lie above the p-th percentile, the
  // rule for reporting that percentile at all.
  bool Supports(double p) const;

  // "p50=12.3us p99=45.6us n=1234" (p99 marked when unsupported).
  std::string Describe() const;

 private:
  std::vector<int64_t> ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LATENCY_H_
