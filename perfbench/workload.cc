#include "workload.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

const char* FlightKindName(FlightKind kind) {
  switch (kind) {
    case FlightKind::kRwBatch: return "rw_batch";
    case FlightKind::kRoScan: return "ro_scan";
    case FlightKind::kRwInteractive: return "rw_interactive";
    case FlightKind::kRoShort: return "ro_short";
  }
  return "?";
}

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "durable_write") {
    // Nearly all time in the commit path: cc lock -> group flush -> WAL
    // fsync -> VCcomplete. No snapshot reads, so the read-only metrics
    // are absent on this workload.
    w.keys = 1'000'000;
    w.mix = {{FlightKind::kRwBatch, 1.0}};
    w.fixed_rate_tps = 3000;
    w.ladder_tps = {6000,  7000,  8000,  9000,  10000, 11000,
                    12000, 13000, 14000, 15000, 16000};
    w.limit_read_only = false;
    w.p99_limit_us = 50000;
    return w;
  }
  if (name == "snapshot_read") {
    // Read path: frame decode/encode, VC snapshot start, version-chain
    // reads and B+ tree scans over a working set well above the L3; 5%
    // durable writers keep versions and vtnc moving.
    w.keys = 2'000'000;
    w.mix = {{FlightKind::kRoScan, 0.95}, {FlightKind::kRwBatch, 0.05}};
    w.fixed_rate_tps = 6000;
    w.ladder_tps = {10000, 11000, 12000, 13000, 14000, 15000,
                    16000, 17000, 18000, 19000, 20000};
    w.limit_read_only = true;
    w.p99_limit_us = 50000;
    return w;
  }
  if (name == "contended_rw") {
    // Interactive writers contend on Zipf-hot keys beside snapshot
    // readers of the same keys: lock waits, wait-die aborts, and whether
    // read-only latency stays flat under read-write contention.
    w.keys = 10'000;
    w.zipf_theta = 0.9;
    w.mix = {{FlightKind::kRwInteractive, 0.5}, {FlightKind::kRoShort, 0.5}};
    w.fixed_rate_tps = 2000;
    w.ladder_tps = {2000, 2500, 3000, 3500, 4000, 4500,
                    5000, 5500, 6000, 7000, 8000};
    w.limit_read_only = false;
    w.p99_limit_us = 50000;
    return w;
  }
  return std::nullopt;
}

FlightSource::FlightSource(const WorkloadSpec& spec, uint64_t seed,
                           uint32_t stream, uint32_t writer,
                           double rate_tps, int64_t duration_ns)
    : spec_(spec),
      stream_(stream),
      writer_(writer),
      rate_per_ns_(rate_tps / 1e9),
      duration_ns_(duration_ns),
      rng_(seed * 0x9E3779B97F4A7C15ULL + stream + 1),
      zipf_(spec.keys, spec.zipf_theta) {}

uint64_t FlightSource::Key() { return zipf_.Next(&rng_); }

bool FlightSource::Next(Flight* f) {
  // Exponential inter-arrival gaps: independent users, an open loop.
  const double u = rng_.NextDouble();
  clock_ns_ += -std::log1p(-u) / rate_per_ns_;
  if (clock_ns_ >= static_cast<double>(duration_ns_)) return false;

  *f = Flight{};
  f->id = (static_cast<uint64_t>(stream_) << 32) | ++seq_;
  f->due_ns = static_cast<int64_t>(clock_ns_);
  double pick = rng_.NextDouble();
  f->kind = spec_.mix.back().kind;
  for (const MixEntry& m : spec_.mix) {
    if (pick < m.share) {
      f->kind = m.kind;
      break;
    }
    pick -= m.share;
  }
  switch (f->kind) {
    case FlightKind::kRwBatch:
    case FlightKind::kRwInteractive:
      f->keys[0] = Key();
      do {
        f->keys[1] = Key();
      } while (f->keys[1] == f->keys[0]);
      f->writer = writer_;
      f->write_seq = seq_ * 2;  // two writes: seq and seq + 1
      break;
    case FlightKind::kRoScan:
      for (int i = 0; i < 8; ++i) f->keys[i] = Key();
      f->scan_lo = rng_.Uniform(spec_.keys - kScanRows + 1);
      break;
    case FlightKind::kRoShort:
      for (int i = 0; i < 4; ++i) f->keys[i] = Key();
      break;
  }
  return true;
}

mvcc::Value EncodeValue(uint64_t key, uint32_t writer, uint64_t seq) {
  char buf[kValueBytes + 1];
  int n = std::snprintf(buf, sizeof(buf), "k=%016llx w=%08x s=%016llx|",
                        static_cast<unsigned long long>(key), writer,
                        static_cast<unsigned long long>(seq));
  mvcc::Value v(buf, static_cast<size_t>(n));
  v.resize(kValueBytes, '.');
  return v;
}

const mvcc::Value& InitialValue() {
  static const mvcc::Value* v = [] {
    auto* s = new mvcc::Value("init|");
    s->resize(kValueBytes, '.');
    return s;
  }();
  return *v;
}

bool DecodeValue(const mvcc::Value& value, ValueOrigin* origin) {
  *origin = ValueOrigin{};
  if (value == InitialValue()) {
    origin->initial = true;
    return true;
  }
  if (value.size() != kValueBytes) return false;
  unsigned long long key = 0, seq = 0;
  unsigned writer = 0;
  if (std::sscanf(value.c_str(), "k=%16llx w=%8x s=%16llx|", &key, &writer,
                  &seq) != 3) {
    return false;
  }
  origin->key = key;
  origin->writer = writer;
  origin->seq = seq;
  // Exact round trip: any stray byte makes the value malformed.
  return EncodeValue(key, writer, seq) == value;
}

}  // namespace perfbench
