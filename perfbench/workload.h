#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/random.h"
#include "common/zipf.h"

namespace perfbench {

// The transaction shapes the generator sends. Each is one flight: every
// request of the transaction goes out back to back without waiting.
enum class FlightKind : uint8_t {
  kRwBatch,        // one-shot kBatch: read k0,k1 then write k0,k1
  kRoScan,         // begin RO, 8 point reads, one 32-row scan, commit
  kRwInteractive,  // begin RW, read a, write a, read b, write b, commit
  kRoShort,        // begin RO, 4 point reads, commit
};

inline bool IsReadOnly(FlightKind kind) {
  return kind == FlightKind::kRoScan || kind == FlightKind::kRoShort;
}

const char* FlightKindName(FlightKind kind);

inline constexpr size_t kValueBytes = 100;
inline constexpr uint64_t kScanRows = 32;

struct MixEntry {
  FlightKind kind;
  double share;
};

struct WorkloadSpec {
  std::string name;
  uint64_t keys = 0;        // dense, preloaded: [0, keys)
  double zipf_theta = 0.0;  // 0: uniform
  std::vector<MixEntry> mix;
  // Offered load of the fixed-rate phase, transactions per second.
  double fixed_rate_tps = 0.0;
  // Offered-rate ladder for max_rate_tps, ascending.
  std::vector<double> ladder_tps;
  // The ladder's latency limit applies to this class's p99.
  bool limit_read_only = false;
  double p99_limit_us = 0.0;
};

// The benchmark's workloads, by name; nullopt when unknown.
std::optional<WorkloadSpec> FindWorkload(const std::string& name);

struct Flight {
  uint64_t id = 0;      // unique within a run
  int64_t due_ns = 0;   // offset from the phase start
  FlightKind kind = FlightKind::kRwBatch;
  uint64_t keys[8] = {};
  uint64_t scan_lo = 0;  // kRoScan: the scan covers [scan_lo, +kScanRows)
  uint32_t writer = 0;   // value provenance for written keys
  uint64_t write_seq = 0;
};

// Deterministic open-loop arrivals for one connection: a Poisson
// process at `rate_tps`, in [0, duration_ns), with flight shapes and
// keys drawn from the workload. The same (seed, stream) always yields
// the same flights, so a traced replay re-runs exactly the transactions
// the wire run sent. `writer` only tags the values written, keeping every
// written value unique across the phases of a run.
class FlightSource {
 public:
  FlightSource(const WorkloadSpec& spec, uint64_t seed, uint32_t stream,
               uint32_t writer, double rate_tps, int64_t duration_ns);

  // False once the next arrival would fall past the duration.
  bool Next(Flight* flight);

 private:
  uint64_t Key();

  const WorkloadSpec& spec_;
  const uint32_t stream_;
  const uint32_t writer_;
  const double rate_per_ns_;
  const int64_t duration_ns_;
  mvcc::Random rng_;
  mvcc::ZipfGenerator zipf_;
  double clock_ns_ = 0.0;
  uint64_t seq_ = 0;
};

// Written values are exactly kValueBytes long and name their key and the
// (writer, seq) that produced them, so any value read back can be
// checked for shape and traced to the write it came from.
mvcc::Value EncodeValue(uint64_t key, uint32_t writer, uint64_t seq);
const mvcc::Value& InitialValue();

struct ValueOrigin {
  bool initial = false;
  uint64_t key = 0;
  uint32_t writer = 0;
  uint64_t seq = 0;
};
// Parses a value; false when it is neither the initial value nor an
// exact EncodeValue output.
bool DecodeValue(const mvcc::Value& value, ValueOrigin* origin);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
