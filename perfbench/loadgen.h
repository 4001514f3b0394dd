#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <sys/resource.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "latency.h"
#include "txn/database.h"
#include "workload.h"

namespace perfbench {

// What became of one written value, for the post-recovery check.
enum class WriteFate : uint8_t {
  kCommitted,  // acknowledged with a tn: must survive unless overwritten
  kAborted,    // definitely rolled back: must never be recovered
  kUnknown,    // no verdict (timeout, transport error): may or may not be
};

struct WriteRecord {
  uint64_t key = 0;
  uint32_t writer = 0;
  uint64_t seq = 0;
  mvcc::TxnNumber tn = 0;
  WriteFate fate = WriteFate::kUnknown;
};

// User and kernel CPU time, as getrusage reports it.
struct CpuTime {
  int64_t user_ns = 0;
  int64_t sys_ns = 0;

  static CpuTime From(const struct rusage& ru) {
    auto ns = [](const struct timeval& tv) {
      return static_cast<int64_t>(tv.tv_sec) * 1'000'000'000 +
             static_cast<int64_t>(tv.tv_usec) * 1'000;
    };
    return CpuTime{ns(ru.ru_utime), ns(ru.ru_stime)};
  }
  CpuTime operator+(const CpuTime& o) const {
    return CpuTime{user_ns + o.user_ns, sys_ns + o.sys_ns};
  }
  CpuTime operator-(const CpuTime& o) const {
    return CpuTime{user_ns - o.user_ns, sys_ns - o.sys_ns};
  }
};

struct PhaseStats {
  Samples ro;    // committed read-only flights: due time -> last response
  Samples rw;    // committed read-write flights: due time -> fsynced ack
  Samples all;   // every answered flight, committed or aborted
  Samples late;  // send (or start) time minus due time
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;  // timeouts, transport errors, sheds, bad statuses
  uint64_t rw_attempted = 0;
  uint64_t rw_aborted = 0;       // conflict aborts (kAborted)
  uint64_t ro_aborted = 0;       // read-only aborts: must stay 0
  uint64_t check_failures = 0;   // wrong or malformed outputs
  uint64_t user_bytes = 0;       // key + value bytes of committed writes
  CpuTime generator_cpu;  // wire phases: the generator threads' CPU time
  std::vector<uint64_t> vis_lag;     // VisibilityLag() samples
  std::vector<uint64_t> queue_size;  // VersionControl::QueueSize() samples
  std::vector<WriteRecord> writes;
  std::vector<std::string> errors;  // the first few, for the log

  void Note(const std::string& error);
  void Merge(PhaseStats&& other);
};

struct PhaseConfig {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  uint32_t phase = 0;       // selects the flight streams
  uint32_t writer_tag = 0;  // keeps written values unique per phase
  double rate_tps = 0.0;
  int64_t duration_ns = 0;
  int threads = 4;
  bool sample_vc = false;   // sample the visibility gauges while running
};

// Open-loop load over loopback TCP: one server::Client connection per
// thread, flights sent when due whether or not earlier ones were
// answered. Every response wait has a deadline; a flight unanswered by
// then counts as failed.
PhaseStats RunWirePhase(const PhaseConfig& config, uint16_t port,
                        mvcc::Database* db);

// The same flights (same config.phase and seed) straight through
// Database/Transaction calls on the same schedule, with a trace span
// around every call into the transaction layer.
PhaseStats RunEnginePhase(const PhaseConfig& config, mvcc::Database* db);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
