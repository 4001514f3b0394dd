#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "latency.h"

namespace perfbench {

// Layer boundaries the benchmark records spans at. Every span is opened
// by benchmark code around a call into the library's public API (or, for
// the WAL kinds, inside the benchmark's own Env decorator), never inside
// the library itself.
enum class SpanKind : uint8_t {
  kFlight,      // one whole transaction as the caller sees it
  kTxnBeginRo,  // Database::Begin(kReadOnly): the VC snapshot
  kTxnBeginRw,  // Database::Begin(kReadWrite)
  kTxnRead,     // Transaction::Read
  kTxnScan,     // Transaction::ScanRange
  kTxnWrite,    // Transaction::Write
  kTxnCommitRo, // Transaction::Commit of a read-only transaction
  kTxnCommitRw, // Transaction::Commit of a read-write transaction
  kWalAppend,   // WritableFile::Append on a WAL segment
  kWalSync,     // WritableFile::Sync on a WAL segment (the fsync)
  kCount,
};

const char* SpanKindName(SpanKind kind);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t txn = 0;     // transaction (flight) id; 0 when not known
  int32_t parent = -1;  // index of the enclosing span in the same thread
  SpanKind kind = SpanKind::kFlight;
};

// In-memory span recorder. Each thread appends to its own buffer, so
// recording takes no lock; a span's parent is the innermost span still
// open on the same thread. Reset() and Collect() require quiescence: no
// thread may be recording while they run.
class Tracer {
 public:
  static void SetEnabled(bool enabled);
  static bool enabled();

  // Opens a span on the calling thread; returns its slot, or -1 when
  // tracing is off or the thread's buffer is full.
  static int32_t Open(SpanKind kind, uint64_t txn);
  static void Close(int32_t slot);
  // Records an already finished root span, for intervals that do not
  // nest on the recording thread (pipelined flights overlap).
  static void Record(SpanKind kind, uint64_t txn, int64_t start_ns,
                     int64_t end_ns);

  static void Reset();
  // One vector of spans per thread that ever recorded.
  static std::vector<std::vector<Span>> Collect();
  static uint64_t dropped();
};

class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, uint64_t txn) : slot_(Tracer::Open(kind, txn)) {}
  ~ScopedSpan() {
    if (slot_ >= 0) Tracer::Close(slot_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t slot_;
};

// Per-kind durations and self times (duration minus the time covered
// by the span's direct children) over a collected trace.
struct SpanSummary {
  std::array<Samples, static_cast<size_t>(SpanKind::kCount)> total;
  std::array<Samples, static_cast<size_t>(SpanKind::kCount)> self;
};

SpanSummary Summarize(const std::vector<std::vector<Span>>& threads);

// Writes one CSV row per span: thread,index,kind,txn,parent,start_ns,end_ns.
bool WriteSpansCsv(const std::string& path,
                   const std::vector<std::vector<Span>>& threads);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
