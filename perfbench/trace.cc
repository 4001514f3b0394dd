#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

// Caps memory: 2M spans per thread is 64 MB at most.
constexpr size_t kMaxSpansPerThread = 2'000'000;

int64_t Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<int32_t> open;  // stack of open slots
};

struct Registry {
  std::atomic<bool> enabled{false};
  std::atomic<uint64_t> dropped{0};
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;  // guarded by mu
};

Registry& Reg() {
  static Registry* registry = new Registry();  // outlives every thread
  return *registry;
}

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(Reg().mu);
    Reg().buffers.push_back(std::move(owned));
  }
  return buffer;
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kFlight: return "flight";
    case SpanKind::kTxnBeginRo: return "txn.begin_ro";
    case SpanKind::kTxnBeginRw: return "txn.begin_rw";
    case SpanKind::kTxnRead: return "txn.read";
    case SpanKind::kTxnScan: return "txn.scan";
    case SpanKind::kTxnWrite: return "txn.write";
    case SpanKind::kTxnCommitRo: return "txn.commit_ro";
    case SpanKind::kTxnCommitRw: return "txn.commit_rw";
    case SpanKind::kWalAppend: return "wal.append";
    case SpanKind::kWalSync: return "wal.sync";
    case SpanKind::kCount: break;
  }
  return "?";
}

void Tracer::SetEnabled(bool enabled) {
  Reg().enabled.store(enabled, std::memory_order_release);
}

bool Tracer::enabled() {
  return Reg().enabled.load(std::memory_order_relaxed);
}

int32_t Tracer::Open(SpanKind kind, uint64_t txn) {
  if (!enabled()) return -1;
  ThreadBuffer* buf = LocalBuffer();
  if (buf->spans.size() >= kMaxSpansPerThread) {
    Reg().dropped.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Span span;
  span.kind = kind;
  span.txn = txn;
  span.parent = buf->open.empty() ? -1 : buf->open.back();
  span.start_ns = Now();
  const auto slot = static_cast<int32_t>(buf->spans.size());
  buf->spans.push_back(span);
  buf->open.push_back(slot);
  return slot;
}

void Tracer::Close(int32_t slot) {
  ThreadBuffer* buf = LocalBuffer();
  buf->spans[static_cast<size_t>(slot)].end_ns = Now();
  // Spans nest strictly on one thread; the slot closed is the top.
  if (!buf->open.empty() && buf->open.back() == slot) buf->open.pop_back();
}

void Tracer::Record(SpanKind kind, uint64_t txn, int64_t start_ns,
                    int64_t end_ns) {
  if (!enabled()) return;
  ThreadBuffer* buf = LocalBuffer();
  if (buf->spans.size() >= kMaxSpansPerThread) {
    Reg().dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Span span;
  span.kind = kind;
  span.txn = txn;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  buf->spans.push_back(span);
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(Reg().mu);
  for (auto& buf : Reg().buffers) {
    buf->spans.clear();
    buf->open.clear();
  }
  Reg().dropped.store(0, std::memory_order_relaxed);
}

std::vector<std::vector<Span>> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(Reg().mu);
  std::vector<std::vector<Span>> out;
  for (const auto& buf : Reg().buffers) {
    if (!buf->spans.empty()) out.push_back(buf->spans);
  }
  return out;
}

uint64_t Tracer::dropped() {
  return Reg().dropped.load(std::memory_order_relaxed);
}

SpanSummary Summarize(const std::vector<std::vector<Span>>& threads) {
  SpanSummary summary;
  for (const auto& spans : threads) {
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0 && s.end_ns > 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns == 0) continue;  // never closed
      const auto k = static_cast<size_t>(s.kind);
      summary.total[k].Add(s.end_ns - s.start_ns);
      summary.self[k].Add(s.end_ns - s.start_ns - child_ns[i]);
    }
  }
  return summary;
}

bool WriteSpansCsv(const std::string& path,
                   const std::vector<std::vector<Span>>& threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,index,kind,txn,parent,start_ns,end_ns\n");
  for (size_t t = 0; t < threads.size(); ++t) {
    for (size_t i = 0; i < threads[t].size(); ++i) {
      const Span& s = threads[t][i];
      std::fprintf(f, "%zu,%zu,%s,%llu,%d,%lld,%lld\n", t, i,
                   SpanKindName(s.kind),
                   static_cast<unsigned long long>(s.txn), s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
