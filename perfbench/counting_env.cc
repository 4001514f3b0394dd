#include "counting_env.h"

#include <chrono>
#include <utility>

#include "trace.h"

namespace perfbench {

class CountingFile : public mvcc::WritableFile {
 public:
  CountingFile(std::unique_ptr<mvcc::WritableFile> base, CountingEnv* env,
               bool is_wal)
      : base_(std::move(base)), env_(env), is_wal_(is_wal) {}

  mvcc::Status Append(std::string_view data) override {
    if (!is_wal_) return base_->Append(data);
    env_->wal_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
    ScopedSpan span(SpanKind::kWalAppend, 0);
    return base_->Append(data);
  }

  mvcc::Status Sync() override {
    if (!is_wal_) return base_->Sync();
    env_->wal_syncs_.fetch_add(1, std::memory_order_relaxed);
    if (!Tracer::enabled()) return base_->Sync();
    ScopedSpan span(SpanKind::kWalSync, 0);
    const auto start = std::chrono::steady_clock::now();
    mvcc::Status s = base_->Sync();
    const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    std::lock_guard<std::mutex> lock(env_->mu_);
    env_->sync_samples_.Add(ns);
    return s;
  }

  mvcc::Status Close() override { return base_->Close(); }
  uint64_t offset() const override { return base_->offset(); }

 private:
  std::unique_ptr<mvcc::WritableFile> base_;
  CountingEnv* const env_;
  const bool is_wal_;
};

CountingEnv::Counts CountingEnv::counts() const {
  Counts c;
  c.wal_bytes = wal_bytes_.load(std::memory_order_relaxed);
  c.wal_syncs = wal_syncs_.load(std::memory_order_relaxed);
  return c;
}

Samples CountingEnv::TakeSyncSamples() {
  std::lock_guard<std::mutex> lock(mu_);
  Samples out = std::move(sync_samples_);
  sync_samples_.Clear();
  return out;
}

mvcc::Result<std::unique_ptr<mvcc::WritableFile>>
CountingEnv::NewAppendableFile(const std::string& path) {
  auto file = base_->NewAppendableFile(path);
  if (!file.ok()) return file.status();
  // OpenDatabaseDurable keeps WAL segments under <dir>/wal/.
  const bool is_wal = path.find("/wal/") != std::string::npos;
  return std::unique_ptr<mvcc::WritableFile>(
      new CountingFile(std::move(file).value(), this, is_wal));
}

}  // namespace perfbench
