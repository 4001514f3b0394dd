#ifndef PERFBENCH_COUNTING_ENV_H_
#define PERFBENCH_COUNTING_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "latency.h"
#include "recovery/env.h"

namespace perfbench {

// An Env decorator that forwards every call to a base Env (the real
// POSIX one) and counts what reaches the device through WAL segment
// files: bytes appended and fsyncs. While tracing is on, every WAL
// fsync's duration is kept too, and each append/fsync records a span.
class CountingEnv : public mvcc::Env {
 public:
  struct Counts {
    uint64_t wal_bytes = 0;
    uint64_t wal_syncs = 0;
  };

  explicit CountingEnv(mvcc::Env* base) : base_(base) {}

  Counts counts() const;
  // Moves the fsync durations recorded since the last call out.
  Samples TakeSyncSamples();

  mvcc::Result<std::unique_ptr<mvcc::WritableFile>> NewAppendableFile(
      const std::string& path) override;
  mvcc::Result<std::string> ReadFileToString(const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  mvcc::Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  mvcc::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return base_->ListDir(dir);
  }
  mvcc::Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  mvcc::Status RenameFile(const std::string& from,
                          const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  mvcc::Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  mvcc::Status CreateDirIfMissing(const std::string& dir) override {
    return base_->CreateDirIfMissing(dir);
  }
  mvcc::Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }

 private:
  friend class CountingFile;

  mvcc::Env* const base_;
  std::atomic<uint64_t> wal_bytes_{0};
  std::atomic<uint64_t> wal_syncs_{0};
  std::mutex mu_;
  Samples sync_samples_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_ENV_H_
