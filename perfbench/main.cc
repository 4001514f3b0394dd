// End-to-end benchmark of the multiversion database as a client sees it:
// an in-process server::Server (mvccd's defaults: VC + 2PL, 4 epoll
// workers, 4 commit executors) in front of a Database opened with
// OpenDatabaseDurable on a fresh directory, so every read-write commit
// is fsynced, driven over loopback TCP by an open-loop generator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--out-dir <dir>] [--source-id <id>]
//
// --trace 0 measures the end-to-end metrics: set-up time, latency at a
// fixed offered rate, recovery time after a restart from disk, then the
// highest rung of a fixed rate ladder that meets the workload's p99
// limit. Only the metrics steady enough to carry a bound (setup_s,
// goodput_tps, peak_rss_mb) go into the result line; the latencies, the
// server's CPU time per transaction, recover_s and max_rate_tps are
// printed and written to the results file. A metric the workload gives
// no samples is printed as absent and written as null; the result line
// names every metric it reports, so there such a metric reads 0 (see
// Report::Emit). --trace 1 measures the per-layer metrics: an untraced and a
// traced run at the fixed rate, then a traced replay of the same
// transactions straight through the Database API.
//
// Both modes check outputs (every read well-formed, every scan dense and
// ascending, no read-only transaction blocked or aborted) and, after the
// run, reopen the data directory and check that every acknowledged
// write survived. Any violation makes the exit code nonzero. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.

#include <sys/statfs.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/epoch.h"
#include "counting_env.h"
#include "loadgen.h"
#include "latency.h"
#include "recovery/recovery.h"
#include "server/client.h"
#include "server/server.h"
#include "trace.h"
#include "txn/database.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using mvcc::NowNanos;
namespace fs = std::filesystem;

constexpr int kSetupReps = 5;
constexpr int kRecoverReps = 5;
constexpr int kMaxThreads = 4;
// The whole run, set-up and recovery included, must end before this.
constexpr int64_t kRunBudgetNs = 170'000'000'000;
constexpr int64_t kStopBudgetMs = 15'000;

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------------
// Result reporting
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;
  bool in_result;
  // Why the metric is absent (the workload gave it no samples, or too
  // few for its percentile); empty when present.
  std::string absent;
};

class Report {
 public:
  void Provenance(const std::string& key, const std::string& value) {
    std::lock_guard<std::mutex> lock(mu_);
    provenance_.emplace_back(key, value);
  }
  // Metrics with in_result false are printed and written to the results
  // file but left out of the final JSON line. A metric with no samples
  // is absent: printed as such and written as null with its sample count.
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples, bool in_result = true) {
    AddMetric(Metric{name, value, unit, samples, in_result,
                     samples == 0 ? "no samples" : ""});
  }
  void Absent(const std::string& name, const std::string& unit,
              const std::string& why) {
    AddMetric(Metric{name, 0.0, unit, 0, false, why});
  }
  // The p-th percentile of `s` in microseconds, divided by `per`. A
  // percentile below the maximum is absent unless at least ten samples
  // lie beyond it.
  void AddPercentile(const std::string& name, const Samples& s, double p,
                     bool in_result = true, double per = 1.0) {
    std::string absent;
    if (s.count() == 0) {
      absent = "no samples";
    } else if (p < 1.0 && !s.Supports(p)) {
      absent = "fewer than ten samples beyond the percentile";
    }
    AddMetric(Metric{name, s.PercentileUs(p) / per, "us", s.count(), in_result,
                     absent});
  }
  void Problem(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    correct_ = false;
    if (problems_.size() < 32) problems_.push_back(what);
  }
  void Count(const PhaseStats& st) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += st.attempted;
    failed_ += st.failed;
  }
  void Info(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu_);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }

  // Prints the metric table, writes the results file and prints the
  // final JSON line. Safe to call from the watchdog thread.
  void Emit(const std::string& results_path) {
    std::lock_guard<std::mutex> lock(mu_);
    if (emitted_) return;
    emitted_ = true;
    for (const std::string& p : problems_) {
      std::printf("CHECK FAILED: %s\n", p.c_str());
    }
    for (const Metric& m : metrics_) {
      if (!m.absent.empty()) {
        std::printf("metric %-32s %14s %-6s n=%-8llu (%s%s%s)\n",
                    m.name.c_str(), "absent", m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples),
                    m.absent.c_str(), m.in_result ? "; result line reads " : "",
                    m.in_result ? Num(m.value).c_str() : "");
        continue;
      }
      std::printf("metric %-32s %14.4f %-6s n=%-8llu%s\n", m.name.c_str(),
                  m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples),
                  m.in_result ? "" : " (reported, not in result)");
    }
    std::ostringstream metrics;
    // The result line carries every in-result metric, absent ones too,
    // because its reader expects each metric of the workload's mode on
    // every workload. An absent metric's value there is what it measured:
    // 0 when it had no samples (durable_write has no read-only
    // transactions), the nearest-rank value when its tail is thin. The
    // table above and the results file say which metrics those are.
    metrics << "{";
    bool first = true;
    for (const Metric& m : metrics_) {
      if (!m.in_result) continue;
      metrics << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
              << Num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
    metrics << "}";
    const std::string line =
        std::string("{\"correct\": ") + (correct_ ? "true" : "false") +
        ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted_, 1)) +
        ", \"failed\": " + std::to_string(failed_) +
        ", \"metrics\": " + metrics.str() + "}";
    if (!results_path.empty()) {
      std::ofstream out(results_path);
      out << "{\"provenance\": {";
      for (size_t i = 0; i < provenance_.size(); ++i) {
        out << (i ? ", " : "") << "\"" << provenance_[i].first << "\": \""
            << Escape(provenance_[i].second) << "\"";
      }
      out << "}, \"metrics\": {";
      for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
            << (m.absent.empty() ? Num(m.value) : "null") << ", \"unit\": \""
            << m.unit << "\", \"samples\": " << m.samples << "}";
      }
      out << "}, \"problems\": [";
      for (size_t i = 0; i < problems_.size(); ++i) {
        out << (i ? ", " : "") << "\"" << Escape(problems_[i]) << "\"";
      }
      out << "], \"result\": " << line << "}\n";
    }
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }

  bool correct() {
    std::lock_guard<std::mutex> lock(mu_);
    return correct_;
  }

 private:
  void AddMetric(Metric m) {
    std::lock_guard<std::mutex> lock(mu_);
    metrics_.push_back(std::move(m));
  }
  static std::string Num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
  }
  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::mutex mu_;
  bool emitted_ = false;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::string>> provenance_;
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
};

Report g_report;
std::string g_results_path;

[[noreturn]] void AbandonRun(const std::string& why) {
  g_report.Problem(why);
  g_report.Emit(g_results_path);
  // Threads may be stuck inside the server (e.g. an untimed lock wait),
  // so nothing is joined or destroyed: the process just ends.
  std::_Exit(3);
}

// Runs fn on a helper thread; abandons the run if it does not return in
// time (a server worker that never leaves a lock wait cannot be joined).
void WithinBudget(const std::string& what, std::function<void()> fn) {
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  auto state = std::make_shared<State>();
  std::thread worker([state, fn = std::move(fn)] {
    fn();
    std::lock_guard<std::mutex> lock(state->mu);
    state->done = true;
    state->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(state->mu);
  if (!state->cv.wait_for(lock, std::chrono::milliseconds(kStopBudgetMs),
                          [&] { return state->done; })) {
    // Does not return, so the unjoined worker is never destroyed.
    AbandonRun(what + " did not finish within " +
               std::to_string(kStopBudgetMs) + " ms (server wedged)");
  }
  lock.unlock();
  worker.join();
}

// Ends a run that overstays its budget anywhere (a wedged phase, a hung
// recovery), reporting what it has. Joined on normal exit.
class Watchdog {
 public:
  Watchdog()
      : thread_([this] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::nanoseconds(kRunBudgetNs),
                            [this] { return done_; })) {
            AbandonRun("run exceeded its time budget");
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mu_
  std::thread thread_;
};

// ---------------------------------------------------------------------
// The deployment under test
// ---------------------------------------------------------------------

mvcc::DatabaseOptions DbOptions(const WorkloadSpec& spec) {
  mvcc::DatabaseOptions o;  // mvccd's defaults otherwise
  o.protocol = mvcc::ProtocolKind::kVc2pl;
  o.preload_keys = spec.keys;
  o.initial_value = InitialValue();
  return o;
}

struct Deployment {
  explicit Deployment(mvcc::Env* base) : env(base) {}
  CountingEnv env;
  std::unique_ptr<mvcc::Database> db;
  std::unique_ptr<mvcc::server::Server> server;
};

// Durable open (or recovery) of `dir` through the counting Env.
bool Reopen(Deployment* d, const WorkloadSpec& spec, const std::string& dir) {
  auto db = mvcc::OpenDatabaseDurable(DbOptions(spec), &d->env, dir,
                                      mvcc::WalDurableOptions{}, nullptr);
  if (!db.ok()) {
    g_report.Problem("durable open: " + db.status().ToString());
    return false;
  }
  d->db = std::move(db).value();
  return true;
}

// Starts the server on d->db and waits until it answers a first request
// correctly. Returns false on any failure.
bool StartServing(Deployment* d, const WorkloadSpec& spec) {
  mvcc::server::ServerOptions so;
  so.num_workers = 4;
  so.service.commit_executor_threads = 4;
  d->server = std::make_unique<mvcc::server::Server>(d->db.get(), nullptr, so);
  mvcc::Status s = d->server->Start();
  if (!s.ok()) {
    g_report.Problem("server start: " + s.ToString());
    return false;
  }
  mvcc::server::ClientOptions co;
  co.port = d->server->port();
  co.io_timeout_ms = 5'000;
  auto client = mvcc::server::Client::Connect(co);
  if (!client.ok()) {
    g_report.Problem("connect: " + client.status().ToString());
    return false;
  }
  const uint64_t key = spec.keys - 1;
  auto resp = (*client)->Call(mvcc::server::MakeBatch(
      mvcc::TxnClass::kReadOnly,
      {mvcc::server::BatchOp{mvcc::server::OpCode::kRead, key, {}}}));
  ValueOrigin origin;
  if (!resp.ok() || resp->status != mvcc::server::WireStatus::kOk ||
      resp->reads.size() != 1 || !resp->reads[0].found ||
      !DecodeValue(resp->reads[0].value, &origin) ||
      !(origin.initial || origin.key == key)) {
    g_report.Problem("first request to a new server was not served correctly");
    return false;
  }
  return true;
}

// Fresh directory -> durable open with preload -> server start -> first
// request answered. Returns the elapsed time, or a negative value.
int64_t SetUp(Deployment* d, const WorkloadSpec& spec, const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  const int64_t start = NowNanos();
  if (!Reopen(d, spec, dir) || !StartServing(d, spec)) return -1;
  return NowNanos() - start;
}

// Stops the server (if any) and closes the database, after checking the
// paper's invariant on its counters: no read-only transaction blocked or
// aborted.
void StopServing(Deployment* d) {
  if (d->db != nullptr) {
    const auto cc = d->db->counters().Snap();
    if (cc.ro_blocks != 0 || cc.ro_aborts != 0) {
      g_report.Problem("read-only transactions blocked or aborted (ro_blocks=" +
                       std::to_string(cc.ro_blocks) +
                       ", ro_aborts=" + std::to_string(cc.ro_aborts) + ")");
    }
  }
  WithinBudget("server stop", [d] {
    if (d->server != nullptr) d->server->Stop();
    d->server.reset();
    d->db.reset();
  });
}

// kStats over the wire, as name -> value.
std::map<std::string, uint64_t> WireStats(uint16_t port) {
  std::map<std::string, uint64_t> out;
  mvcc::server::ClientOptions co;
  co.port = port;
  co.io_timeout_ms = 5'000;
  auto client = mvcc::server::Client::Connect(co);
  if (!client.ok()) return out;
  auto resp = (*client)->Call(mvcc::server::MakeStats());
  if (!resp.ok()) return out;
  for (const auto& [name, value] : resp->stats) out[name] = value;
  return out;
}

// ---------------------------------------------------------------------
// Durability check
// ---------------------------------------------------------------------

uint64_t OriginKey(uint32_t writer, uint64_t seq) {
  return (static_cast<uint64_t>(writer) << 40) | seq;
}

// Every key must be present, and its recovered value must be the
// acknowledged write with the highest tn, or a write whose fate the
// client never learned. Preload values are allowed only for keys with
// no acknowledged write; aborted writes must never come back.
void VerifyRecovered(mvcc::Database* db, uint64_t keys,
                     const std::vector<WriteRecord>& writes) {
  std::unordered_map<uint64_t, const WriteRecord*> by_origin;
  std::unordered_map<uint64_t, mvcc::TxnNumber> newest_acked;
  by_origin.reserve(writes.size());
  for (const WriteRecord& w : writes) {
    by_origin[OriginKey(w.writer, w.seq)] = &w;
    if (w.fate == WriteFate::kCommitted) {
      mvcc::TxnNumber& tn = newest_acked[w.key];
      tn = std::max(tn, w.tn);
    }
  }
  auto txn = db->Begin(mvcc::TxnClass::kReadOnly);
  uint64_t next = 0;
  uint64_t violations = 0;
  auto bad = [&](const std::string& what) {
    if (++violations <= 8) g_report.Problem("durability: " + what);
  };
  constexpr uint64_t kPage = 8192;
  while (next < keys) {
    const uint64_t hi = std::min(keys - 1, next + kPage - 1);
    auto rows = txn->ScanRange(next, hi, {});
    if (!rows.ok() || rows->size() != hi - next + 1) {
      bad("recovered keys [" + std::to_string(next) + ", " +
          std::to_string(hi) + "] are not all present");
      return;
    }
    for (const auto& [key, value] : *rows) {
      if (key != next) {
        bad("recovered scan skipped key " + std::to_string(next));
        return;
      }
      ++next;
      ValueOrigin origin;
      if (!DecodeValue(value, &origin)) {
        bad("malformed recovered value at key " + std::to_string(key));
        continue;
      }
      auto acked = newest_acked.find(key);
      if (origin.initial) {
        if (acked != newest_acked.end()) {
          bad("acknowledged write to key " + std::to_string(key) + " lost");
        }
        continue;
      }
      auto rec = by_origin.find(OriginKey(origin.writer, origin.seq));
      if (rec == by_origin.end() || rec->second->key != key) {
        bad("key " + std::to_string(key) + " holds a value never written");
        continue;
      }
      switch (rec->second->fate) {
        case WriteFate::kAborted:
          bad("key " + std::to_string(key) + " holds an aborted write");
          break;
        case WriteFate::kCommitted:
          if (rec->second->tn != acked->second) {
            bad("key " + std::to_string(key) + " recovered tn " +
                std::to_string(rec->second->tn) + ", newest acknowledged " +
                std::to_string(acked->second));
          }
          break;
        case WriteFate::kUnknown:
          break;  // possibly durable, possibly the newest
      }
    }
  }
  txn->Commit();
}

// ---------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FsType(const std::string& dir) {
  struct statfs st;
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext2/ext3/ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string work_dir;
  std::string out_dir;
  std::string source_id = "unknown";
};

void CheckPhase(const std::string& name, const PhaseStats& st) {
  g_report.Count(st);
  if (st.check_failures > 0 || st.ro_aborted > 0) {
    g_report.Problem(name + ": " + std::to_string(st.check_failures) +
                     " output check failures, " +
                     std::to_string(st.ro_aborted) + " read-only aborts");
  }
  for (const std::string& e : st.errors) g_report.Info("  [" + name + "] " + e);
}

std::string Describe(const std::string& name, const PhaseStats& st,
                     double offered, double seconds) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "phase %-10s offered=%.0f/s attempted=%llu committed=%llu "
                "aborted=%llu failed=%llu (%.0f/s) | ro %s | rw %s | "
                "late p99=%.1fus",
                name.c_str(), offered,
                static_cast<unsigned long long>(st.attempted),
                static_cast<unsigned long long>(st.committed),
                static_cast<unsigned long long>(st.rw_aborted),
                static_cast<unsigned long long>(st.failed),
                static_cast<double>(st.committed) / seconds,
                st.ro.Describe().c_str(), st.rw.Describe().c_str(),
                st.late.PercentileUs(0.99));
  return buf;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void AddLatencies(const PhaseStats& st, const std::string& prefix,
                  bool in_result) {
  g_report.AddPercentile(prefix + "ro_p50_us", st.ro, 0.50, in_result);
  g_report.AddPercentile(prefix + "ro_p99_us", st.ro, 0.99, in_result);
  g_report.AddPercentile(prefix + "rw_p50_us", st.rw, 0.50, in_result);
  g_report.AddPercentile(prefix + "rw_p99_us", st.rw, 0.99, in_result);
}

// Conflict aborts per attempted read-write transaction, and failures
// per attempted transaction.
void AddFractions(const PhaseStats& st, const std::string& prefix,
                  bool in_result) {
  g_report.Add(prefix + "abort_frac",
               Ratio(static_cast<double>(st.rw_aborted),
                     static_cast<double>(st.rw_attempted)),
               "ratio", st.rw_attempted, in_result);
  g_report.Add(prefix + "fail_frac",
               Ratio(static_cast<double>(st.failed),
                     static_cast<double>(st.attempted)),
               "ratio", st.attempted, in_result);
}

PhaseConfig FixedConfig(const Args& args, const WorkloadSpec& spec,
                        int threads, int64_t duration_ns) {
  PhaseConfig c;
  c.spec = &spec;
  c.seed = args.seed;
  c.rate_tps = spec.fixed_rate_tps;
  c.duration_ns = duration_ns;
  c.threads = threads;
  return c;
}

CpuTime ProcessCpu() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return CpuTime::From(ru);
}

// Latency at the fixed offered rate. Returns the write ledger.
std::vector<WriteRecord> FixedRate(const Args& args, const WorkloadSpec& spec,
                                   Deployment* d, int threads) {
  const int64_t half = static_cast<int64_t>(args.seconds) * 500'000'000;
  const CpuTime cpu0 = ProcessCpu();
  PhaseStats st = RunWirePhase(FixedConfig(args, spec, threads, half),
                               d->server->port(), d->db.get());
  // The server's CPU time is the process's minus the generator threads'
  // (the main thread only waits for them).
  const CpuTime server = ProcessCpu() - cpu0 - st.generator_cpu;
  CheckPhase("fixed", st);
  g_report.Info(Describe("fixed", st, spec.fixed_rate_tps, Seconds(half)));
  // Latency percentiles are printed but kept out of the result line:
  // they follow the device's fsync latency, which drifts further from
  // run to run than any bound the result may carry (WORKLOADS.md).
  AddLatencies(st, "", false);
  // The serving path's cost as the code sets it rather than the device:
  // a transaction waiting for an fsync spends no CPU meanwhile. It is per
  // attempted transaction, a count the seed fixes, because the server
  // still works on flights whose client gave up during a disk stall.
  // Kept out of the result line: it moves with the host's speed between
  // runs by about as much as the largest bound allowed (WORKLOADS.md).
  const double attempted = static_cast<double>(st.attempted);
  g_report.Add("server_cpu_us_per_txn",
               Ratio(static_cast<double>(server.user_ns + server.sys_ns) / 1e3,
                     attempted),
               "us", st.attempted, false);
  char line[200];
  std::snprintf(line, sizeof(line),
                "cpu per transaction: server user=%.2fus sys=%.2fus, "
                "generator user=%.2fus sys=%.2fus",
                Ratio(static_cast<double>(server.user_ns) / 1e3, attempted),
                Ratio(static_cast<double>(server.sys_ns) / 1e3, attempted),
                Ratio(static_cast<double>(st.generator_cpu.user_ns) / 1e3,
                      attempted),
                Ratio(static_cast<double>(st.generator_cpu.sys_ns) / 1e3,
                      attempted));
  g_report.Info(line);
  // A health figure: the offered load is fixed, so it only drops when
  // transactions fail or abort.
  g_report.Add("goodput_tps", static_cast<double>(st.committed) / Seconds(half),
               "1/s", st.committed);
  AddFractions(st, "", false);
  return std::move(st.writes);
}

// The rate ladder: max_rate_tps. Appends to the write ledger. The climb
// continues until two rungs in a row miss the limit, and the highest
// rung that met it wins, so one transient miss below the knee does not
// end the climb.
void Ladder(const Args& args, const WorkloadSpec& spec, Deployment* d,
            int threads, std::vector<WriteRecord>* writes) {
  const int64_t half = static_cast<int64_t>(args.seconds) * 500'000'000;
  const int64_t rung_ns = half / static_cast<int64_t>(spec.ladder_tps.size());
  double max_rate = 0.0;
  uint64_t max_rate_n = 0;
  int misses = 0;
  for (size_t i = 0; i < spec.ladder_tps.size() && misses < 2; ++i) {
    PhaseConfig rung = FixedConfig(args, spec, threads, rung_ns);
    rung.phase = 1 + static_cast<uint32_t>(i);
    rung.writer_tag = rung.phase;
    rung.rate_tps = spec.ladder_tps[i];
    PhaseStats r = RunWirePhase(rung, d->server->port(), d->db.get());
    CheckPhase("rung", r);
    g_report.Info(Describe("rung" + std::to_string(i), r, rung.rate_tps,
                           Seconds(rung_ns)));
    writes->insert(writes->end(), r.writes.begin(), r.writes.end());
    // Failed flights miss any limit; a generator running late past the
    // limit means the backlog grew.
    const Samples& limited = spec.limit_read_only ? r.ro : r.rw;
    const bool meets = r.failed == 0 && r.check_failures == 0 &&
                       limited.count() > 0 &&
                       limited.PercentileUs(0.99) <= spec.p99_limit_us &&
                       r.late.PercentileUs(0.99) <= spec.p99_limit_us;
    if (!meets) {
      ++misses;
      continue;
    }
    misses = 0;
    // The rate achieved (answered flights per second), not the nominal
    // rung, so the figure carries the run's own measurement.
    max_rate_n = r.committed + r.rw_aborted;
    max_rate = static_cast<double>(max_rate_n) / Seconds(rung_ns);
  }
  // Kept out of the result line for the same reason as the latencies.
  if (max_rate_n == 0) {
    g_report.Absent("max_rate_tps", "1/s", "no rung met the limit");
  } else {
    g_report.Add("max_rate_tps", max_rate, "1/s", max_rate_n, false);
  }
}

// Untraced run, traced run and traced engine-direct replay at the fixed
// rate; derives the per-layer metrics. Returns the write ledger.
std::vector<WriteRecord> PerLayer(const Args& args, const WorkloadSpec& spec,
                                  Deployment* d, int threads) {
  const uint16_t port = d->server->port();
  mvcc::Database* db = d->db.get();
  const int64_t third = static_cast<int64_t>(args.seconds) * 1'000'000'000 / 3;
  PhaseConfig cfg = FixedConfig(args, spec, threads, third);

  // A: untraced, the reference for the tracer's own overhead.
  cfg.phase = 0;
  cfg.writer_tag = 0;
  PhaseStats a = RunWirePhase(cfg, port, db);
  CheckPhase("untraced", a);
  g_report.Info(Describe("untraced", a, cfg.rate_tps, Seconds(third)));
  std::vector<WriteRecord> writes = std::move(a.writes);

  // B: the same load traced, with every layer's counters as deltas.
  const auto stats0 = WireStats(port);
  const auto cc0 = db->counters().Snap();
  const uint64_t batches0 = db->commit_pipeline().batches_logged();
  const uint64_t groups0 = db->commit_pipeline().groups_flushed();
  const CountingEnv::Counts io0 = d->env.counts();
  Tracer::Reset();
  d->env.TakeSyncSamples();
  Tracer::SetEnabled(true);
  cfg.phase = 1;
  cfg.writer_tag = 1;
  cfg.sample_vc = true;
  PhaseStats b = RunWirePhase(cfg, port, db);
  Tracer::SetEnabled(false);
  CheckPhase("traced", b);
  g_report.Info(Describe("traced", b, cfg.rate_tps, Seconds(third)));
  auto stats1 = WireStats(port);
  const auto cc1 = db->counters().Snap();
  const uint64_t batches = db->commit_pipeline().batches_logged() - batches0;
  const uint64_t groups = db->commit_pipeline().groups_flushed() - groups0;
  const CountingEnv::Counts io1 = d->env.counts();
  const Samples fsyncs = d->env.TakeSyncSamples();
  auto wire_spans = Tracer::Collect();
  writes.insert(writes.end(), b.writes.begin(), b.writes.end());

  // C: the traced phase's transactions straight through the engine.
  Tracer::Reset();
  Tracer::SetEnabled(true);
  cfg.writer_tag = 2;
  cfg.sample_vc = false;
  PhaseStats c = RunEnginePhase(cfg, db);
  Tracer::SetEnabled(false);
  CheckPhase("engine", c);
  g_report.Info(Describe("engine", c, cfg.rate_tps, Seconds(third)));
  auto engine_spans = Tracer::Collect();
  writes.insert(writes.end(), c.writes.begin(), c.writes.end());
  if (Tracer::dropped() > 0) {
    g_report.Info("trace buffers full: " + std::to_string(Tracer::dropped()) +
                  " spans dropped");
  }
  if (!args.out_dir.empty()) {
    WriteSpansCsv(args.out_dir + "/spans-" + spec.name + "-wire.csv",
                  wire_spans);
    WriteSpansCsv(args.out_dir + "/spans-" + spec.name + "-engine.csv",
                  engine_spans);
  }
  const SpanSummary engine = Summarize(engine_spans);
  const SpanSummary wire = Summarize(wire_spans);
  auto k = [](SpanKind kind) { return static_cast<size_t>(kind); };
  // The stacked budget: each span kind's self time, summed and divided
  // by the flights traced, next to its per-call distribution.
  for (const SpanSummary* s : {&wire, &engine}) {
    const double flights =
        static_cast<double>(s->total[k(SpanKind::kFlight)].count());
    for (size_t i = 0; i < k(SpanKind::kCount); ++i) {
      if (s->total[i].count() == 0) continue;
      const double self_us = s->self[i].MeanUs() *
                             static_cast<double>(s->self[i].count());
      char line[320];
      std::snprintf(line, sizeof(line),
                    "span %-6s %-14s self/flight=%8.1fus | per call %s",
                    s == &wire ? "wire" : "engine",
                    SpanKindName(static_cast<SpanKind>(i)),
                    Ratio(self_us, flights), s->total[i].Describe().c_str());
      g_report.Info(line);
    }
  }

  // server: kStats deltas over the traced phase's transactions.
  auto delta = [&](const std::string& name) {
    return static_cast<double>(stats1[name] - stats0.at(name));
  };
  const double txns = static_cast<double>(b.attempted);
  if (stats0.empty() || stats1.empty()) {
    g_report.Problem("kStats request failed");
  } else {
    g_report.Add("server.frames_per_txn",
                 Ratio(delta("frames_in") + delta("frames_out"), txns), "count",
                 b.attempted);
    g_report.Add("server.bytes_per_txn",
                 Ratio(delta("bytes_in") + delta("bytes_out"), txns), "bytes",
                 b.attempted);
    g_report.Add("server.bursts_per_commit",
                 Ratio(delta("commit_bursts"), delta("commits")), "ratio",
                 static_cast<uint64_t>(delta("commits")));
    g_report.Add("server.sheds_per_txn",
                 Ratio(delta("sheds_overload") + delta("sheds_degraded") +
                           delta("sheds_fatal"),
                       txns),
                 "ratio", b.attempted);
  }
  // Client-observed minus engine-direct time of the same flights, both
  // traced: B sent them over the wire, C replayed them in-process. Each
  // side is its flight spans (first send, or first call, to last
  // response), not latency from the due time, because the replay runs
  // each thread's flights one after another and so queues behind its
  // own fsyncs.
  const Samples& wire_flights = wire.total[k(SpanKind::kFlight)];
  const Samples& engine_flights = engine.total[k(SpanKind::kFlight)];
  g_report.Add("server.wire_p50_us",
               wire_flights.PercentileUs(0.5) -
                   engine_flights.PercentileUs(0.5),
               "us", std::min(wire_flights.count(), engine_flights.count()));

  // txn: spans around the engine-direct calls.
  g_report.AddPercentile("txn.begin_ro_us",
                         engine.total[k(SpanKind::kTxnBeginRo)], 0.5);
  g_report.AddPercentile("txn.read_us", engine.total[k(SpanKind::kTxnRead)],
                         0.5);
  g_report.AddPercentile("txn.scan_us_per_row",
                         engine.total[k(SpanKind::kTxnScan)], 0.5, true,
                         static_cast<double>(kScanRows));
  g_report.AddPercentile("txn.begin_rw_us",
                         engine.total[k(SpanKind::kTxnBeginRw)], 0.5);
  g_report.AddPercentile("txn.write_us", engine.total[k(SpanKind::kTxnWrite)],
                         0.5);
  const Samples& commits = engine.total[k(SpanKind::kTxnCommitRw)];
  g_report.AddPercentile("txn.commit_p50_us", commits, 0.5);
  g_report.AddPercentile("txn.commit_p99_us", commits, 0.99);
  g_report.AddPercentile("txn.commit_self_us",
                         engine.self[k(SpanKind::kTxnCommitRw)], 0.5);

  // cc: EventCounters deltas over the traced wire phase.
  g_report.Add("cc.lock_waits_per_rw_txn",
               Ratio(static_cast<double>(cc1.rw_blocks - cc0.rw_blocks),
                     static_cast<double>(b.rw_attempted)),
               "ratio", b.rw_attempted);
  g_report.Add("cc.deadlock_aborts",
               static_cast<double>(cc1.deadlock_aborts - cc0.deadlock_aborts),
               "count", b.rw_attempted);
  const auto cc_now = db->counters().Snap();
  g_report.Add("cc.ro_blocks", static_cast<double>(cc_now.ro_blocks), "count",
               cc_now.ro_commits);
  g_report.Add("cc.ro_aborts", static_cast<double>(cc_now.ro_aborts), "count",
               cc_now.ro_commits);

  // vc: gauges sampled from the generator loop.
  Samples lag, queue;
  for (uint64_t v : b.vis_lag) lag.Add(static_cast<int64_t>(v) * 1000);
  for (uint64_t v : b.queue_size) queue.Add(static_cast<int64_t>(v) * 1000);
  g_report.Add("vc.visibility_lag_p50", lag.PercentileUs(0.5), "txns",
               lag.count());
  g_report.Add("vc.visibility_lag_max", lag.PercentileUs(1.0), "txns",
               lag.count());
  g_report.Add("vc.queue_size_max", queue.PercentileUs(1.0), "txns",
               queue.count());

  // storage: gauges after all three phases.
  const mvcc::ObjectStore& store = db->store();
  const auto arena = store.ArenaStats();
  g_report.Add("storage.versions_per_key",
               Ratio(static_cast<double>(store.TotalVersions()),
                     static_cast<double>(store.NumKeys())),
               "ratio", store.NumKeys());
  g_report.Add("storage.arena_live_mb",
               static_cast<double>(arena.slabs_allocated - arena.slabs_freed) *
                   static_cast<double>(mvcc::VersionArena::kDefaultSlabBytes) /
                   (1024.0 * 1024.0),
               "MB", arena.slabs_allocated);
  g_report.Add("storage.ebr_retired_backlog",
               static_cast<double>(mvcc::EpochManager::Global().retired_count()),
               "count", 1);

  // recovery: the counting Env and the commit pipeline, traced phase.
  g_report.Add("recovery.fsyncs_per_commit",
               Ratio(static_cast<double>(io1.wal_syncs - io0.wal_syncs),
                     static_cast<double>(batches)),
               "ratio", batches);
  g_report.Add("recovery.commits_per_group",
               Ratio(static_cast<double>(batches), static_cast<double>(groups)),
               "ratio", groups);
  g_report.AddPercentile("recovery.fsync_p50_us", fsyncs, 0.5);
  g_report.AddPercentile("recovery.fsync_p99_us", fsyncs, 0.99);
  g_report.Add("recovery.wal_bytes_per_user_byte",
               Ratio(static_cast<double>(io1.wal_bytes - io0.wal_bytes),
                     static_cast<double>(b.user_bytes)),
               "ratio", b.committed);

  // bench: the harness's own costs.
  g_report.AddPercentile("bench.gen_late_p99_us", a.late, 0.99);
  const double base = a.all.PercentileUs(0.5);
  g_report.Add("bench.trace_overhead_pct",
               base > 0 ? 100.0 * (b.all.PercentileUs(0.5) - base) / base : 0.0,
               "%", b.all.count());
  // The untraced run's end-to-end figures, recorded without a bound.
  AddLatencies(a, "e2e.", true);
  AddFractions(a, "e2e.", true);
  return writes;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--source-id") {
      args->source_id = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir> [--out-dir <dir>] "
                 "[--source-id <id>]\n");
    return 2;
  }
  const std::optional<WorkloadSpec> found = FindWorkload(args.workload);
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *found;
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);
  if (!args.out_dir.empty()) {
    fs::create_directories(args.out_dir, ec);
    g_results_path = args.out_dir + "/" + spec.name + "-trace" +
                     std::to_string(args.trace) + ".json";
  }
  // A wedged run still ends on time, reports what it has, and fails.
  Watchdog watchdog;

  const int threads = std::min<int>(
      kMaxThreads, std::max(1u, std::thread::hardware_concurrency()));
  std::ostringstream ladder;
  for (size_t i = 0; i < spec.ladder_tps.size(); ++i) {
    ladder << (i ? "," : "") << spec.ladder_tps[i];
  }
  const std::pair<std::string, std::string> prov[] = {
      {"source", args.source_id},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu", CpuModel()},
      {"data_fs", FsType(args.work_dir)},
      {"workload", spec.name},
      {"seed", std::to_string(args.seed)},
      {"seconds", std::to_string(args.seconds)},
      {"trace", std::to_string(args.trace)},
      {"generator_threads", std::to_string(threads)},
      {"fixed_rate_tps", std::to_string(spec.fixed_rate_tps)},
      {"ladder_tps", ladder.str()},
      {"p99_limit_us", std::to_string(spec.p99_limit_us)},
  };
  for (const auto& [key, value] : prov) {
    g_report.Provenance(key, value);
    g_report.Info("provenance " + key + "=" + value);
  }

  // Set-up, several times; the last deployment serves the run.
  const std::string dir = args.work_dir + "/data";
  Deployment d(mvcc::GetPosixEnv());
  Samples setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t ns = SetUp(&d, spec, dir);
    if (ns < 0) AbandonRun("set-up failed");
    setup.Add(ns);
    g_report.Info("setup rep " + std::to_string(rep) + ": " +
                  std::to_string(Seconds(ns)) + " s");
    if (rep + 1 < kSetupReps) StopServing(&d);
  }
  g_report.Info("setup " + setup.Describe());

  std::vector<WriteRecord> writes;
  if (args.trace == 0) {
    writes = FixedRate(args, spec, &d, threads);
    // Memory through set-up and the fixed-rate run (the ladder's volume
    // depends on how far it climbs, so it is left out).
    g_report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    StopServing(&d);
    // Restart from disk: recover_s covers a fixed amount of logged work,
    // and the ladder then runs against the recovered database.
    Samples recover;
    for (int rep = 0; rep < kRecoverReps; ++rep) {
      const int64_t start = NowNanos();
      if (!Reopen(&d, spec, dir)) break;
      recover.Add(NowNanos() - start);
      if (rep + 1 < kRecoverReps) StopServing(&d);
    }
    g_report.Info("recover " + recover.Describe());
    g_report.Add("setup_s", setup.PercentileUs(0.5) / 1e6, "s", setup.count());
    // Reported without a bound: like setup_s it is mostly the preload,
    // and its run-to-run spread reached the largest bound allowed.
    g_report.Add("recover_s", recover.PercentileUs(0.5) / 1e6, "s",
                 recover.count(), false);
    if (d.db != nullptr) {
      VerifyRecovered(d.db.get(), spec.keys, writes);
      if (StartServing(&d, spec)) Ladder(args, spec, &d, threads, &writes);
    }
  } else {
    writes = PerLayer(args, spec, &d, threads);
  }
  StopServing(&d);

  // The final state on disk must hold every acknowledged write.
  if (Reopen(&d, spec, dir)) {
    VerifyRecovered(d.db.get(), spec.keys, writes);
    StopServing(&d);
  }
  fs::remove_all(dir, ec);

  g_report.Emit(g_results_path);
  return g_report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
