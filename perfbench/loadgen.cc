#include "loadgen.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/clock.h"
#include "server/client.h"
#include "server/wire.h"
#include "trace.h"

namespace perfbench {
namespace {

using mvcc::NowNanos;
using mvcc::server::Response;
using mvcc::server::WireStatus;

// A flight not fully answered this long after it was due has failed.
constexpr int64_t kFlightDeadlineNs = 5'000'000'000;
// Flights one connection may have outstanding before the generator
// holds further due flights back (their lateness then shows).
constexpr size_t kMaxOutstanding = 48;
constexpr size_t kMaxErrors = 8;

void PreciseTimers() {
  // Default timer slack (50us) would make every wake-up that late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
}

uint32_t Stream(const PhaseConfig& c, int thread) {
  return c.phase * 64 + static_cast<uint32_t>(thread);
}
uint32_t Writer(const PhaseConfig& c, int thread) {
  return c.writer_tag * 64 + static_cast<uint32_t>(thread);
}

// Statuses by which the server declines work it cannot take now (load
// shedding, a degraded or fenced node, a server-side deadline). The
// flight fails, but no output was wrong.
bool Refusal(WireStatus s) {
  switch (s) {
    case WireStatus::kShedOverload:
    case WireStatus::kDegradedReadOnly:
    case WireStatus::kFatalDataLoss:
    case WireStatus::kUnavailable:
    case WireStatus::kNotPrimary:
    case WireStatus::kTimedOut:
      return true;
    default:
      return false;
  }
}

// Whether request `op` of a flight returns keys or values: the batch,
// and every point read or scan of a multi-request flight.
bool ReturnsData(FlightKind kind, int op) {
  switch (kind) {
    case FlightKind::kRwBatch: return op == 0;
    case FlightKind::kRoScan: return op >= 1 && op <= 9;
    case FlightKind::kRwInteractive: return op == 1 || op == 3;
    case FlightKind::kRoShort: return op >= 1 && op <= 4;
  }
  return false;
}

const char* OpName(FlightKind kind, int op) {
  if (kind == FlightKind::kRwBatch) return "batch";
  if (kind == FlightKind::kRoScan && op == 9) return "scan";
  return "read";
}

// Checks one point-read result: the key must exist and its value must be
// the preload value or a value written to that same key.
bool GoodRead(uint64_t key, bool found, const mvcc::Value& value) {
  if (!found) return false;
  ValueOrigin origin;
  if (!DecodeValue(value, &origin)) return false;
  return origin.initial || origin.key == key;
}

// Bookkeeping shared by both load generators once a flight's outcome is
// known.
void Finish(const Flight& f, int64_t due_abs, int64_t end_ns, bool failed,
            bool aborted, mvcc::TxnNumber tn, PhaseStats* st) {
  const bool ro = IsReadOnly(f.kind);
  const int64_t latency = end_ns - due_abs;
  if (!ro) ++st->rw_attempted;
  if (failed) {
    ++st->failed;
  } else if (aborted) {
    if (ro) {
      ++st->ro_aborted;
    } else {
      ++st->rw_aborted;
    }
    st->all.Add(latency);
  } else {
    ++st->committed;
    st->all.Add(latency);
    (ro ? st->ro : st->rw).Add(latency);
  }
  if (ro) return;
  const WriteFate fate = failed    ? WriteFate::kUnknown
                         : aborted ? WriteFate::kAborted
                                   : WriteFate::kCommitted;
  for (int i = 0; i < 2; ++i) {
    st->writes.push_back(WriteRecord{f.keys[i], f.writer,
                                     f.write_seq + static_cast<uint64_t>(i),
                                     fate == WriteFate::kCommitted ? tn : 0,
                                     fate});
  }
  if (fate == WriteFate::kCommitted) {
    st->user_bytes += 2 * (sizeof(uint64_t) + kValueBytes);
  }
}

// ---------------------------------------------------------------------
// Load over the wire
// ---------------------------------------------------------------------

struct InFlight {
  Flight flight;
  int64_t due_abs = 0;
  int64_t sent_ns = 0;
  int expected = 0;
  int received = 0;
  bool failed = false;
  bool aborted = false;
  mvcc::TxnNumber tn = 0;
};

// One generator connection. Requests go out through server::Client::Send;
// responses are read from the same socket without blocking and decoded
// with the wire codec, because Client::Await blocks until one given
// response arrives and an open loop must keep sending on schedule while
// earlier flights are outstanding. Each response is timestamped as it
// is decoded.
class WireConnection {
 public:
  WireConnection(const PhaseConfig& config, int thread, PhaseStats* stats,
                 mvcc::Database* db)
      : config_(config), thread_(thread), st_(stats), db_(db) {}

  // Without a connection every flight of this thread fails.
  void Connect(uint16_t port) {
    mvcc::server::ClientOptions options;
    options.port = port;
    options.io_timeout_ms = 2'000;
    auto client = mvcc::server::Client::Connect(options);
    if (!client.ok()) {
      st_->Note("connect: " + client.status().ToString());
      return;
    }
    client_ = std::move(client).value();
    // A wedged server must not block a send forever either.
    struct timeval tv {2, 0};
    setsockopt(client_->fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }

  void Run(int64_t t0) {
    PreciseTimers();
    FlightSource source(*config_.spec, config_.seed, Stream(config_, thread_),
                        Writer(config_, thread_),
                        config_.rate_tps / config_.threads,
                        config_.duration_ns);
    Flight next;
    bool have_next = source.Next(&next);
    int64_t last_sample = 0;
    std::vector<char> buf(64 * 1024);
    for (;;) {
      int64_t now = NowNanos();
      while (have_next && t0 + next.due_ns <= now &&
             inflight_.size() < kMaxOutstanding) {
        SendFlight(next, t0 + next.due_ns, now);
        have_next = source.Next(&next);
        now = NowNanos();
      }
      bool got_data = false;
      if (client_ != nullptr && client_->connected()) {
        const ssize_t n =
            ::recv(client_->fd(), buf.data(), buf.size(), MSG_DONTWAIT);
        if (n > 0) {
          got_data = true;
          OnBytes(buf.data(), static_cast<size_t>(n), NowNanos());
        } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                              errno != EINTR)) {
          FailAll(n == 0 ? "server closed the connection"
                         : "recv errno " + std::to_string(errno));
        }
      }
      now = NowNanos();
      ExpireOverdue(now);
      if (config_.sample_vc && now - last_sample >= 1'000'000) {
        last_sample = now;
        st_->vis_lag.push_back(db_->VisibilityLag());
        st_->queue_size.push_back(db_->version_control().QueueSize());
      }
      if (!have_next && inflight_.empty()) break;
      if (got_data) continue;
      // Sleep until a response arrives or the next flight is due, and
      // for at most 1 ms so that deadlines are checked.
      int64_t wake = now + 1'000'000;
      if (have_next && inflight_.size() < kMaxOutstanding) {
        wake = std::min(wake, t0 + next.due_ns);
      }
      const int64_t wait = std::max<int64_t>(0, wake - now);
      if (client_ != nullptr && client_->connected()) {
        struct pollfd pfd {client_->fd(), POLLIN, 0};
        struct timespec ts {wait / 1'000'000'000, wait % 1'000'000'000};
        ::ppoll(&pfd, 1, &ts, nullptr);
      } else if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      }
    }
  }

 private:
  void SendFlight(const Flight& f, int64_t due_abs, int64_t now) {
    namespace s = mvcc::server;
    ++st_->attempted;
    st_->late.Add(now - due_abs);
    InFlight fl;
    fl.flight = f;
    fl.due_abs = due_abs;
    fl.sent_ns = now;
    std::vector<s::Request> reqs;
    const uint64_t token = client_ != nullptr ? client_->NewToken() : 0;
    switch (f.kind) {
      case FlightKind::kRwBatch: {
        std::vector<s::BatchOp> ops;
        for (int i = 0; i < 2; ++i) {
          ops.push_back(s::BatchOp{s::OpCode::kRead, f.keys[i], {}});
        }
        for (int i = 0; i < 2; ++i) {
          ops.push_back(s::BatchOp{
              s::OpCode::kWrite, f.keys[i],
              EncodeValue(f.keys[i], f.writer,
                          f.write_seq + static_cast<uint64_t>(i))});
        }
        reqs.push_back(s::MakeBatch(mvcc::TxnClass::kReadWrite,
                                    std::move(ops)));
        break;
      }
      case FlightKind::kRoScan:
        reqs.push_back(s::MakeBegin(token, mvcc::TxnClass::kReadOnly));
        for (int i = 0; i < 8; ++i) reqs.push_back(s::MakeRead(token, f.keys[i]));
        reqs.push_back(
            s::MakeScan(token, f.scan_lo, f.scan_lo + kScanRows - 1));
        reqs.push_back(s::MakeCommit(token));
        break;
      case FlightKind::kRwInteractive:
        reqs.push_back(s::MakeBegin(token, mvcc::TxnClass::kReadWrite));
        for (int i = 0; i < 2; ++i) {
          reqs.push_back(s::MakeRead(token, f.keys[i]));
          reqs.push_back(s::MakeWrite(
              token, f.keys[i],
              EncodeValue(f.keys[i], f.writer,
                          f.write_seq + static_cast<uint64_t>(i))));
        }
        reqs.push_back(s::MakeCommit(token));
        break;
      case FlightKind::kRoShort:
        reqs.push_back(s::MakeBegin(token, mvcc::TxnClass::kReadOnly));
        for (int i = 0; i < 4; ++i) reqs.push_back(s::MakeRead(token, f.keys[i]));
        reqs.push_back(s::MakeCommit(token));
        break;
    }
    fl.expected = static_cast<int>(reqs.size());
    if (client_ == nullptr || !client_->connected()) {
      fl.failed = true;
      Complete(fl, now);
      return;
    }
    for (size_t i = 0; i < reqs.size(); ++i) {
      auto id = client_->Send(std::move(reqs[i]));
      if (!id.ok()) {
        st_->Note("send: " + id.status().ToString());
        fl.failed = true;
        inflight_.emplace(f.id, std::move(fl));
        FailAll("send failed");
        return;
      }
      by_request_[*id] = {f.id, static_cast<int>(i)};
    }
    inflight_.emplace(f.id, std::move(fl));
  }

  void OnBytes(const char* data, size_t n, int64_t now) {
    decoder_.Append(data, n);
    for (;;) {
      std::string payload;
      const auto r = decoder_.Next(&payload);
      if (r == mvcc::server::FrameDecoder::NextResult::kCorrupt) {
        FailAll("corrupt response stream");
        return;
      }
      if (r != mvcc::server::FrameDecoder::NextResult::kFrame) return;
      Response resp;
      if (!mvcc::server::DecodeResponse(payload, &resp)) {
        FailAll("undecodable response");
        return;
      }
      auto req = by_request_.find(resp.request_id);
      if (req == by_request_.end()) continue;
      const auto [flight_id, op] = req->second;
      by_request_.erase(req);
      auto it = inflight_.find(flight_id);
      if (it == inflight_.end()) continue;  // flight already expired
      InFlight& fl = it->second;
      OnResponse(&fl, op, resp);
      if (++fl.received == fl.expected) {
        InFlight done = std::move(fl);
        inflight_.erase(it);
        Complete(done, now);
      }
    }
  }

  void CheckFailed(const InFlight& fl, const std::string& what) {
    ++st_->check_failures;
    st_->Note(std::string(FlightKindName(fl.flight.kind)) + ": " + what);
  }

  void OnResponse(InFlight* fl, int op, const Response& r) {
    const Flight& f = fl->flight;
    const bool ro = IsReadOnly(f.kind);
    if (r.status == WireStatus::kAborted) {
      if (ro) CheckFailed(*fl, "read-only transaction aborted");
      fl->aborted = true;
      return;
    }
    if (r.status == WireStatus::kUnknownTxn && fl->aborted) return;
    if (r.status != WireStatus::kOk) {
      // Every key read is preloaded, so a read or scan that comes back
      // with anything but a refusal is a wrong output, not a failure. A
      // token the server already dropped (kUnknownTxn after the flight
      // failed) says nothing about the data.
      const bool dropped =
          r.status == WireStatus::kUnknownTxn && fl->failed;
      if (ReturnsData(f.kind, op) && !Refusal(r.status) && !dropped) {
        CheckFailed(*fl, std::string(OpName(f.kind, op)) + " op " +
                             std::to_string(op) + " returned " +
                             std::string(mvcc::server::WireStatusName(
                                 r.status)));
        return;
      }
      if (!fl->failed) {
        st_->Note(std::string(FlightKindName(f.kind)) + " op " +
                  std::to_string(op) + ": " +
                  std::string(mvcc::server::WireStatusName(r.status)));
      }
      fl->failed = true;
      return;
    }
    switch (f.kind) {
      case FlightKind::kRwBatch:
        if (r.reads.size() != 2) {
          CheckFailed(*fl, "batch returned " + std::to_string(r.reads.size()) +
                               " reads");
          break;
        }
        for (int i = 0; i < 2; ++i) {
          if (r.reads[i].key != f.keys[i] ||
              !GoodRead(f.keys[i], r.reads[i].found, r.reads[i].value)) {
            CheckFailed(*fl, "bad batch read of key " +
                                 std::to_string(f.keys[i]));
          }
        }
        fl->tn = r.tn;
        break;
      case FlightKind::kRoScan:
        if (op >= 1 && op <= 8) {
          if (!GoodRead(f.keys[op - 1], r.found, r.value)) {
            CheckFailed(*fl, "bad read of key " + std::to_string(f.keys[op - 1]));
          }
        } else if (op == 9) {
          bool ok = r.reads.size() == kScanRows && !r.more;
          for (size_t i = 0; ok && i < r.reads.size(); ++i) {
            ok = r.reads[i].key == f.scan_lo + i &&
                 GoodRead(r.reads[i].key, r.reads[i].found, r.reads[i].value);
          }
          if (!ok) {
            CheckFailed(*fl, "scan from " + std::to_string(f.scan_lo) +
                                 " not dense, ascending and well-formed");
          }
        }
        break;
      case FlightKind::kRwInteractive:
        if (op == 1 || op == 3) {
          const uint64_t key = f.keys[op == 1 ? 0 : 1];
          if (!GoodRead(key, r.found, r.value)) {
            CheckFailed(*fl, "bad read of key " + std::to_string(key));
          }
        } else if (op == 5) {
          fl->tn = r.tn;
        }
        break;
      case FlightKind::kRoShort:
        if (op >= 1 && op <= 4 && !GoodRead(f.keys[op - 1], r.found, r.value)) {
          CheckFailed(*fl, "bad read of key " + std::to_string(f.keys[op - 1]));
        }
        break;
    }
  }

  void Complete(const InFlight& fl, int64_t now) {
    if (!fl.failed && Tracer::enabled()) {
      Tracer::Record(SpanKind::kFlight, fl.flight.id, fl.sent_ns, now);
    }
    Finish(fl.flight, fl.due_abs, now, fl.failed, fl.aborted, fl.tn, st_);
  }

  void FailAll(const std::string& why) {
    if (!inflight_.empty()) st_->Note(why);
    const int64_t now = NowNanos();
    for (auto& [id, fl] : inflight_) {
      fl.failed = true;
      Complete(fl, now);
    }
    inflight_.clear();
    by_request_.clear();
    client_.reset();
  }

  void ExpireOverdue(int64_t now) {
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      if (now - it->second.due_abs > kFlightDeadlineNs) {
        st_->Note("flight unanswered past its deadline");
        it->second.failed = true;
        Complete(it->second, now);
        it = inflight_.erase(it);
      } else {
        ++it;
      }
    }
  }

  const PhaseConfig& config_;
  const int thread_;
  PhaseStats* const st_;
  mvcc::Database* const db_;
  std::unique_ptr<mvcc::server::Client> client_;
  mvcc::server::FrameDecoder decoder_;
  std::unordered_map<uint64_t, InFlight> inflight_;
  std::unordered_map<uint64_t, std::pair<uint64_t, int>> by_request_;
};

// ---------------------------------------------------------------------
// Load straight through the engine
// ---------------------------------------------------------------------

class EngineRunner {
 public:
  EngineRunner(mvcc::Database* db, PhaseStats* stats) : db_(db), st_(stats) {}

  void Execute(const Flight& f, int64_t due_abs) {
    failed_ = false;
    aborted_ = false;
    tn_ = 0;
    flight_ = &f;
    {
      ScopedSpan span(SpanKind::kFlight, f.id);
      Body(f);
    }
    Finish(f, due_abs, NowNanos(), failed_, aborted_, tn_, st_);
  }

 private:
  void Body(const Flight& f) {
    const bool ro = IsReadOnly(f.kind);
    std::unique_ptr<mvcc::Transaction> txn;
    {
      ScopedSpan span(ro ? SpanKind::kTxnBeginRo : SpanKind::kTxnBeginRw,
                      f.id);
      txn = db_->Begin(ro ? mvcc::TxnClass::kReadOnly
                          : mvcc::TxnClass::kReadWrite);
    }
    switch (f.kind) {
      case FlightKind::kRwBatch:
        if (!Read(txn.get(), f.keys[0]) || !Read(txn.get(), f.keys[1])) return;
        if (!Write(txn.get(), 0) || !Write(txn.get(), 1)) return;
        break;
      case FlightKind::kRoScan: {
        for (int i = 0; i < 8; ++i) {
          if (!Read(txn.get(), f.keys[i])) return;
        }
        std::optional<
            mvcc::Result<std::vector<std::pair<mvcc::ObjectKey, mvcc::Value>>>>
            rows;
        {
          ScopedSpan span(SpanKind::kTxnScan, f.id);
          rows.emplace(
              txn->ScanRange(f.scan_lo, f.scan_lo + kScanRows - 1, {}));
        }
        bool ok = rows->ok() && (*rows)->size() == kScanRows;
        for (size_t i = 0; ok && i < (*rows)->size(); ++i) {
          const auto& [key, value] = (**rows)[i];
          ok = key == f.scan_lo + i && GoodRead(key, true, value);
        }
        if (!ok) Bad("scan from " + std::to_string(f.scan_lo));
        break;
      }
      case FlightKind::kRwInteractive:
        if (!Read(txn.get(), f.keys[0]) || !Write(txn.get(), 0) ||
            !Read(txn.get(), f.keys[1]) || !Write(txn.get(), 1)) {
          return;
        }
        break;
      case FlightKind::kRoShort:
        for (int i = 0; i < 4; ++i) {
          if (!Read(txn.get(), f.keys[i])) return;
        }
        break;
    }
    mvcc::Status s;
    {
      ScopedSpan span(ro ? SpanKind::kTxnCommitRo : SpanKind::kTxnCommitRw,
                      f.id);
      s = txn->Commit();
    }
    if (s.IsAborted()) {
      aborted_ = true;
    } else if (!s.ok()) {
      Fail("commit: " + s.ToString());
    } else if (!ro) {
      tn_ = txn->txn_number();
    }
  }

  bool Read(mvcc::Transaction* txn, uint64_t key) {
    std::optional<mvcc::Result<mvcc::Value>> v;
    {
      ScopedSpan span(SpanKind::kTxnRead, flight_->id);
      v.emplace(txn->Read(key));
    }
    if (v->ok()) {
      if (!GoodRead(key, true, **v)) {
        Bad("bad read of key " + std::to_string(key));
      }
      return true;
    }
    if (v->status().IsAborted()) {
      if (IsReadOnly(flight_->kind)) Bad("read-only transaction aborted");
      aborted_ = true;
    } else {
      Bad("read of key " + std::to_string(key) + ": " +
          v->status().ToString());
    }
    return false;
  }

  bool Write(mvcc::Transaction* txn, int i) {
    const uint64_t key = flight_->keys[i];
    mvcc::Status s;
    {
      ScopedSpan span(SpanKind::kTxnWrite, flight_->id);
      s = txn->Write(key, EncodeValue(key, flight_->writer,
                                      flight_->write_seq +
                                          static_cast<uint64_t>(i)));
    }
    if (s.ok()) return true;
    if (s.IsAborted()) {
      aborted_ = true;
    } else {
      Fail("write: " + s.ToString());
    }
    return false;
  }

  void Bad(const std::string& what) {
    ++st_->check_failures;
    st_->Note(std::string(FlightKindName(flight_->kind)) + ": " + what);
  }
  void Fail(const std::string& what) {
    failed_ = true;
    st_->Note(what);
  }

  mvcc::Database* const db_;
  PhaseStats* const st_;
  const Flight* flight_ = nullptr;
  bool failed_ = false;
  bool aborted_ = false;
  mvcc::TxnNumber tn_ = 0;
};

// CPU time the calling thread has used, user and kernel, in ns.
CpuTime ThreadCpu() {
  struct rusage ru {};
  getrusage(RUSAGE_THREAD, &ru);
  return CpuTime::From(ru);
}

void WaitUntil(int64_t t) {
  for (;;) {
    const int64_t left = t - NowNanos();
    if (left <= 0) return;
    if (left > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
    } else {
      std::this_thread::yield();
    }
  }
}

int64_t StartTime(std::atomic<int>* ready, int threads,
                  std::atomic<int64_t>* t0) {
  ready->fetch_add(1);
  while (t0->load() == 0) {
    if (ready->load() == threads) {
      int64_t expected = 0;
      t0->compare_exchange_strong(expected, NowNanos() + 2'000'000);
    } else {
      std::this_thread::yield();
    }
  }
  return t0->load();
}

}  // namespace

void PhaseStats::Note(const std::string& error) {
  if (errors.size() < kMaxErrors) errors.push_back(error);
}

void PhaseStats::Merge(PhaseStats&& o) {
  ro.Merge(o.ro);
  rw.Merge(o.rw);
  all.Merge(o.all);
  late.Merge(o.late);
  attempted += o.attempted;
  committed += o.committed;
  failed += o.failed;
  rw_attempted += o.rw_attempted;
  rw_aborted += o.rw_aborted;
  ro_aborted += o.ro_aborted;
  check_failures += o.check_failures;
  user_bytes += o.user_bytes;
  generator_cpu = generator_cpu + o.generator_cpu;
  vis_lag.insert(vis_lag.end(), o.vis_lag.begin(), o.vis_lag.end());
  queue_size.insert(queue_size.end(), o.queue_size.begin(),
                    o.queue_size.end());
  writes.insert(writes.end(), o.writes.begin(), o.writes.end());
  for (auto& e : o.errors) Note(e);
}

PhaseStats RunWirePhase(const PhaseConfig& config, uint16_t port,
                        mvcc::Database* db) {
  std::vector<PhaseStats> per(static_cast<size_t>(config.threads));
  std::atomic<int> ready{0};
  std::atomic<int64_t> t0{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < config.threads; ++t) {
    threads.emplace_back([&, t] {
      PhaseStats* st = &per[static_cast<size_t>(t)];
      const CpuTime cpu0 = ThreadCpu();
      WireConnection conn(config, t, st, db);
      conn.Connect(port);
      conn.Run(StartTime(&ready, config.threads, &t0));
      st->generator_cpu = ThreadCpu() - cpu0;
    });
  }
  for (auto& th : threads) th.join();
  PhaseStats total;
  for (auto& p : per) total.Merge(std::move(p));
  return total;
}

PhaseStats RunEnginePhase(const PhaseConfig& config, mvcc::Database* db) {
  std::vector<PhaseStats> per(static_cast<size_t>(config.threads));
  std::atomic<int> ready{0};
  std::atomic<int64_t> t0{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < config.threads; ++t) {
    threads.emplace_back([&, t] {
      PreciseTimers();
      PhaseStats* st = &per[static_cast<size_t>(t)];
      FlightSource source(*config.spec, config.seed, Stream(config, t),
                          Writer(config, t), config.rate_tps / config.threads,
                          config.duration_ns);
      EngineRunner runner(db, st);
      const int64_t start = StartTime(&ready, config.threads, &t0);
      Flight f;
      while (source.Next(&f)) {
        const int64_t due = start + f.due_ns;
        WaitUntil(due);
        ++st->attempted;
        st->late.Add(NowNanos() - due);
        runner.Execute(f, due);
      }
    });
  }
  for (auto& th : threads) th.join();
  PhaseStats total;
  for (auto& p : per) total.Merge(std::move(p));
  return total;
}

}  // namespace perfbench
