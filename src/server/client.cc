#include "server/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <utility>

namespace mvcc {
namespace server {

Request MakeBegin(uint64_t token, TxnClass cls, TxnNumber at_least) {
  Request req;
  req.op = OpCode::kBegin;
  req.token = token;
  req.txn_class = cls;
  req.at_least = at_least;
  return req;
}

Request MakeRead(uint64_t token, ObjectKey key) {
  Request req;
  req.op = OpCode::kRead;
  req.token = token;
  req.key = key;
  return req;
}

Request MakeScan(uint64_t token, ObjectKey lo, ObjectKey hi,
                 uint32_t limit) {
  Request req;
  req.op = OpCode::kScan;
  req.token = token;
  req.key = lo;
  req.key_hi = hi;
  req.scan_limit = limit;
  return req;
}

Request MakeWrite(uint64_t token, ObjectKey key, Value value) {
  Request req;
  req.op = OpCode::kWrite;
  req.token = token;
  req.key = key;
  req.value = std::move(value);
  return req;
}

Request MakeCommit(uint64_t token) {
  Request req;
  req.op = OpCode::kCommit;
  req.token = token;
  return req;
}

Request MakeAbort(uint64_t token) {
  Request req;
  req.op = OpCode::kAbort;
  req.token = token;
  return req;
}

Request MakeBatch(TxnClass cls, std::vector<BatchOp> ops) {
  Request req;
  req.op = OpCode::kBatch;
  req.txn_class = cls;
  req.batch = std::move(ops);
  return req;
}

Request MakeHealth() {
  Request req;
  req.op = OpCode::kHealth;
  return req;
}

Request MakeStats() {
  Request req;
  req.op = OpCode::kStats;
  return req;
}

Client::Client(ClientOptions options)
    : options_(std::move(options)), jitter_(options_.reconnect.jitter_seed) {}

Client::~Client() { CloseFd(); }

Result<std::unique_ptr<Client>> Client::Connect(ClientOptions options) {
  std::unique_ptr<Client> client(new Client(std::move(options)));
  client->can_redial_ = true;
  Status s = client->Dial();
  if (!s.ok()) return s;
  return client;
}

std::unique_ptr<Client> Client::FromFd(int fd, ClientOptions options) {
  std::unique_ptr<Client> client(new Client(std::move(options)));
  client->fd_ = fd;
  if (client->options_.io_timeout_ms > 0) {
    struct timeval tv;
    tv.tv_sec = client->options_.io_timeout_ms / 1000;
    tv.tv_usec = (client->options_.io_timeout_ms % 1000) * 1000;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  return client;
}

Status Client::Dial() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable("socket(): errno " +
                                         std::to_string(errno));
  struct sockaddr_in addr;
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  addr.sin_addr.s_addr = INADDR_ANY;
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address: " + options_.host);
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Unavailable("connect(" + options_.host + ":" +
                               std::to_string(options_.port) +
                               "): errno " + std::to_string(err));
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options_.io_timeout_ms > 0) {
    struct timeval tv;
    tv.tv_sec = options_.io_timeout_ms / 1000;
    tv.tv_usec = (options_.io_timeout_ms % 1000) * 1000;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  fd_ = fd;
  return Status::OK();
}

void Client::CloseFd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::Reconnect() {
  if (!can_redial_) {
    return Status::InvalidArgument("client adopted its fd; cannot redial");
  }
  CloseFd();
  // The old connection's transactions were aborted server-side; every
  // un-awaited request_id is now unanswerable.
  stash_.clear();
  decoder_.Reset();
  Status last = Status::Unavailable("no attempts made");
  const int max_attempts = options_.reconnect.max_attempts > 0
                               ? options_.reconnect.max_attempts
                               : 1;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    last = Dial();
    if (last.ok()) return last;
    if (attempt == max_attempts) break;
    const int64_t delay_us =
        RetryBackoffMicros(options_.reconnect, attempt + 1, jitter_.Next());
    if (delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    }
  }
  return last;
}

Status Client::WriteAll(const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: a server that closed the connection is an error
    // return (EPIPE), never a SIGPIPE that ends the calling process.
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const int err = errno;
    CloseFd();
    return Status::Unavailable("write failed: errno " + std::to_string(err));
  }
  return Status::OK();
}

Result<uint64_t> Client::Send(Request req) {
  if (fd_ < 0) return Status::Unavailable("not connected");
  req.request_id = next_request_id_++;
  Status s = WriteAll(EncodeFrame(EncodeRequest(req)));
  if (!s.ok()) return s;
  return req.request_id;
}

Result<Response> Client::Await(uint64_t request_id) {
  auto it = stash_.find(request_id);
  if (it != stash_.end()) {
    Response resp = std::move(it->second);
    stash_.erase(it);
    return resp;
  }
  return ReadUntil(request_id);
}

Result<Response> Client::ReadUntil(uint64_t request_id) {
  if (fd_ < 0) return Status::Unavailable("not connected");
  char buf[64 * 1024];
  for (;;) {
    // Drain decodable frames first.
    for (;;) {
      std::string payload;
      const FrameDecoder::NextResult r = decoder_.Next(&payload);
      if (r == FrameDecoder::NextResult::kCorrupt) {
        CloseFd();
        return Status::DataLoss("corrupt response stream: " +
                                decoder_.corrupt_detail());
      }
      if (r != FrameDecoder::NextResult::kFrame) break;
      Response resp;
      if (!DecodeResponse(payload, &resp)) {
        CloseFd();
        return Status::DataLoss("undecodable response payload");
      }
      if (resp.request_id == request_id) return resp;
      stash_[resp.request_id] = std::move(resp);
    }
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      decoder_.Append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      CloseFd();
      return Status::Unavailable("server closed the connection");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // SO_RCVTIMEO expiry. Distinct from stream corruption and from a
      // dead peer: the connection is still healthy (no bytes were lost;
      // partial frames stay buffered in the decoder), so the fd is left
      // OPEN and a later Await can pick up where this one stopped. The
      // caller decides whether to keep waiting, or to treat the server
      // as slow and fail over.
      return Status::TimedOut("response timed out after " +
                              std::to_string(options_.io_timeout_ms) + "ms");
    }
    const int err = errno;
    CloseFd();
    return Status::Unavailable("read failed: errno " + std::to_string(err));
  }
}

Result<Response> Client::Call(Request req) {
  Result<uint64_t> id = Send(std::move(req));
  if (!id.ok()) return id.status();
  return Await(*id);
}

// ---------------------------------------------------------------------
// FailoverClient
// ---------------------------------------------------------------------

FailoverClient::FailoverClient(FailoverClientOptions options)
    : options_(std::move(options)), jitter_(options_.backoff.jitter_seed) {}

FailoverClient::~FailoverClient() = default;

void FailoverClient::Disconnect() {
  client_.reset();
  connected_ = false;
}

void FailoverClient::RotateTo(int target) {
  Disconnect();
  const int n = static_cast<int>(options_.endpoints.size());
  if (target >= 0 && target < n && target != current_) {
    current_ = target;
  } else {
    current_ = (current_ + 1) % n;
  }
  ++stats_.rotations;
}

Status FailoverClient::EnsureConnected() {
  if (connected_) return Status::OK();
  const Endpoint& ep = options_.endpoints[current_];
  ClientOptions copts;
  copts.host = ep.host;
  copts.port = ep.port;
  copts.io_timeout_ms = options_.io_timeout_ms;
  // The failover loop owns retry; the inner client must fail fast.
  copts.reconnect.max_attempts = 1;
  Result<std::unique_ptr<Client>> client = Client::Connect(std::move(copts));
  if (!client.ok()) return client.status();
  client_ = std::move(*client);
  connected_ = true;
  ++stats_.reconnects;
  return Status::OK();
}

Result<Response> FailoverClient::Call(const Request& req) {
  if (options_.endpoints.empty()) {
    return Status::InvalidArgument("no endpoints configured");
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.request_deadline_ms);
  Status last = Status::Unavailable("no attempts made");
  bool sent_once = false;
  for (;;) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ++stats_.deadline_exhausted;
      return Status::Unavailable("request deadline exhausted; last error: " +
                                 last.message());
    }
    if (attempt_ > 0) {
      const int64_t delay_us =
          RetryBackoffMicros(options_.backoff, attempt_ + 1, jitter_.Next());
      if (delay_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      }
    }
    Status conn = EnsureConnected();
    if (!conn.ok()) {
      last = conn;
      ++attempt_;
      RotateTo(-1);
      continue;
    }
    if (sent_once) ++stats_.ambiguous_retries;
    ++stats_.attempts;
    Result<Response> result = client_->Call(req);
    sent_once = true;
    if (!result.ok()) {
      last = result.status();
      ++attempt_;
      if (result.status().IsTimedOut()) {
        // The connection is still healthy (client.cc ReadUntil), but a
        // primary that cannot answer within the io timeout is treated
        // as dead for failover purposes: drop it and move on.
        ++stats_.timeouts;
      }
      RotateTo(-1);
      continue;
    }
    if (result->fence > fence_seen_) fence_seen_ = result->fence;
    if (result->status == WireStatus::kNotPrimary) {
      last = Status::Unavailable("not primary");
      ++attempt_;
      // Only a hint at (or above) the highest fence this client has
      // seen can be trusted; a deposed primary's parting redirect is
      // ignored and the scan continues round-robin.
      if (result->fence >= fence_seen_ && result->leader_hint >= 0 &&
          result->leader_hint <
              static_cast<int32_t>(options_.endpoints.size())) {
        ++stats_.redirects_honored;
        RotateTo(result->leader_hint);
      } else {
        ++stats_.redirects_stale;
        RotateTo(-1);
      }
      continue;
    }
    if (result->status == WireStatus::kShedOverload) {
      last = Status::Unavailable("shed: overload");
      ++attempt_;  // backoff, stay on this endpoint (it IS the primary)
      continue;
    }
    attempt_ = 0;  // success resets the backoff schedule
    return result;
  }
}

Result<Response> FailoverClient::Batch(TxnClass cls,
                                       std::vector<BatchOp> ops) {
  return Call(MakeBatch(cls, std::move(ops)));
}

}  // namespace server
}  // namespace mvcc
