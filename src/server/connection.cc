#include "server/connection.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>
#include <vector>

namespace mvcc {
namespace server {

namespace {

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

Connection::Connection(int fd, ServiceCore* core)
    : fd_(fd),
      core_(core),
      decoder_(core->options().max_frame_bytes),
      out_() {
  SetNonBlocking(fd_);
  core_->stats().connections_accepted.fetch_add(1, std::memory_order_relaxed);
  core_->stats().connections_active.fetch_add(1, std::memory_order_relaxed);
}

Connection::~Connection() {
  Shutdown();
  ::close(fd_);
  core_->stats().connections_active.fetch_sub(1, std::memory_order_relaxed);
  core_->stats().connections_closed.fetch_add(1, std::memory_order_relaxed);
}

void Connection::Shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  core_->AbortSession(&session_);
}

bool Connection::QueueOutput(std::string frame) {
  if (out_off_ > 0 && out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  }
  if (out_.size() - out_off_ + frame.size() >
      core_->options().max_output_bytes) {
    // A consumer that cannot keep up with its own responses would grow
    // this buffer without bound; close instead (admission control for
    // memory). Already-queued output is abandoned — the client was not
    // reading it anyway.
    core_->stats().slow_consumer_closes.fetch_add(1,
                                                  std::memory_order_relaxed);
    close_reason_ = CloseReason::kSlowConsumer;
    return false;
  }
  out_.append(frame);
  return true;
}

bool Connection::OnReadable() {
  char buf[64 * 1024];
  std::vector<std::string> payloads;
  bool eof = false;
  for (;;) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      core_->stats().bytes_in.fetch_add(static_cast<uint64_t>(n),
                                        std::memory_order_relaxed);
      decoder_.Append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_reason_ = CloseReason::kIoError;
    return false;
  }

  // Decode every complete frame buffered so far: this drained run is
  // exactly the pipelined burst ExecutePayloads group-commits together.
  bool corrupt = false;
  for (;;) {
    std::string payload;
    const FrameDecoder::NextResult r = decoder_.Next(&payload);
    if (r == FrameDecoder::NextResult::kFrame) {
      payloads.push_back(std::move(payload));
      continue;
    }
    if (r == FrameDecoder::NextResult::kCorrupt) corrupt = true;
    break;
  }

  if (!payloads.empty()) {
    std::string responses;
    core_->ExecutePayloads(&session_, payloads, &responses);
    if (!QueueOutput(std::move(responses))) return false;
  }

  if (corrupt) {
    // The byte stream cannot be trusted past a bad frame header. Send a
    // best-effort diagnostic (the flush below may or may not get it out
    // — the stream is already poisoned) and close.
    core_->stats().corrupt_frames.fetch_add(1, std::memory_order_relaxed);
    core_->stats().protocol_errors.fetch_add(1, std::memory_order_relaxed);
    Response resp;
    resp.op = OpCode::kAbort;
    resp.status = WireStatus::kMalformed;
    resp.message = decoder_.corrupt_detail();
    QueueOutput(EncodeFrame(EncodeResponse(resp)));
    (void)OnWritable();
    close_reason_ = CloseReason::kCorruptStream;
    return false;
  }

  if (!OnWritable()) return false;

  if (eof) {
    close_reason_ = CloseReason::kEof;
    return false;
  }
  return true;
}

bool Connection::OnWritable() {
  while (out_off_ < out_.size()) {
    // MSG_NOSIGNAL: a peer that already closed must cost this
    // connection (EPIPE below), not the process (SIGPIPE).
    const ssize_t n = ::send(fd_, out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
    if (n > 0) {
      core_->stats().bytes_out.fetch_add(static_cast<uint64_t>(n),
                                         std::memory_order_relaxed);
      out_off_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    close_reason_ = CloseReason::kIoError;
    return false;
  }
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  }
  return true;
}

}  // namespace server
}  // namespace mvcc
