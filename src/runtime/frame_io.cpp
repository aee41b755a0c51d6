#include "runtime/frame_io.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>

namespace askel {
namespace frame_io {

bool write_full(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t at = 0;
  while (at < size) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the process.
    const ssize_t n = ::send(fd, data + at, size - at, MSG_NOSIGNAL);
    if (n > 0) {
      at += static_cast<std::size_t>(n);
      continue;
    }
    // EINTR after a partial write resumes at `at` — progress is never lost.
    if (n < 0 && errno == EINTR) continue;
    // n == 0: a blocking stream send never legitimately writes nothing;
    // treating it as retryable would spin forever on a broken socket.
    return false;
  }
  return true;
}

namespace {

/// Read exactly `size` bytes before `deadline`, polling with the REMAINING
/// time each iteration (the deadline never re-arms — a trickling peer
/// cannot extend the total wait). `*consumed` counts bytes read so the
/// caller can tell a clean timeout from a mid-frame stall.
enum class FillResult { kDone, kTimeout, kClosed };

FillResult read_until_deadline(
    int fd, std::uint8_t* data, std::size_t size,
    std::chrono::steady_clock::time_point deadline, std::size_t* consumed) {
  std::size_t at = 0;
  while (at < size) {
    const double remaining_s =
        std::chrono::duration<double>(deadline -
                                      std::chrono::steady_clock::now())
            .count();
    if (remaining_s <= 0.0) {
      *consumed += at;
      return FillResult::kTimeout;
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int r;
    do {
      r = ::poll(&pfd, 1, static_cast<int>(std::ceil(remaining_s * 1000.0)));
    } while (r < 0 && errno == EINTR);
    if (r <= 0) continue;  // loop re-checks the ORIGINAL deadline
    const ssize_t n = ::read(fd, data + at, size - at);
    if (n > 0) {
      at += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    *consumed += at;
    return FillResult::kClosed;  // EOF: the peer went away
  }
  *consumed += at;
  return FillResult::kDone;
}

}  // namespace

ReadResult read_frame(int fd, Duration timeout, WireFrame& out,
                      std::vector<std::uint8_t>* payload) {
  if (fd < 0) return ReadResult::kClosed;
  // The deadline anchors HERE, once: the header read, the decode and the
  // payload read all spend from the same budget.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(std::max(0.0, timeout)));
  std::uint8_t buf[kWireFrameSize];
  std::size_t consumed = 0;
  switch (read_until_deadline(fd, buf, kWireFrameSize, deadline, &consumed)) {
    case FillResult::kDone:
      break;
    case FillResult::kTimeout:
      // Nothing consumed is just "no frame"; a timeout MID-frame means the
      // byte stream is desynced for good.
      return consumed == 0 ? ReadResult::kTimeout : ReadResult::kMidFrameStall;
    case FillResult::kClosed:
      return ReadResult::kClosed;
  }
  if (!decode_frame(buf, kWireFrameSize, out)) return ReadResult::kGarbage;
  if (!frame_has_payload(out.type)) {
    if (payload != nullptr) payload->clear();
    return ReadResult::kFrame;
  }
  // Variable payload: `b` carries the byte count. An advertised length past
  // the protocol ceiling is a poisoned link, never an allocation request.
  if (out.b > kMaxNamedPayload) return ReadResult::kGarbage;
  std::vector<std::uint8_t> scratch;
  std::vector<std::uint8_t>* dst = payload != nullptr ? payload : &scratch;
  dst->assign(static_cast<std::size_t>(out.b), 0);
  if (out.b == 0) return ReadResult::kFrame;
  consumed = 0;
  switch (read_until_deadline(fd, dst->data(), dst->size(), deadline,
                              &consumed)) {
    case FillResult::kDone:
      return ReadResult::kFrame;
    case FillResult::kTimeout:
      return ReadResult::kMidFrameStall;  // header without payload = desync
    case FillResult::kClosed:
      return ReadResult::kClosed;
  }
  return ReadResult::kClosed;
}

}  // namespace frame_io

FdTransport::~FdTransport() { close(); }

bool FdTransport::send(const WireFrame& f) { return send(f, nullptr, 0); }

bool FdTransport::send(const WireFrame& f, const std::uint8_t* payload,
                       std::size_t size) {
  std::lock_guard lock(mu_);
  if (fd_ < 0) return false;
  const WireFrameBytes bytes = encode_frame(f);
  if (!frame_io::write_full(fd_, bytes.data(), bytes.size()) ||
      (size > 0 && !frame_io::write_full(fd_, payload, size))) {
    alive_.store(false, std::memory_order_release);
    return false;
  }
  return true;
}

bool FdTransport::recv(WireFrame& out, Duration timeout) {
  return recv_impl(out, nullptr, timeout);
}

bool FdTransport::recv(WireFrame& out, std::vector<std::uint8_t>& payload,
                       Duration timeout) {
  return recv_impl(out, &payload, timeout);
}

bool FdTransport::recv_impl(WireFrame& out,
                            std::vector<std::uint8_t>* payload,
                            Duration timeout) {
  if (fd_ < 0) return false;
  switch (frame_io::read_frame(fd_, timeout, out, payload)) {
    case frame_io::ReadResult::kFrame:
      return true;
    case frame_io::ReadResult::kTimeout:
      return false;  // stream still in sync; the link stays up
    case frame_io::ReadResult::kMidFrameStall:
    case frame_io::ReadResult::kGarbage:
    case frame_io::ReadResult::kClosed:
      alive_.store(false, std::memory_order_release);
      return false;
  }
  return false;
}

bool FdTransport::alive() const {
  return alive_.load(std::memory_order_acquire);
}

void FdTransport::close() {
  std::lock_guard lock(mu_);
  if (fd_ >= 0) {
    // shutdown first: a recv blocked in poll() on another thread wakes with
    // EOF instead of racing a recycled fd number.
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
  alive_.store(false, std::memory_order_release);
}

}  // namespace askel
