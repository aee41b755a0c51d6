#pragma once
// Shared fd-level frame I/O — the one copy of the short-write / short-read /
// EINTR / deadline logic, used by both ends of the TCP transport (the
// pool-side FdTransport and the TcpWorkerHost serve loop). Its edge cases —
// a short write resumed after EINTR, send() returning 0, a peer stalling
// mid-frame — are the ones that only bite under real network load:
//
//   * write_full: send() with MSG_NOSIGNAL (a dead peer must surface as
//     EPIPE, never SIGPIPE), resumes after EINTR *without losing the partial
//     progress*, and treats n == 0 as a hard error (a blocking stream send
//     never legitimately writes nothing — looping on it would spin forever);
//   * read_frame: the deadline-honoring read. Every poll uses the REMAINING
//     time to the deadline computed once at entry — the timeout is never
//     re-armed after a partial read, so a peer trickling one byte per poll
//     cannot extend the total wait past `timeout`
//     (tests/tcp_transport_test.cpp pins total wait <= timeout + epsilon).
//     The result distinguishes a clean timeout (nothing consumed, the
//     stream is still in sync) from a mid-frame stall (the stream is
//     desynced for good — the caller poisons the link).
//
// FdTransport wraps the helpers into the Transport contract over any
// connected stream fd; TcpTransportFactory hands one out per joined session.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "runtime/transport.hpp"
#include "util/clock.hpp"

namespace askel {
namespace frame_io {

/// Write exactly `size` bytes to a connected stream fd. MSG_NOSIGNAL on
/// every send; EINTR resumes with the partial progress kept; n == 0 and
/// every other error return false.
bool write_full(int fd, const std::uint8_t* data, std::size_t size);

enum class ReadResult {
  kFrame,         // one whole frame (and its payload, if any) decoded
  kTimeout,       // deadline passed with NOTHING consumed: stream in sync
  kMidFrameStall, // deadline passed mid-frame: stream desynced — poison it
  kClosed,        // EOF or hard error
  kGarbage,       // bytes arrived but did not decode / payload oversized
};

/// Deadline-honoring frame read: poll before EVERY read with the remaining
/// time to the deadline anchored at entry, never a blocking read. A named
/// frame's payload (`out.b` bytes, bounded by kMaxNamedPayload) is read
/// under the same deadline; `payload` may be null, in which case the bytes
/// are consumed (keeping the stream in sync) and discarded.
ReadResult read_frame(int fd, Duration timeout, WireFrame& out,
                      std::vector<std::uint8_t>* payload);

}  // namespace frame_io

/// Transport over one connected stream fd (a TCP socket to a worker host,
/// or one end of a socketpair in the wire-layer tests). Locking: `mu_`
/// serializes send/close against each other; recv stays lease-owner-only
/// (the session machine's contract), so it reads the fd without the mutex —
/// close() shuts the socket down before closing so a concurrent recv wakes
/// with EOF instead of touching a recycled fd number.
class FdTransport final : public Transport {
 public:
  explicit FdTransport(int fd) : fd_(fd) {}
  ~FdTransport() override;

  bool send(const WireFrame& f) override;
  bool send(const WireFrame& f, const std::uint8_t* payload,
            std::size_t size) override;
  bool recv(WireFrame& out, Duration timeout) override;
  bool recv(WireFrame& out, std::vector<std::uint8_t>& payload,
            Duration timeout) override;
  bool alive() const override;
  void close() override;

 private:
  bool recv_impl(WireFrame& out, std::vector<std::uint8_t>* payload,
                 Duration timeout);

  int fd_ = -1;
  std::atomic<bool> alive_{true};
  std::mutex mu_;  // send/close vs each other
};

}  // namespace askel
