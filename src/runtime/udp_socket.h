// Loopback UDP socket wrapper — the ONE place in the tree that touches the
// raw socket API (socket(2)/bind/sendto/recvfrom). The `raw-socket` lint
// rule (tools/lint/abe_lint.py) rejects those calls anywhere else, so every
// datagram the udp runtime moves goes through this class.
//
// Scope is deliberately narrow: IPv4 loopback only, ephemeral ports,
// datagrams up to a small fixed header size (runtime/udp_transport.cpp keeps
// payload objects in-process and ships headers only). receive() polls with
// a short kernel timeout (SO_RCVTIMEO) instead of blocking forever, so a
// reader thread can observe a stop flag without needing self-addressed
// wakeup datagrams — shutdown is then loss-proof by construction.
//
// Thread-safety: send_to() and receive() are safe to call concurrently
// from different threads (POSIX datagram sockets serialise per call); the
// port is fixed at construction. No mutable shared state lives here.
#pragma once

#include <cstddef>
#include <cstdint>

namespace abe {

class UdpSocket {
 public:
  // Milliseconds receive() blocks before returning 0 (poll interval for
  // stop-flag checks). Small enough that runtime shutdown is prompt, large
  // enough that an idle reader costs ~50 wakeups/s.
  static constexpr int kPollIntervalMs = 20;

  // Opens an IPv4 datagram socket and binds it to 127.0.0.1 with an
  // ephemeral port. Aborts on resource exhaustion (fd or port budget) —
  // gate node counts with kMaxUdpRuntimeNodes (runtime/runtime.h) first.
  UdpSocket();
  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  // The bound loopback port (host byte order).
  std::uint16_t port() const { return port_; }

  // Sends one datagram to 127.0.0.1:port. Returns false when the kernel
  // rejected the send (e.g. the destination socket already closed during
  // shutdown) — callers treat that as transit loss, never as fatal.
  bool send_to(std::uint16_t port, const void* data, std::size_t size) const;

  // Receives one datagram: returns its size, 0 when the poll interval
  // elapsed with nothing pending (check your stop flag and call again), or
  // -1 on an unrecoverable socket error. Datagrams larger than `capacity`
  // are truncated by the kernel; callers size buffers to the wire header.
  int receive(void* buffer, std::size_t capacity) const;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace abe
