// Minimal RAII TCP transport for record streams between hosts.
//
// Stations use these primitives to carry wire-encoded records over real
// sockets to an analysis host (a RecordChannelSource on the receiving end).
// Only what that needs is wrapped: listen/accept, connect, full-buffer send,
// and a record-oriented receive loop.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "river/channel.hpp"
#include "river/record.hpp"
#include "river/wire.hpp"

namespace dynriver::river {

class TcpError : public std::runtime_error {
 public:
  explicit TcpError(const std::string& what) : std::runtime_error(what) {}
};

/// RAII file-descriptor owner.
class FdHandle {
 public:
  FdHandle() = default;
  explicit FdHandle(int fd) : fd_(fd) {}
  ~FdHandle();

  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;
  FdHandle(FdHandle&& other) noexcept;
  FdHandle& operator=(FdHandle&& other) noexcept;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// A connected TCP byte stream.
class TcpStream {
 public:
  explicit TcpStream(FdHandle fd) : fd_(std::move(fd)) {}

  /// Connect to host:port (blocking). Throws TcpError on failure.
  static TcpStream connect(const std::string& host, std::uint16_t port);

  /// Send the whole buffer; returns false if the peer is gone.
  bool send_all(const std::uint8_t* data, std::size_t len);

  /// Receive up to `len` bytes; returns bytes read, 0 on orderly shutdown,
  /// -1 on error/abnormal close.
  std::ptrdiff_t recv_some(std::uint8_t* data, std::size_t len);

  /// Hard-close the socket (simulates abnormal termination).
  void shutdown_now();

  [[nodiscard]] bool valid() const { return fd_.valid(); }

 private:
  FdHandle fd_;
};

/// Listening socket bound to 127.0.0.1:<port>; port 0 lets the OS choose.
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port = 0);

  /// Blocking accept. Throws TcpError on failure.
  [[nodiscard]] TcpStream accept();

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Close the listening socket; a blocked accept() will fail.
  void close();

 private:
  FdHandle fd_;
  std::uint16_t port_ = 0;
};

/// RecordChannel over a TCP stream: send serializes frames, recv decodes
/// them incrementally. A clean close is signalled by a zero-length sentinel
/// frame so the receiver can distinguish clean EOS from a dead peer.
class TcpRecordChannel final : public RecordChannel {
 public:
  explicit TcpRecordChannel(TcpStream stream);

  bool send(Record rec) override;
  RecvStatus recv(Record& out) override;
  void close() override;
  void disconnect() override;

 private:
  TcpStream stream_;
  WireDecoder decoder_;
  bool saw_clean_close_ = false;
  bool send_closed_ = false;
};

/// The 8-byte end-of-stream sentinel (magic + all-ones length marker).
[[nodiscard]] const std::array<std::uint8_t, 8>& eos_sentinel();

}  // namespace dynriver::river
