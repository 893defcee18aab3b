// Copyright 2026 The ONEX Reproduction Authors.
// Blocking socket I/O shared by the server's session loop and the
// client: a send-everything loop and a buffered newline reader. One
// implementation so framing rules (CR stripping, line-length cap)
// cannot diverge between the two ends of the wire.

#ifndef ONEX_SERVER_SOCKET_IO_H_
#define ONEX_SERVER_SOCKET_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace onex {
namespace server {

/// Opens a TCP listening socket on host:port (0 = ephemeral) with
/// SO_REUSEADDR and returns its fd; *bound_port receives the port the
/// kernel actually bound.
Result<int> ListenTcp(const std::string& host, uint16_t port,
                      uint16_t* bound_port);

/// Disables Nagle's algorithm on a connected TCP socket. A reply that
/// goes out as several writes (a PART frame, then the final block)
/// otherwise holds its last write until the peer's delayed ACK, ~40 ms.
/// Best-effort: a failure only costs latency.
void SetNoDelay(int fd);

/// Writes the whole buffer; best-effort (a dying peer just ends the
/// session on its next read). Returns false on transport failure.
/// Uses MSG_NOSIGNAL so a closed peer cannot raise SIGPIPE.
bool SendAll(int fd, const std::string& data);

/// Buffered '\n'-delimited reader over a blocking socket. Strips a
/// trailing '\r'; fails on lines longer than `max_line` bytes.
class SocketLineReader {
 public:
  SocketLineReader(int fd, size_t max_line) : fd_(fd), max_line_(max_line) {}

  /// False on EOF, transport error, or an over-long line.
  bool ReadLine(std::string* line);

  /// Reads exactly `n` raw bytes (the FETCH binary chunk path),
  /// draining any bytes already buffered ahead by ReadLine first.
  /// False on EOF or transport error before `n` bytes arrive.
  bool ReadBytes(size_t n, std::string* out);

 private:
  int fd_;
  size_t max_line_;
  std::string buffer_;
};

}  // namespace server
}  // namespace onex

#endif  // ONEX_SERVER_SOCKET_IO_H_
