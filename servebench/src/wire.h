// The wire side of the benchmark: the server process it launches and the
// TCP connections it drives, with a reply parser that hashes ROW payloads
// as they arrive.
#ifndef SERVEBENCH_WIRE_H_
#define SERVEBENCH_WIRE_H_

#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

namespace sb {

/// One omqe_server child process. Its stderr is read by a thread, so the
/// server never blocks on a full pipe, and scanned for the listening port.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `argv[0]` with `argv`. "" on success.
  std::string Start(const std::vector<std::string>& argv);
  /// Blocks until the server reports its port (0 on exit or timeout).
  uint16_t WaitListening(double timeout_s);
  pid_t pid() const { return pid_; }
  /// Waits up to `timeout_s` for the process to exit (after SHUTDOWN),
  /// then kills it. True when it exited on its own with status 0.
  bool Wait(double timeout_s);
  /// The last stderr lines, for failure reports.
  std::string StderrTail() const;

 private:
  pid_t pid_ = -1;
  int err_fd_ = -1;
  std::thread reader_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  // port_ or eof_ changed
  std::string stderr_;
  uint16_t port_ = 0;
  bool eof_ = false;
};

/// One parsed reply block.
struct Reply {
  std::string terminator;  // "OK ..." or "ERR <code> ..."
  uint64_t rows = 0;       // ROW lines
  std::string data;        // non-ROW data lines (STAT ...), concatenated
  bool ok() const { return terminator.rfind("OK", 0) == 0; }
};

/// Incremental reply parser: feed it socket bytes, it calls `on_row` for
/// every ROW payload and `on_reply` for every completed block.
class ReplyParser {
 public:
  using RowFn = std::function<void(std::string_view)>;
  using ReplyFn = std::function<void(Reply&)>;
  void Feed(const char* data, size_t n, const RowFn& on_row,
            const ReplyFn& on_reply);
 private:
  std::string partial_;  // an incomplete line carried across reads
  Reply current_;
};

/// A blocking client connection with TCP_NODELAY set on the client side.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(uint16_t port);
  int fd() const { return fd_; }
  bool Send(std::string_view bytes);
  /// Reads until one reply block completes. False on EOF or error (the
  /// connection dropped).
  bool Read(Reply* reply, const ReplyParser::RowFn& on_row = nullptr);
  /// Send + Read, timing the roundtrip into *ns when given.
  bool Roundtrip(const std::string& line, Reply* reply,
                 const ReplyParser::RowFn& on_row = nullptr,
                 int64_t* ns = nullptr);
  /// Reads what is available now (after poll), feeding the parser. Returns
  /// false when the connection dropped.
  bool Pump(const ReplyParser::RowFn& on_row,
            const ReplyParser::ReplyFn& on_reply);
  void Close();

 private:
  int fd_ = -1;
  ReplyParser parser_;
  std::vector<Reply> ready_;
};

/// The number after "<key>=" in `text` (e.g. trees=123); -1 when absent.
int64_t FieldAfter(std::string_view text, std::string_view key);

}  // namespace sb

#endif  // SERVEBENCH_WIRE_H_
