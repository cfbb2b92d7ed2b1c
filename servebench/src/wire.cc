#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

extern char** environ;

namespace sb {

// ---------------------------------------------------------------------------
// ServerProcess.
// ---------------------------------------------------------------------------

std::string ServerProcess::Start(const std::vector<std::string>& argv) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return "pipe() failed";
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], 2);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
  // The generator ignores SIGPIPE; the server gets the default disposition,
  // as when started from a shell.
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  sigset_t defaults;
  sigemptyset(&defaults);
  sigaddset(&defaults, SIGPIPE);
  posix_spawnattr_setsigdefault(&attr, &defaults);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETSIGDEF);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  int rc = ::posix_spawn(&pid_, args[0], &actions, &attr, args.data(),
                         environ);
  posix_spawnattr_destroy(&attr);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (rc != 0) {
    ::close(pipe_fds[0]);
    pid_ = -1;
    return std::string("posix_spawn failed: ") + std::strerror(rc);
  }
  err_fd_ = pipe_fds[0];
  reader_ = std::thread([this] {
    char buf[4096];
    for (;;) {
      ssize_t n = ::read(err_fd_, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      std::lock_guard<std::mutex> lock(mu_);
      stderr_.append(buf, static_cast<size_t>(n));
      if (port_ == 0) {
        const size_t at = stderr_.find("listening on 127.0.0.1:");
        if (at != std::string::npos) {
          port_ = static_cast<uint16_t>(
              std::atoi(stderr_.c_str() + at + std::strlen("listening on 127.0.0.1:")));
          cv_.notify_all();
        }
      }
      if (stderr_.size() > (1u << 16)) stderr_.erase(0, stderr_.size() - (1u << 15));
    }
    std::lock_guard<std::mutex> lock(mu_);
    eof_ = true;
    cv_.notify_all();
  });
  return "";
}

uint16_t ServerProcess::WaitListening(double timeout_s) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                       [this] { return port_ != 0 || eof_; });
  return port_;
}

bool ServerProcess::Wait(double timeout_s) {
  if (pid_ <= 0) return false;
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  int status = 0;
  bool clean = false;
  for (;;) {
    pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      break;
    }
    if (r < 0 && errno != EINTR) break;
    if (NowNs() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    ::usleep(2000);
  }
  pid_ = -1;
  if (reader_.joinable()) reader_.join();
  if (err_fd_ >= 0) ::close(err_fd_);
  err_fd_ = -1;
  return clean;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    Wait(5);
  }
  if (reader_.joinable()) reader_.join();
  if (err_fd_ >= 0) ::close(err_fd_);
}

std::string ServerProcess::StderrTail() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stderr_.size() > 2000 ? stderr_.substr(stderr_.size() - 2000)
                               : stderr_;
}

// ---------------------------------------------------------------------------
// ReplyParser / Conn.
// ---------------------------------------------------------------------------

void ReplyParser::Feed(const char* data, size_t n, const RowFn& on_row,
                       const ReplyFn& on_reply) {
  size_t pos = 0;
  while (pos < n) {
    const char* nl =
        static_cast<const char*>(std::memchr(data + pos, '\n', n - pos));
    if (nl == nullptr) {
      partial_.append(data + pos, n - pos);
      return;
    }
    const size_t len = static_cast<size_t>(nl - (data + pos));
    std::string_view line(data + pos, len);
    if (!partial_.empty()) {
      partial_.append(data + pos, len);
      line = partial_;
    }
    pos += len + 1;
    if (line.substr(0, 4) == "ROW ") {
      ++current_.rows;
      if (on_row) on_row(line.substr(4));
    } else if (line.substr(0, 2) == "OK" || line.substr(0, 3) == "ERR") {
      current_.terminator.assign(line);
      on_reply(current_);
      current_ = Reply();
    } else {
      current_.data.append(line).push_back('\n');
    }
    partial_.clear();
  }
}

Conn::~Conn() { Close(); }

void Conn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Conn::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool Conn::Send(std::string_view bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t w = ::send(fd_, bytes.data() + done, bytes.size() - done,
                       MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    done += static_cast<size_t>(w);
  }
  return true;
}

bool Conn::Pump(const ReplyParser::RowFn& on_row,
                const ReplyParser::ReplyFn& on_reply) {
  char buf[1 << 16];
  ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    return true;
  }
  if (n <= 0) return false;
  parser_.Feed(buf, static_cast<size_t>(n), on_row, on_reply);
  return true;
}

bool Conn::Read(Reply* reply, const ReplyParser::RowFn& on_row) {
  char buf[1 << 16];
  while (ready_.empty()) {
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    parser_.Feed(buf, static_cast<size_t>(n), on_row,
                 [this](Reply& r) { ready_.push_back(std::move(r)); });
  }
  *reply = std::move(ready_.front());
  ready_.erase(ready_.begin());
  return true;
}

bool Conn::Roundtrip(const std::string& line, Reply* reply,
                     const ReplyParser::RowFn& on_row, int64_t* ns) {
  const int64_t t0 = NowNs();
  if (!Send(line)) return false;
  if (!Read(reply, on_row)) return false;
  if (ns != nullptr) *ns = NowNs() - t0;
  return true;
}

int64_t FieldAfter(std::string_view text, std::string_view key) {
  std::string pat(key);
  pat += '=';
  size_t at = text.find(pat);
  if (at == std::string_view::npos) return -1;
  at += pat.size();
  int64_t v = 0;
  bool any = false;
  while (at < text.size() && text[at] >= '0' && text[at] <= '9') {
    v = v * 10 + (text[at++] - '0');
    any = true;
  }
  return any ? v : -1;
}

}  // namespace sb
