#include "wire.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace wirebench {

namespace {

// A reply slower than this is a failed request, not a slow one.
constexpr int kReadTimeoutMs = 30000;

}  // namespace

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          std::string* error) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<std::string> argv_storage = {binary};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(out[0]);
    ::close(out[1]);
    return false;
  }
  if (pid == 0) {
    // The server must not outlive a benchmark that dies.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out[1], STDOUT_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  pid_ = pid;
  stdout_fd_ = out[0];
  // Wait for the announcement line.
  std::string line;
  char c = 0;
  for (;;) {
    struct pollfd pfd = {stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, kReadTimeoutMs) <= 0) {
      *error = "server did not announce its socket";
      Stop();
      return false;
    }
    const ssize_t n = ::read(stdout_fd_, &c, 1);
    if (n <= 0) {
      *error = "server exited before listening";
      Stop();
      return false;
    }
    if (c == '\n') {
      if (line.rfind("listening unix=", 0) == 0) return true;
      line.clear();
    } else {
      line += c;
    }
  }
}

double ServerProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

bool ServerProcess::Stop() {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const bool reaped = ::waitpid(pid_, &status, 0) == pid_;
  pid_ = -1;
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  return reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::Connect(const std::string& path) {
  struct sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  // The read timeout lives on the socket, so a reply costs one recv and
  // no poll: fewer client system calls in every measured round trip.
  struct timeval timeout = {kReadTimeoutMs / 1000, (kReadTimeoutMs % 1000) * 1000};
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)) != 0) {
    return false;
  }
  return ::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)) == 0;
}

bool Conn::Send(const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool Conn::ReadLine(std::string* line) {
  for (;;) {
    const size_t newline = buffer_.find('\n', start_);
    if (newline != std::string::npos) {
      line->assign(buffer_, start_, newline - start_);
      start_ = newline + 1;
      if (start_ == buffer_.size()) {
        buffer_.clear();
        start_ = 0;
      }
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;  // EOF, error, or EAGAIN on timeout
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

bool ParseVerdict(const std::string& line, bool* entailed,
                  long long* revision) {
  if (line.rfind("ENTAILED", 0) == 0) {
    *entailed = true;
  } else if (line.rfind("NOT ENTAILED", 0) == 0) {
    *entailed = false;
  } else {
    return false;
  }
  if (revision != nullptr) {
    *revision = -1;
    const size_t handle = line.find(", db: ");
    const size_t at = line.find('@', handle);
    if (handle != std::string::npos && at != std::string::npos) {
      *revision = std::atoll(line.c_str() + at + 1);
    }
  }
  return true;
}

}  // namespace wirebench
