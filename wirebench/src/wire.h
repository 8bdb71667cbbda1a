// The client side of the wire: a spawned iodb_serve process and a
// line-oriented Unix-socket connection to it.

#ifndef WIREBENCH_WIRE_H_
#define WIREBENCH_WIRE_H_

#include <sys/types.h>

#include <string>
#include <vector>

namespace wirebench {

/// An iodb_serve child process. The destructor kills and reaps a server
/// that was not stopped, so no run leaves one behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `binary args...` and waits for its "listening unix=" line.
  /// On failure the child is reaped and `error` says why.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             std::string* error);

  /// The server's peak resident set (VmHWM), in MiB; 0 if unreadable.
  double PeakRssMb() const;

  /// SIGTERM (a clean drain) and wait; true if it exited with code 0.
  bool Stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

/// A blocking line connection. Reads time out, so a wedged server fails
/// the request instead of hanging the run.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(const std::string& path);
  bool Send(const std::string& data);
  /// Next reply line without its newline; false on EOF, error or timeout.
  bool ReadLine(std::string* line);

 private:
  int fd_ = -1;
  std::string buffer_;
  size_t start_ = 0;
};

/// Parses an EVAL verdict line ("ENTAILED  [...]" / "NOT ENTAILED  [...]");
/// false for anything else (an ERR line). With `revision`, also reads the
/// "db: <uid>@<revision>" handle of an --identity reply (-1 if absent).
bool ParseVerdict(const std::string& line, bool* entailed,
                  long long* revision = nullptr);

}  // namespace wirebench

#endif  // WIREBENCH_WIRE_H_
