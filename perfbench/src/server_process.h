// The server under test as a child process (`dtdevolve serve`), plus the
// blocking HTTP client the benchmark uses for everything that is not the
// open-loop ingest stream: health polls, state reads, /metrics scrapes.

#ifndef PERFBENCH_SERVER_PROCESS_H_
#define PERFBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One `dtdevolve serve` child. The destructor kills and reaps it, so no
/// exit path of the benchmark leaves a server behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `binary args...` with stdout and stderr appended to
  /// `log_path`. The child dies with the benchmark (PR_SET_PDEATHSIG).
  bool Spawn(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path);

  /// SIGKILL and reap; a no-op when not running.
  void Kill();

  /// True once the child has exited on its own (reaped here).
  bool Exited();

  /// CPU seconds the child's threads have run so far.
  double CpuSeconds() const;
  /// Peak and current resident set size in MiB (/proc/<pid>/status).
  double VmHwmMb() const { return StatusMb("VmHWM:"); }
  double VmRssMb() const { return StatusMb("VmRSS:"); }

 private:
  double StatusMb(const char* key) const;

  pid_t pid_ = -1;
};

/// A loopback port nothing listens on right now.
uint16_t FreePort();

/// Blocking keep-alive HTTP/1.1 client on 127.0.0.1. Reconnects once
/// when the connection turns out to be closed.
class HttpClient {
 public:
  explicit HttpClient(uint16_t port) : port_(port) {}
  ~HttpClient() { Close(); }

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Sends one request and reads its response. Returns the status code,
  /// or 0 on a transport failure.
  int Request(const std::string& method, const std::string& target,
              const std::string& body, std::string* response_body);
  int Get(const std::string& target, std::string* response_body) {
    return Request("GET", target, "", response_body);
  }

  void Close();

 private:
  bool Connect();
  int RequestOnce(const std::string& request, std::string* response_body);

  uint16_t port_;
  int fd_ = -1;
};

/// Connects a non-blocking TCP socket to 127.0.0.1:`port` (TCP_NODELAY
/// set); -1 on failure.
int ConnectLoopback(uint16_t port, bool non_blocking);

/// Serializes one request with a Content-Length body.
std::string FormatRequest(const std::string& method, const std::string& target,
                          const std::string& body);

/// Polls `GET target` until it answers 200. Returns the seconds waited,
/// or a negative value when `timeout_s` passed or the server exited.
double WaitFor200(ServerProcess& server, uint16_t port,
                  const std::string& target, double timeout_s);

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROCESS_H_
