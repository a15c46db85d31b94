#include "server_process.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "common.h"
#include "server/http.h"

namespace perfbench {

namespace {

/// Starts `argv` with stdout and stderr on `log_fd`; the child gets
/// SIGKILL when the benchmark dies. vfork: the child only sets its death
/// signal, redirects its output and execs, so nothing of the
/// benchmark's own memory (the generated workload, tens of MB) is
/// copied; with fork that copy was part of every spawn's time, setup_s
/// included. Kept free of C++ objects, which a vfork child could
/// clobber.
pid_t VforkExec(char* const* argv, int log_fd) {
  const pid_t parent = getpid();
  const pid_t pid = vfork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execv(argv[0], argv);
    _exit(127);
  }
  return pid;
}

}  // namespace

bool ServerProcess::Spawn(const std::string& binary,
                          const std::vector<std::string>& args,
                          const std::string& log_path) {
  Kill();
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) return false;
  const pid_t pid = VforkExec(argv.data(), log_fd);
  close(log_fd);
  if (pid < 0) return false;
  pid_ = pid;
  return true;
}

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

bool ServerProcess::Exited() {
  if (pid_ <= 0) return true;
  int status = 0;
  if (waitpid(pid_, &status, WNOHANG) == pid_) {
    pid_ = -1;
    return true;
  }
  return false;
}

double ServerProcess::CpuSeconds() const {
  if (pid_ <= 0) return 0.0;
  // utime and stime of the whole process (fields 14 and 15 of
  // /proc/<pid>/stat, in clock ticks). They include threads that have
  // already exited, such as the temporary pools that re-classify the
  // repository after an evolution or an accept; a sum over the live
  // threads of /proc/<pid>/task would miss those.
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The command name (field 2) is parenthesised and may hold spaces;
  // field 3 starts after the last ')'.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 1));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int index = 3; index < 14; ++index) fields >> field;
  if (!(fields >> utime >> stime)) return 0.0;
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ServerProcess::StatusMb(const char* key) const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + std::strlen(key), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint16_t FreePort() {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  uint16_t port = 0;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  close(fd);
  return port;
}

int ConnectLoopback(uint16_t port, bool non_blocking) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (non_blocking) fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

std::string FormatRequest(const std::string& method, const std::string& target,
                          const std::string& body) {
  std::string request;
  request.reserve(96 + body.size());
  request += method;
  request += ' ';
  request += target;
  request += " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: ";
  request += std::to_string(body.size());
  request += "\r\n\r\n";
  request += body;
  return request;
}

bool HttpClient::Connect() {
  Close();
  fd_ = ConnectLoopback(port_, /*non_blocking=*/false);
  if (fd_ < 0) return false;
  timeval timeout{};
  timeout.tv_sec = 60;
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  return true;
}

void HttpClient::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
}

int HttpClient::Request(const std::string& method, const std::string& target,
                        const std::string& body, std::string* response_body) {
  const std::string request = FormatRequest(method, target, body);
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0 && !Connect()) return 0;
    const int status = RequestOnce(request, response_body);
    if (status != 0) return status;
    Close();
  }
  return 0;
}

int HttpClient::RequestOnce(const std::string& request,
                            std::string* response_body) {
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = send(fd_, request.data() + sent, request.size() - sent,
                           MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return 0;
    }
    sent += static_cast<size_t>(n);
  }
  auto response = dtdevolve::server::ReadHttpResponse(fd_);
  if (!response.ok()) return 0;
  if (response_body != nullptr) *response_body = std::move(response->body);
  return response->status;
}

double WaitFor200(ServerProcess& server, uint16_t port,
                  const std::string& target, double timeout_s) {
  const double start = NowSeconds();
  while (NowSeconds() - start < timeout_s) {
    if (server.Exited()) return -1.0;
    HttpClient client(port);
    std::string body;
    if (client.Get(target, &body) == 200) return NowSeconds() - start;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return -1.0;
}

}  // namespace perfbench
