// HTTP/1.1 conformance suite for the epoll event loop: keep-alive reuse,
// pipelining order, read-stall and idle reaping, oversized-header
// rejection, partial writes under socket-buffer pressure, and the
// graceful-drain promise that an in-flight keep-alive response is
// delivered before the connection closes, and that no response waits for
// the client's delayed ACK. Multi-threaded end to end
// (event loop + ingest workers), hence the `concurrency` ctest label.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "server/http.h"
#include "server/server.h"

namespace dtdevolve::server {
namespace {

const char* kMailDtd = R"(
  <!ELEMENT mail (envelope, body)>
  <!ELEMENT envelope (from, to, subject)>
  <!ELEMENT from (#PCDATA)>
  <!ELEMENT to (#PCDATA)>
  <!ELEMENT subject (#PCDATA)>
  <!ELEMENT body (#PCDATA)>
)";

const char* kConformingDoc =
    "<mail><envelope><from>a</from><to>b</to><subject>s</subject>"
    "</envelope><body>hello</body></mail>";

core::SourceOptions DefaultSource() {
  core::SourceOptions options;
  options.min_documents_before_check = 1;
  return options;
}

ServerOptions EphemeralOptions() {
  ServerOptions options;
  options.port = 0;
  options.jobs = 2;
  return options;
}

int ConnectTo(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << "send: " << std::strerror(errno);
    sent += static_cast<size_t>(n);
  }
}

std::string GetRequest(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
}

std::string PostRequest(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// Blocks until the peer half-closes (clean EOF) or `max_ms` passes.
bool PeerClosedWithin(int fd, int max_ms) {
  timeval tv = {};
  tv.tv_sec = max_ms / 1000;
  tv.tv_usec = (max_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char ch = 0;
  while (true) {
    const ssize_t n = ::recv(fd, &ch, 1, 0);
    if (n == 0) return true;  // EOF: server closed
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;  // timeout (EAGAIN) or error
    // Unexpected payload after the final response is a framing bug.
    ADD_FAILURE() << "unexpected byte after response: " << ch;
    return false;
  }
}

/// One complete response off a (possibly reused) connection, framed by
/// Content-Length. Pipelined responses can land in one TCP segment, so
/// bytes past the first response stay in `*buffer` for the next call —
/// `ReadHttpResponse` would discard them with its private buffer.
HttpClientResponse ReadOne(int fd, std::string* buffer) {
  while (true) {
    const size_t header_end = buffer->find("\r\n\r\n");
    if (header_end != std::string::npos) {
      const std::string head = buffer->substr(0, header_end);
      size_t content_length = 0;
      const size_t length_at = head.find("Content-Length: ");
      if (length_at != std::string::npos) {
        content_length =
            std::strtoull(head.c_str() + length_at + 16, nullptr, 10);
      }
      const size_t total = header_end + 4 + content_length;
      if (buffer->size() >= total) {
        HttpClientResponse response;
        response.status = std::atoi(buffer->c_str() + 9);
        size_t line = head.find("\r\n");
        while (line != std::string::npos && line + 2 < head.size()) {
          const size_t next = head.find("\r\n", line + 2);
          const std::string header_line =
              head.substr(line + 2, next == std::string::npos
                                        ? std::string::npos
                                        : next - line - 2);
          const size_t colon = header_line.find(": ");
          if (colon != std::string::npos) {
            std::string name = header_line.substr(0, colon);
            for (char& ch : name) ch = static_cast<char>(std::tolower(ch));
            response.headers.emplace_back(name, header_line.substr(colon + 2));
          }
          line = next;
        }
        response.body = buffer->substr(header_end + 4, content_length);
        buffer->erase(0, total);
        return response;
      }
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ADD_FAILURE() << (n == 0 ? "connection closed before response"
                               : std::strerror(errno));
      return {};
    }
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

TEST(HttpConformanceTest, KeepAliveServesManyRequestsOnOneConnection) {
  IngestServer server(DefaultSource(), EphemeralOptions());
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());
  std::string buf;

  const int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  for (int i = 0; i < 3; ++i) {
    SendAll(fd, GetRequest("/healthz"));
    HttpClientResponse response = ReadOne(fd, &buf);
    EXPECT_EQ(response.status, 200) << i;
    EXPECT_EQ(response.body, "ok\n") << i;
  }
  // Ingest works over the same reused connection too.
  SendAll(fd, PostRequest("/ingest?wait=1", kConformingDoc));
  EXPECT_EQ(ReadOne(fd, &buf).status, 200);

  // The accept counter proves reuse: every request above shared ONE
  // accepted connection, so the scrape (same socket again) reads 1.
  SendAll(fd, GetRequest("/metrics"));
  HttpClientResponse metrics = ReadOne(fd, &buf);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("\ndtdevolve_http_connections_total 1\n"),
            std::string::npos)
      << metrics.body;

  ::close(fd);
  server.Shutdown();
  server.Wait();
}

TEST(HttpConformanceTest, ConnectionCloseAndHttp10AreHonored) {
  IngestServer server(DefaultSource(), EphemeralOptions());
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());
  std::string buf;

  // Explicit Connection: close on HTTP/1.1 — answered, then closed.
  int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  SendAll(fd, "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  HttpClientResponse closed = ReadOne(fd, &buf);
  EXPECT_EQ(closed.status, 200);
  const std::string* connection = closed.FindHeader("connection");
  ASSERT_NE(connection, nullptr);
  EXPECT_EQ(*connection, "close");
  EXPECT_TRUE(PeerClosedWithin(fd, 2000));
  ::close(fd);

  // HTTP/1.0 defaults to close.
  fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  SendAll(fd, "GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n");
  EXPECT_EQ(ReadOne(fd, &buf).status, 200);
  EXPECT_TRUE(PeerClosedWithin(fd, 2000));
  ::close(fd);

  // HTTP/1.0 with an explicit keep-alive stays open for a second round.
  fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  SendAll(fd, "GET /healthz HTTP/1.0\r\nHost: t\r\nConnection: keep-alive\r\n\r\n");
  EXPECT_EQ(ReadOne(fd, &buf).status, 200);
  SendAll(fd, GetRequest("/healthz"));
  EXPECT_EQ(ReadOne(fd, &buf).status, 200);
  ::close(fd);

  server.Shutdown();
  server.Wait();
}

TEST(HttpConformanceTest, PipelinedRequestsAreAnsweredInOrder) {
  IngestServer server(DefaultSource(), EphemeralOptions());
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());
  std::string buf;

  const int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);

  // One burst: a synchronous ingest (parks the connection on the worker),
  // plain GETs queued behind it, a second ingest, and a 404 — responses
  // must come back strictly in request order.
  SendAll(fd, PostRequest("/ingest?wait=1", kConformingDoc) +
                  GetRequest("/healthz") + GetRequest("/stats") +
                  PostRequest("/ingest?wait=1", kConformingDoc) +
                  GetRequest("/no-such-route"));

  HttpClientResponse first = ReadOne(fd, &buf);
  EXPECT_EQ(first.status, 200);
  EXPECT_NE(first.body.find("\"classified\":true"), std::string::npos)
      << first.body;

  HttpClientResponse second = ReadOne(fd, &buf);
  EXPECT_EQ(second.status, 200);
  EXPECT_EQ(second.body, "ok\n");

  HttpClientResponse third = ReadOne(fd, &buf);
  EXPECT_EQ(third.status, 200);
  EXPECT_NE(third.body.find("\"documents_processed\""), std::string::npos);

  EXPECT_EQ(ReadOne(fd, &buf).status, 200);
  EXPECT_EQ(ReadOne(fd, &buf).status, 404);

  // A burst spanning several 16 KiB reads, ending in a request whose
  // second half arrives in a later read: every response still comes
  // back, in request order.
  const std::string padded =
      "<mail><envelope><from>a</from><to>b</to><subject>s</subject>"
      "</envelope><body>" +
      std::string(6000, 'x') + "</body></mail>";
  std::string burst;
  for (int i = 0; i < 10; ++i) {
    burst += PostRequest("/ingest", padded);
    burst += GetRequest(i % 2 == 0 ? "/healthz" : "/no-such-route");
  }
  ASSERT_GT(burst.size(), 3u * 16384u);
  const std::string split = PostRequest("/ingest?wait=1", kConformingDoc);
  SendAll(fd, burst + split.substr(0, split.size() / 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  SendAll(fd, split.substr(split.size() / 2));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ReadOne(fd, &buf).status, 202) << i;
    EXPECT_EQ(ReadOne(fd, &buf).status, i % 2 == 0 ? 200 : 404) << i;
  }
  HttpClientResponse last = ReadOne(fd, &buf);
  EXPECT_EQ(last.status, 200);
  EXPECT_NE(last.body.find("\"classified\":true"), std::string::npos)
      << last.body;

  ::close(fd);
  server.Shutdown();
  server.Wait();
  EXPECT_EQ(server.source().documents_processed(), 13u);
}

TEST(HttpConformanceTest, SlowLorisIsReapedByTheReadDeadline) {
  ServerOptions options = EphemeralOptions();
  options.recv_timeout_seconds = 1;
  IngestServer server(DefaultSource(), options);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());
  std::string buf;

  // A request that trickles in and then stalls mid-header holds buffered
  // input, so the read-stall deadline (not the idle one) applies.
  const int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  SendAll(fd, "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Slow: ");
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(PeerClosedWithin(fd, 10000));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(8));
  ::close(fd);

  // The reap is visible in the timeout counter.
  const int probe = ConnectTo(server.port());
  ASSERT_GE(probe, 0);
  SendAll(probe, GetRequest("/metrics"));
  HttpClientResponse metrics = ReadOne(probe, &buf);
  EXPECT_NE(
      metrics.body.find("\ndtdevolve_http_connection_timeouts_total 1\n"),
      std::string::npos)
      << metrics.body;
  ::close(probe);

  server.Shutdown();
  server.Wait();
}

TEST(HttpConformanceTest, IdleKeepAliveConnectionTimesOut) {
  ServerOptions options = EphemeralOptions();
  options.idle_timeout_seconds = 1;
  IngestServer server(DefaultSource(), options);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());
  std::string buf;

  const int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  SendAll(fd, GetRequest("/healthz"));
  EXPECT_EQ(ReadOne(fd, &buf).status, 200);
  // The connection is now idle (no buffered input): the idle deadline
  // closes it without a response.
  EXPECT_TRUE(PeerClosedWithin(fd, 10000));
  ::close(fd);

  server.Shutdown();
  server.Wait();
}

TEST(HttpConformanceTest, OversizedRequestLineAndHeadersAnswer431) {
  IngestServer server(DefaultSource(), EphemeralOptions());
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());
  std::string buf;

  // A 20 KB request line blows the 16 KB header-block cap before the
  // blank line ever arrives; the server must answer early, not buffer on.
  int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  SendAll(fd, "GET /" + std::string(20 * 1024, 'a') + " HTTP/1.1\r\n");
  HttpClientResponse oversized_line = ReadOne(fd, &buf);
  EXPECT_EQ(oversized_line.status, 431);
  EXPECT_TRUE(PeerClosedWithin(fd, 2000));
  ::close(fd);

  // Same cap via one huge header value in an otherwise-complete request.
  fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  SendAll(fd, "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Big: " +
                  std::string(20 * 1024, 'b') + "\r\n\r\n");
  EXPECT_EQ(ReadOne(fd, &buf).status, 431);
  EXPECT_TRUE(PeerClosedWithin(fd, 2000));
  ::close(fd);

  // A malformed request line is a plain 400, then close.
  fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  SendAll(fd, "NONSENSE\r\n\r\n");
  EXPECT_EQ(ReadOne(fd, &buf).status, 400);
  EXPECT_TRUE(PeerClosedWithin(fd, 2000));
  ::close(fd);

  server.Shutdown();
  server.Wait();
}

TEST(HttpConformanceTest, LargeResponseSurvivesPartialWrites) {
  // A DTD big enough that its text cannot fit any socket buffer: the
  // server's send hits EAGAIN and must finish via writability events.
  std::string big_dtd = "<!ELEMENT big (";
  for (int i = 0; i < 2000; ++i) {
    if (i != 0) big_dtd += ", ";
    big_dtd += "field" + std::to_string(i);
  }
  big_dtd += ")>\n";
  for (int i = 0; i < 2000; ++i) {
    big_dtd += "<!ELEMENT field" + std::to_string(i) + " (#PCDATA)>\n";
  }

  IngestServer server(DefaultSource(), EphemeralOptions());
  ASSERT_TRUE(server.AddDtdText("big", big_dtd).ok());
  ASSERT_TRUE(server.Start().ok());
  std::string buf;

  // Reference copy over an unconstrained connection.
  const int plain = ConnectTo(server.port());
  ASSERT_GE(plain, 0);
  SendAll(plain, GetRequest("/dtds/big"));
  HttpClientResponse reference = ReadOne(plain, &buf);
  ASSERT_EQ(reference.status, 200);
  ASSERT_GT(reference.body.size(), 32u * 1024);
  ::close(plain);

  // Tiny receive buffer + a reader that doesn't drain for a while: the
  // server's first send can only flush a few KB, the rest must wait for
  // EPOLLOUT rounds. The bytes must still arrive complete and in order.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 1024;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)),
            0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  SendAll(fd, GetRequest("/dtds/big"));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  HttpClientResponse throttled = ReadOne(fd, &buf);
  EXPECT_EQ(throttled.status, 200);
  EXPECT_EQ(throttled.body, reference.body);

  // The connection survived the stall: it serves another request.
  SendAll(fd, GetRequest("/healthz"));
  EXPECT_EQ(ReadOne(fd, &buf).status, 200);
  ::close(fd);

  server.Shutdown();
  server.Wait();
}

TEST(HttpConformanceTest, ResponsesDoNotWaitForTheClientsDelayedAck) {
  // Nagle's algorithm holds a short segment while an earlier short
  // segment is unacknowledged, and a client with nothing to send ACKs
  // late (40 ms on Linux). A keep-alive client that pipelines a request
  // answered at once with one answered later gets the first response as
  // a short segment; without TCP_NODELAY the second waits for the ACK.
  IngestServer server(DefaultSource(), EphemeralOptions());
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());
  const int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  std::string buf;
  // Request/response ping-pong takes the client socket out of its
  // start-up quick-ACK mode, as on any long-lived connection.
  for (int i = 0; i < 20; ++i) {
    SendAll(fd, GetRequest("/healthz"));
    ASSERT_EQ(ReadOne(fd, &buf).status, 200);
  }

  std::vector<double> elapsed_ms;
  for (int round = 0; round < 10; ++round) {
    server.PauseIngest();
    SendAll(fd, GetRequest("/healthz") +
                    PostRequest("/ingest?wait=1", kConformingDoc));
    ASSERT_EQ(ReadOne(fd, &buf).status, 200);
    const auto start = std::chrono::steady_clock::now();
    server.ResumeIngest();
    ASSERT_EQ(ReadOne(fd, &buf).status, 200);
    elapsed_ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count());
  }
  ::close(fd);
  // The median, so one scheduling hiccup on a loaded machine cannot fail
  // the test; a delayed-ACK stall hits every round.
  std::sort(elapsed_ms.begin(), elapsed_ms.end());
  EXPECT_LT(elapsed_ms[elapsed_ms.size() / 2], 20.0);

  server.Shutdown();
  server.Wait();
}

TEST(HttpConformanceTest, GracefulDrainDeliversInFlightKeepAliveResponse) {
  IngestServer server(DefaultSource(), EphemeralOptions());
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());
  std::string buf;

  // Park a synchronous ingest on the worker queue; the keep-alive
  // connection is now waiting on an apply when the drain starts.
  server.PauseIngest();
  const int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  SendAll(fd, PostRequest("/ingest?wait=1", kConformingDoc));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  server.Shutdown();
  std::thread waiter([&] { server.Wait(); });

  // The drain must complete the in-flight request — respond 200, then
  // close — not abandon the connection with the response unsent.
  HttpClientResponse response = ReadOne(fd, &buf);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"classified\":true"), std::string::npos)
      << response.body;
  EXPECT_TRUE(PeerClosedWithin(fd, 5000));
  ::close(fd);

  waiter.join();
  EXPECT_EQ(server.source().documents_processed(), 1u);
}

TEST(HttpConformanceTest, ConnectionCapAnswers503AndResumesAfterClose) {
  ServerOptions options = EphemeralOptions();
  options.max_connections = 2;
  IngestServer server(DefaultSource(), options);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  // Fill both slots; a request on each proves the connection joined the
  // event loop (connect() alone only proves the kernel backlog).
  const int first = ConnectTo(server.port());
  const int second = ConnectTo(server.port());
  ASSERT_GE(first, 0);
  ASSERT_GE(second, 0);
  std::string buf_first;
  std::string buf_second;
  SendAll(first, GetRequest("/healthz"));
  SendAll(second, GetRequest("/healthz"));
  EXPECT_EQ(ReadOne(first, &buf_first).status, 200);
  EXPECT_EQ(ReadOne(second, &buf_second).status, 200);

  // Over the cap: the 503 arrives unsolicited (no request sent) and the
  // socket is closed — it never enters the loop.
  const int over = ConnectTo(server.port());
  ASSERT_GE(over, 0);
  std::string buf_over;
  HttpClientResponse rejected = ReadOne(over, &buf_over);
  EXPECT_EQ(rejected.status, 503);
  EXPECT_NE(rejected.FindHeader("retry-after"), nullptr);
  EXPECT_TRUE(PeerClosedWithin(over, 2000));
  ::close(over);

  // Established clients keep working at the cap.
  SendAll(first, GetRequest("/healthz"));
  EXPECT_EQ(ReadOne(first, &buf_first).status, 200);

  // Free a slot; accepting must resume (give the loop a few turns to
  // observe the close).
  ::close(second);
  int resumed_status = 0;
  for (int attempt = 0; attempt < 100 && resumed_status != 200; ++attempt) {
    const int fresh = ConnectTo(server.port());
    ASSERT_GE(fresh, 0);
    std::string buf_fresh;
    SendAll(fresh, GetRequest("/healthz"));
    timeval tv = {};
    tv.tv_sec = 2;
    ::setsockopt(fresh, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char probe[512];
    const ssize_t n = ::recv(fresh, probe, sizeof(probe), 0);
    if (n > 9) resumed_status = std::atoi(probe + 9);
    ::close(fresh);
    if (resumed_status != 200) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_EQ(resumed_status, 200);

  ::close(first);
  server.Shutdown();
  server.Wait();
}

TEST(HttpConformanceTest, PipelineDepthCapAnswers503ForTheOverflowRequest) {
  ServerOptions options = EphemeralOptions();
  options.max_pipeline_depth = 2;
  IngestServer server(DefaultSource(), options);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  std::string buf;

  // Four requests stuffed into one burst: two are served, the third
  // answers 503 + Retry-After and the connection closes after the
  // flush — the fourth is never parsed.
  SendAll(fd, GetRequest("/healthz") + GetRequest("/healthz") +
                  GetRequest("/healthz") + GetRequest("/healthz"));
  EXPECT_EQ(ReadOne(fd, &buf).status, 200);
  EXPECT_EQ(ReadOne(fd, &buf).status, 200);
  HttpClientResponse overflow = ReadOne(fd, &buf);
  EXPECT_EQ(overflow.status, 503);
  EXPECT_NE(overflow.FindHeader("retry-after"), nullptr);
  EXPECT_TRUE(PeerClosedWithin(fd, 2000));
  ::close(fd);

  // A polite client on a fresh connection is unaffected.
  const int polite = ConnectTo(server.port());
  ASSERT_GE(polite, 0);
  std::string polite_buf;
  SendAll(polite, GetRequest("/healthz"));
  EXPECT_EQ(ReadOne(polite, &polite_buf).status, 200);
  ::close(polite);

  server.Shutdown();
  server.Wait();
}

}  // namespace
}  // namespace dtdevolve::server
