#include "loadgen.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <limits>

#include "common.h"
#include "server_process.h"

namespace perfbench {

namespace {

/// Consecutive failed steps that end the climb; one or two can be a
/// passing stall rather than saturation.
constexpr int kFailedStepsToStop = 3;
/// Rate of the read stream (GET /stats and GET /dtds/{name}, alternating
/// over the tenants) on its own connection, beside the writes.
constexpr double kReadsPerSecond = 1000;
/// A step is judged this many ack limits after its end at the latest.
constexpr double kGraceLimits = 4.0;
/// A pending request older than this many limits (and at least
/// kHardStopSeconds) stops the ladder outright.
constexpr double kHardStopLimits = 20.0;
constexpr double kHardStopSeconds = 1.0;
/// Unanswered requests after the schedule ends fail after this long.
constexpr double kDrainTimeoutSeconds = 60.0;
/// Latency recorded for a request that failed or was never answered, so
/// it counts as missing any limit.
constexpr double kUnanswered = 1e9;

/// A step's backlog grew when the requests still unanswered at its end
/// exceed those at its start by more than this share of the step's
/// requests (and by at least kBacklogGrowthMin).
constexpr double kBacklogGrowthShare = 0.1;
constexpr size_t kBacklogGrowthMin = 8;

bool BacklogGrew(size_t at_start, size_t at_end, size_t step_requests) {
  const double growth =
      static_cast<double>(at_end) - static_cast<double>(at_start);
  return growth > std::max<double>(kBacklogGrowthMin,
                                   kBacklogGrowthShare * step_requests);
}

enum class Kind { kIngest, kRead, kInduce, kCandidates, kAccept };

struct Inflight {
  Kind kind = Kind::kIngest;
  size_t record = 0;  // index into ingests / reads
  size_t doc = 0;
  double start = 0.0;
};

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  size_t in_off = 0;
  std::deque<Inflight> inflight;
  bool broken = false;

  ~Conn() {
    if (fd >= 0) close(fd);
  }
};

enum class Mode { kSending, kDraining, kAdmin, kDone };

struct TenantState {
  const TenantStream* stream = nullptr;
  std::string ingest_target;
  size_t next_doc = 0;
  double next_due = 0.0;
  Mode mode = Mode::kSending;
  size_t next_point = 0;
  size_t round_accepts = 0;
  Conn conn;
};

/// Cuts one complete response off the front of `conn.in`. Returns false
/// when the buffer does not hold a whole response yet.
bool PopResponse(Conn& conn, int* status, std::string* body) {
  const size_t header_end = conn.in.find("\r\n\r\n", conn.in_off);
  if (header_end == std::string::npos) return false;
  size_t content_length = 0;
  for (size_t line = conn.in.find("\r\n", conn.in_off);
       line != std::string::npos && line < header_end;
       line = conn.in.find("\r\n", line + 2)) {
    const size_t name_end = conn.in.find(':', line + 2);
    if (name_end == std::string::npos || name_end > header_end) continue;
    std::string name = conn.in.substr(line + 2, name_end - line - 2);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    if (name == "content-length") {
      content_length =
          std::strtoull(conn.in.c_str() + name_end + 1, nullptr, 10);
    }
  }
  if (conn.in.size() < header_end + 4 + content_length) return false;
  *status = std::atoi(conn.in.c_str() + conn.in_off + 9);
  body->assign(conn.in, header_end + 4, content_length);
  conn.in_off = header_end + 4 + content_length;
  if (conn.in_off * 2 > conn.in.size()) {
    conn.in.erase(0, conn.in_off);
    conn.in_off = 0;
  }
  return true;
}

void Flush(Conn& conn, size_t* transport_errors) {
  while (!conn.broken && conn.out_off < conn.out.size()) {
    const ssize_t n = send(conn.fd, conn.out.data() + conn.out_off,
                           conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    conn.broken = true;
    ++*transport_errors;
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
}

/// Reads what is available; false when the peer closed or failed.
bool Receive(Conn& conn) {
  char buffer[1 << 16];
  while (true) {
    const ssize_t n = recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn.in.append(buffer, static_cast<size_t>(n));
      // ACK at once (the flag does not stick): the server sets no
      // TCP_NODELAY, so with delayed ACKs a response split over two
      // segments waits for the next request's piggybacked ACK, and the
      // measured latency would be the tenant's inter-arrival gap rather
      // than the server's work.
      const int one = 1;
      setsockopt(conn.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
}

}  // namespace

LoadResult RunOpenLoop(uint16_t port, const WorkloadSpec& spec,
                       const LadderPlan& plan, const StepHook& hook) {
  LoadResult result;
  const size_t steps = plan.rates.size();
  const size_t tenants = spec.tenants.size();
  double plan_end = 0.0;
  for (size_t k = 0; k < steps; ++k) {
    result.step_start.push_back(plan_end);
    plan_end += plan.seconds[k];
  }
  auto step_of = [&](double t) -> size_t {
    size_t k = 0;
    while (k < steps && t >= result.step_start[k] + plan.seconds[k]) ++k;
    return k;
  };
  const double limit_s = spec.ack_limit_ms / 1000.0;

  std::vector<TenantState> state(tenants);
  result.events.resize(tenants);
  for (size_t t = 0; t < tenants; ++t) {
    state[t].stream = &spec.tenants[t];
    state[t].ingest_target = "/ingest/" + spec.tenants[t].name + "?wait=1";
    state[t].next_due = static_cast<double>(t) / plan.rates[0];
    state[t].conn.fd = ConnectLoopback(port, /*non_blocking=*/true);
    if (state[t].conn.fd < 0) {
      state[t].conn.broken = true;
      state[t].mode = Mode::kDone;
      ++result.transport_errors;
    }
  }
  Conn reader;
  reader.fd = ConnectLoopback(port, /*non_blocking=*/true);
  if (reader.fd < 0) {
    reader.broken = true;
    ++result.transport_errors;
  }
  double next_read_due = 0.5 / kReadsPerSecond;
  size_t reads_sent = 0;

  size_t acked = 0;
  size_t hooked = 0;
  // Online per-step tallies for the stop rule.
  std::vector<size_t> sent(steps, 0), answered(steps, 0), over_limit(steps, 0);
  std::vector<size_t> boundary_backlog(steps + 1, 0);
  size_t boundaries = 0;
  size_t outstanding = 0;
  size_t judged = 0;
  int failed_in_row = 0;
  double end_time = plan_end;
  const double origin = NowSeconds();
  std::vector<pollfd> fds;
  std::string body;

  auto send_admin = [&](TenantState& ts, Kind kind, const std::string& method,
                        const std::string& target, double now) {
    ts.conn.out += FormatRequest(method, target, "");
    Inflight item;
    item.kind = kind;
    item.start = now;
    ts.conn.inflight.push_back(item);
    ++result.admin_requests;
  };
  auto end_round = [&](size_t t) {
    TenantState& ts = state[t];
    result.events[t].push_back(
        {true, ts.stream->induce_points[ts.next_point], ts.round_accepts});
    ++ts.next_point;
    ts.round_accepts = 0;
    ts.mode = Mode::kSending;
  };
  auto induce_target = [&](size_t t) {
    return "/dtds/induce?tenant=" + spec.tenants[t].name;
  };

  while (true) {
    const double now = NowSeconds() - origin;
    const bool sending = now < end_time;
    const size_t current = std::min(step_of(now), steps);
    while (boundaries < current) boundary_backlog[++boundaries] = outstanding;
    while (hooked < current && hooked + 1 < steps && sending) {
      ++hooked;
      if (hook) hook(static_cast<int>(hooked), acked);
    }

    // Stop the climb after kFailedStepsToStop consecutive failed steps,
    // each judged once all its requests are answered or a grace period
    // passed; stop at once when a request has waited far beyond any
    // limit.
    while (judged < current && judged < steps) {
      const double judge_at = result.step_start[judged] +
                              plan.seconds[judged] + kGraceLimits * limit_s;
      if (answered[judged] < sent[judged] && now < judge_at) break;
      const size_t missed = over_limit[judged] + sent[judged] - answered[judged];
      const bool failed =
          sent[judged] == 0 || missed * 100 > sent[judged] ||
          BacklogGrew(boundary_backlog[judged], boundary_backlog[judged + 1],
                      sent[judged]);
      failed_in_row = failed ? failed_in_row + 1 : 0;
      ++judged;
      if (failed_in_row >= kFailedStepsToStop && now < end_time) {
        end_time = now;
        result.cut_step = static_cast<int>(current);
      }
    }
    if (now < end_time) {
      double oldest = now;
      for (const TenantState& ts : state) {
        if (ts.mode != Mode::kSending) continue;
        for (const Inflight& item : ts.conn.inflight) {
          if (item.kind == Kind::kIngest) {
            oldest = std::min(oldest, result.ingests[item.record].due);
            break;
          }
        }
        if (ts.next_doc < ts.stream->docs.size() && ts.next_due <= now) {
          oldest = std::min(oldest, ts.next_due);
        }
      }
      if (now - oldest > std::max(kHardStopSeconds, kHardStopLimits * limit_s)) {
        end_time = now;
        result.cut_step = static_cast<int>(current);
      }
    }

    if (now < end_time) {
      for (size_t t = 0; t < tenants; ++t) {
        TenantState& ts = state[t];
        while (ts.mode == Mode::kSending &&
               ts.next_doc < ts.stream->docs.size() && ts.next_due <= now &&
               ts.next_due < end_time) {
          if (ts.next_point < ts.stream->induce_points.size() &&
              ts.stream->induce_points[ts.next_point] == ts.next_doc) {
            ts.mode = Mode::kDraining;
            break;
          }
          IngestRecord record;
          record.tenant = static_cast<int>(t);
          record.step = static_cast<int>(step_of(ts.next_due));
          record.due = ts.next_due;
          record.sent = now;
          Inflight item;
          item.kind = Kind::kIngest;
          item.record = result.ingests.size();
          item.doc = ts.next_doc;
          result.ingests.push_back(record);
          if (static_cast<size_t>(record.step) < steps) ++sent[record.step];
          ++outstanding;
          ts.conn.out += FormatRequest("POST", ts.ingest_target,
                                       ts.stream->docs[ts.next_doc]);
          ts.conn.inflight.push_back(item);
          ++ts.next_doc;
          const size_t k = step_of(ts.next_due);
          ts.next_due = k < steps
                            ? ts.next_due + static_cast<double>(tenants) /
                                                plan.rates[k]
                            : std::numeric_limits<double>::infinity();
        }
      }
      while (!reader.broken && next_read_due <= now) {
        const size_t t = reads_sent % tenants;
        const std::string& tenant = spec.tenants[t].name;
        const std::string target =
            (reads_sent / tenants) % 2 == 0
                ? "/stats?tenant=" + tenant
                : "/dtds/" + spec.tenants[t].seeds.front().name +
                      "?tenant=" + tenant;
        ReadRecord record;
        record.step = static_cast<int>(step_of(next_read_due));
        record.due = next_read_due;
        record.sent = now;
        Inflight item;
        item.kind = Kind::kRead;
        item.record = result.reads.size();
        result.reads.push_back(record);
        reader.out += FormatRequest("GET", target, "");
        reader.inflight.push_back(item);
        ++reads_sent;
        next_read_due += 1.0 / kReadsPerSecond;
      }
    }
    for (size_t t = 0; t < tenants; ++t) {
      TenantState& ts = state[t];
      if (ts.mode != Mode::kDraining || !ts.conn.inflight.empty()) continue;
      if (now < end_time && !ts.conn.broken) {
        ts.mode = Mode::kAdmin;
        send_admin(ts, Kind::kInduce, "POST", induce_target(t), now);
      } else {
        ts.mode = Mode::kDone;
      }
    }

    for (TenantState& ts : state) Flush(ts.conn, &result.transport_errors);
    Flush(reader, &result.transport_errors);

    bool idle = reader.inflight.empty() || reader.broken;
    for (const TenantState& ts : state) {
      idle = idle && (ts.conn.inflight.empty() || ts.conn.broken) &&
             ts.mode != Mode::kAdmin;
    }
    if (now >= end_time && idle) break;
    if (now >= end_time + kDrainTimeoutSeconds) {
      result.drained = false;
      break;
    }

    double wake = now + 0.05;
    if (now < end_time) {
      for (const TenantState& ts : state) {
        if (ts.mode == Mode::kSending && ts.next_doc < ts.stream->docs.size()) {
          wake = std::min(wake, ts.next_due);
        }
      }
      wake = std::min(wake, next_read_due);
      if (current < steps) {
        wake = std::min(wake, result.step_start[current] +
                                  plan.seconds[current]);
      }
      wake = std::min(wake, end_time);
    }
    fds.clear();
    for (const TenantState& ts : state) {
      if (ts.conn.broken) continue;
      fds.push_back({ts.conn.fd,
                     static_cast<short>(POLLIN | (ts.conn.out.empty() ? 0 : POLLOUT)),
                     0});
    }
    if (!reader.broken) {
      fds.push_back({reader.fd,
                     static_cast<short>(POLLIN | (reader.out.empty() ? 0 : POLLOUT)),
                     0});
    }
    const double wait = std::max(0.0, wake - (NowSeconds() - origin));
    timespec timeout;
    timeout.tv_sec = static_cast<time_t>(wait);
    timeout.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
    ppoll(fds.data(), fds.size(), &timeout, nullptr);

    const double after = NowSeconds() - origin;
    for (size_t t = 0; t < tenants; ++t) {
      TenantState& ts = state[t];
      if (ts.conn.broken) continue;
      if (!Receive(ts.conn)) {
        ts.conn.broken = true;
        ++result.transport_errors;
      }
      int status = 0;
      while (!ts.conn.inflight.empty() && PopResponse(ts.conn, &status, &body)) {
        const Inflight item = ts.conn.inflight.front();
        ts.conn.inflight.pop_front();
        switch (item.kind) {
          case Kind::kIngest: {
            IngestRecord& record = result.ingests[item.record];
            record.acked = after;
            record.status = status;
            --outstanding;
            if (static_cast<size_t>(record.step) < steps) {
              ++answered[record.step];
              if (status != 200 || after - record.due > limit_s) {
                ++over_limit[record.step];
              }
            }
            if (status == 200) {
              result.events[t].push_back({false, item.doc, 0});
              ++acked;
            }
            break;
          }
          case Kind::kInduce: {
            Json reply;
            const bool ok = status == 200 && ParseJson(body, &reply);
            if (!ok) ++result.admin_failures;
            if (ok && reply["candidates"].number > 0 &&
                ts.round_accepts < kMaxAcceptsPerRound) {
              send_admin(ts, Kind::kCandidates, "GET",
                         "/dtds/candidates?tenant=" + spec.tenants[t].name,
                         after);
            } else {
              end_round(t);
            }
            break;
          }
          case Kind::kCandidates: {
            Json reply;
            if (status != 200 || !ParseJson(body, &reply) ||
                reply["candidates"].items.empty()) {
              ++result.admin_failures;
              end_round(t);
              break;
            }
            const uint64_t id = static_cast<uint64_t>(
                reply["candidates"].items.front()["id"].number);
            send_admin(ts, Kind::kAccept, "POST",
                       "/dtds/candidates/" + std::to_string(id) +
                           "/accept?tenant=" + spec.tenants[t].name,
                       after);
            break;
          }
          case Kind::kAccept:
            result.accept_ms.push_back((after - item.start) * 1000.0);
            if (status != 200) {
              ++result.admin_failures;
              end_round(t);
              break;
            }
            ++ts.round_accepts;
            send_admin(ts, Kind::kInduce, "POST", induce_target(t), after);
            break;
          case Kind::kRead:
            break;
        }
      }
      if (ts.conn.broken) {
        ts.conn.inflight.clear();
        ts.mode = Mode::kDone;
      }
    }
    if (!reader.broken) {
      if (!Receive(reader)) {
        reader.broken = true;
        ++result.transport_errors;
      }
      int status = 0;
      while (!reader.inflight.empty() && PopResponse(reader, &status, &body)) {
        ReadRecord& record = result.reads[reader.inflight.front().record];
        reader.inflight.pop_front();
        record.acked = after;
        record.status = status;
      }
      if (reader.broken) reader.inflight.clear();
    }
  }
  if (hook) hook(static_cast<int>(steps), acked);
  return result;
}

std::vector<StepResult> EvaluateSteps(const LoadResult& result,
                                      const LadderPlan& plan,
                                      double limit_ms) {
  const size_t steps = plan.rates.size();
  std::vector<std::vector<double>> latencies(steps);
  // Requests due before each step boundary and not yet answered there.
  std::vector<size_t> backlog(steps + 1, 0);
  for (const IngestRecord& record : result.ingests) {
    const size_t k = static_cast<size_t>(record.step);
    if (k >= steps) continue;
    const bool ok = record.acked >= 0.0 && record.status == 200;
    latencies[k].push_back(ok ? (record.acked - record.due) * 1000.0
                              : kUnanswered);
    for (size_t b = k + 1; b <= steps; ++b) {
      const double boundary = result.step_start[b - 1] + plan.seconds[b - 1];
      if (ok && record.acked <= boundary) break;
      ++backlog[b];
    }
  }
  std::vector<StepResult> out(steps);
  for (size_t k = 0; k < steps; ++k) {
    StepResult& step = out[k];
    step.rate = plan.rates[k];
    step.samples = latencies[k].size();
    if (step.samples == 0) continue;
    step.p50_ms = Quantile(latencies[k], 0.50);
    step.p99_ms = Quantile(latencies[k], 0.99);
    step.cut = static_cast<int>(k) == result.cut_step;
    // Behind means more requests outstanding at the step's end than the
    // latency limit lets the offered rate keep in flight.
    step.backlog_grew =
        BacklogGrew(backlog[k], backlog[k + 1], step.samples) ||
        static_cast<double>(backlog[k + 1]) >
            step.rate * limit_ms / 1000.0 + kBacklogGrowthMin;
    step.passed = !step.cut && !step.backlog_grew && step.p99_ms <= limit_ms;
  }
  return out;
}

double SustainedRate(const std::vector<StepResult>& steps,
                     const LoadResult& result, const LadderPlan& plan) {
  double sustained = 0.0;
  for (const StepResult& step : steps) {
    if (step.passed) sustained = std::max(sustained, step.rate);
  }
  if (sustained > 0.0) return sustained;
  size_t acked = 0;
  const double end = plan.seconds[0];
  for (const IngestRecord& record : result.ingests) {
    if (record.status == 200 && record.acked >= 0.0 && record.acked <= end) {
      ++acked;
    }
  }
  return static_cast<double>(acked) / end;
}

}  // namespace perfbench
