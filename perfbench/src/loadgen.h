// The open-loop load generator: one thread, one connection per tenant
// plus one reader connection, every ingest pipelined on its tenant's
// connection as `POST /ingest/{tenant}?wait=1` at its scheduled time.
//
// Because a tenant's requests share one connection and the server
// answers a connection's requests strictly in order, each shard applies
// its documents in generation order — which is what makes the final
// per-tenant state checkable against an in-process reference.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// Candidates accepted per induce round at most (the in-process
/// reference applies the same bound).
inline constexpr size_t kMaxAcceptsPerRound = 16;

/// The offered-rate ladder: step 0 is the workload's reference rate.
struct LadderPlan {
  std::vector<double> rates;    // documents/second over all tenants
  std::vector<double> seconds;  // duration of each step
};

/// One ingest request as the generator saw it (times in seconds from
/// the run's origin).
struct IngestRecord {
  int tenant = 0;
  int step = 0;
  double due = 0.0;
  double sent = 0.0;
  double acked = -1.0;  // -1: never answered
  int status = 0;
};

struct ReadRecord {
  int step = 0;
  double due = 0.0;
  double sent = 0.0;
  double acked = -1.0;
  int status = 0;
};

/// What one tenant's shard was asked to apply, in order: an acked
/// document (by index) or an induce round that accepted `accepts`
/// candidates.
struct TenantEvent {
  bool induce = false;
  size_t doc = 0;
  size_t accepts = 0;
};

struct StepResult {
  double rate = 0.0;
  size_t samples = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// The server fell behind the offered rate: the unanswered requests
  /// grew over the step by more than a tenth of its requests, or more
  /// were outstanding at its end than rate × limit.
  bool backlog_grew = false;
  bool cut = false;  // the ladder stopped during this step
  bool passed = false;
};

struct LoadResult {
  std::vector<IngestRecord> ingests;
  std::vector<ReadRecord> reads;
  std::vector<std::vector<TenantEvent>> events;  // per tenant
  std::vector<double> accept_ms;                 // per accepted candidate
  std::vector<double> step_start;  // scheduled start of each step
  int cut_step = -1;  // the step the early stop ended, if any
  size_t admin_requests = 0;
  size_t admin_failures = 0;
  size_t transport_errors = 0;
  bool drained = true;  // every request answered before the deadline
};

/// Called once when the schedule crosses into step `step` (1 ≤ step <
/// steps), and once with `step == steps` after every answer is in, with
/// the number of ingests acked so far.
using StepHook = std::function<void(int step, size_t acked)>;

/// Runs the whole ladder against 127.0.0.1:`port`. The ladder stops
/// early after two consecutive steps missed the ack limit, or when a
/// request has waited far beyond it.
LoadResult RunOpenLoop(uint16_t port, const WorkloadSpec& spec,
                       const LadderPlan& plan, const StepHook& hook);

/// Per-step latency at scheduled-time origin, and the pass verdict
/// against `limit_ms`.
std::vector<StepResult> EvaluateSteps(const LoadResult& result,
                                      const LadderPlan& plan, double limit_ms);

/// The highest rate among the steps that passed; when none passed, the
/// ack throughput achieved in the first step.
double SustainedRate(const std::vector<StepResult>& steps,
                     const LoadResult& result, const LadderPlan& plan);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
