// The benchmark's three workloads, built from the library's own
// generators (src/workload/). Everything here is a pure function of the
// seed: the server and the in-process runs only ever see these bytes.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SeedDtd {
  std::string name;  // served name (the seed file is `<name>.dtd`)
  std::string text;
};

/// One tenant's input: its seed DTDs, its documents in generation
/// order, and the points where the generator runs an induce round.
struct TenantStream {
  std::string name;
  std::vector<SeedDtd> seeds;
  std::vector<std::string> docs;
  /// Ascending document indices k: once every document before k is
  /// acked, and before document k is sent, the tenant runs
  /// `induce → accept the first candidate` until no candidate is left.
  std::vector<size_t> induce_points;
};

struct WorkloadSpec {
  std::string name;
  std::vector<TenantStream> tenants;
  /// Server durability settings (`dtdevolve serve` flags); `interval`
  /// fsyncs at the server's default cadence (100 ms).
  std::string fsync_policy;
  int checkpoint_interval_ms = 30000;
  double tau = 0.15;
  /// First ladder step: offered documents per second over all tenants.
  double reference_rate = 0.0;
  /// A ladder step passes when its ack p99 stays within this.
  double ack_limit_ms = 0.0;
  /// Documents per tenant the traced in-process run replays.
  size_t trace_docs_per_tenant = 0;
};

/// Builds workload `name` with `docs_per_tenant` documents per tenant.
/// Fails (returns false) on an unknown name.
bool BuildWorkload(const std::string& name, uint64_t seed,
                   size_t docs_per_tenant, WorkloadSpec* spec);

/// The settings of `name` without generating any document (the caller
/// sizes the streams from the rate ladder first).
bool WorkloadSettings(const std::string& name, WorkloadSpec* spec);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
