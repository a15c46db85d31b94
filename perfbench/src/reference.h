// The outcome check: a tenant's state as the server exposes it
// (`GET /stats`, `GET /dtds/{name}`), the same state computed in process
// by a reference `XmlSource` fed the same sequence, and their comparison.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/source.h"
#include "loadgen.h"
#include "server_process.h"
#include "workloads.h"

namespace perfbench {

/// Per-DTD figures of `/stats`. `ingested` and `evolutions` are the
/// server's tallies of ingest outcomes, which a restart resets.
struct DtdFigures {
  uint64_t recorded = 0;
  double divergence = 0.0;  // as served: printed with %.6g
  uint64_t ingested = 0;
  uint64_t evolutions = 0;
};

/// What a tenant's shard exposes, and what the reference must match.
struct TenantState {
  std::map<std::string, std::string> dtd_texts;  // name → DTD text
  uint64_t processed = 0;
  uint64_t classified = 0;
  uint64_t evolutions = 0;
  uint64_t repository = 0;
  uint64_t clusters = 0;
  uint64_t largest_cluster = 0;
  uint64_t candidates_pending = 0;
  uint64_t candidates_proposed = 0;
  uint64_t candidates_accepted = 0;
  uint64_t candidates_rejected = 0;
  std::map<std::string, DtdFigures> dtds;
};

/// Which fields a comparison covers: everything a live shard serves, or
/// only what a checkpoint + WAL restores after a crash (DTDs, counters,
/// repository, recording state).
enum class Compare { kLive, kDurable };

/// Number of differing fields; each difference is appended to `notes`.
size_t CompareStates(const std::string& tenant, const TenantState& expected,
                     const TenantState& actual, Compare scope,
                     std::vector<std::string>* notes);

/// Reads one tenant's state from a running server; false on any failed
/// or malformed response.
bool FetchTenantState(HttpClient& client, const std::string& tenant,
                      TenantState* out);

/// The source options `dtdevolve serve` runs with at the given τ.
dtdevolve::core::SourceOptions ServeSourceOptions(double tau);

/// Source-level part of a tenant state (no ingest tallies).
TenantState StateOfSource(const dtdevolve::core::XmlSource& source);

/// Registers a tenant's seed DTDs; false when one fails to parse.
bool AddSeeds(const TenantStream& stream, dtdevolve::core::XmlSource* source);

/// One induce round on a source: induce, accept the first candidate,
/// repeat while candidates remain (at most kMaxAcceptsPerRound). Calls
/// `before_accept` with each candidate about to be accepted (the WAL
/// append of a live accept). Returns the number accepted.
template <typename BeforeAccept>
size_t RunInduceRound(dtdevolve::core::XmlSource& source,
                      BeforeAccept before_accept) {
  size_t accepts = 0;
  // Induce first, then check the bound: the generator also asks once
  // more after its last permitted accept.
  while (source.InduceCandidates() > 0 && accepts < kMaxAcceptsPerRound) {
    const dtdevolve::induce::Candidate& candidate = source.candidates().front();
    before_accept(candidate);
    if (!source.AcceptCandidate(candidate.id).ok()) break;
    ++accepts;
  }
  return accepts;
}

/// The reference replay of one tenant: a fresh source fed `events` (the
/// server's apply order) with the ingest tallies the server keeps.
struct ReferenceResult {
  TenantState state;
  /// Repository size when each induce round started.
  std::vector<size_t> repository_at_induce;
  /// Rounds whose accept count differs from the server's.
  size_t accept_mismatches = 0;
  bool ok = true;
};
ReferenceResult ReplayTenant(const TenantStream& stream,
                             const std::vector<TenantEvent>& events,
                             double tau);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
