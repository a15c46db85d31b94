#ifndef DTDEVOLVE_CORE_REPORT_H_
#define DTDEVOLVE_CORE_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "evolve/evolver.h"

namespace dtdevolve::core {

/// One entry of the source's event log.
struct SourceEvent {
  enum class Kind {
    kClassified,    // document became an instance of `dtd_name`
    kUnclassified,  // document went to the repository
    kEvolved,       // `dtd_name` was evolved; detail has the summary
    kReclassified,  // a repository document was classified after evolution
    kDtdInduced,    // an accepted candidate DTD joined the set as `dtd_name`
  };

  Kind kind = Kind::kClassified;
  std::string dtd_name;
  double similarity = 0.0;
  uint64_t document_index = 0;  // processing order, 0-based
  std::string detail;
  /// Position in the source's full event log, 0-based and contiguous —
  /// also for events the bounded log no longer retains.
  uint64_t seq = 0;
};

/// A read of the event log from some sequence number on: the retained
/// events at or after it, plus what a reader needs to tell whether it
/// missed any.
struct EventPage {
  /// Retained events with `seq ≥ since`, ascending.
  std::vector<SourceEvent> events;
  /// Sequence number of the oldest retained event (== `next` when the
  /// log is empty).
  uint64_t oldest = 0;
  /// Sequence number the next event will get; pass it as the next
  /// `since`.
  uint64_t next = 0;
  /// Events at or after `since` that were overwritten before this read.
  uint64_t missed = 0;
};

/// Human-readable multi-line summary of an evolution round: per-element
/// window, invalidity, old → new declaration, fired policies, added
/// declarations.
std::string FormatEvolution(const evolve::EvolutionResult& result);

/// Short name of an event kind for logs.
std::string EventKindName(SourceEvent::Kind kind);

}  // namespace dtdevolve::core

#endif  // DTDEVOLVE_CORE_REPORT_H_
