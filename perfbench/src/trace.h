// The traced run: a single-threaded, in-process replay of a workload's
// inputs through each layer's public entry points, with one span per
// call. Where `XmlSource` bundles stages, the replay drives them one by
// one (MemoProbe / Classify → RecordDocument → CheckEvolutionTrigger →
// EvolveDtd → repository re-classification), so every layer's share of
// the time is measured where it is spent. The staged replay must end in
// the same per-tenant state as `XmlSource` on the same inputs; that
// cross-check is what makes its numbers describe the same program.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {

struct TraceReport {
  /// Every per-layer metric the traced run produces, by name.
  std::vector<Metric> metrics;
  size_t documents = 0;
  /// Fields where the staged replay, the `XmlSource` replay and the
  /// recovered source disagree.
  size_t mismatches = 0;
  std::vector<std::string> notes;
};

/// Replays the first `spec.trace_docs_per_tenant` documents of every
/// tenant (with the induce rounds among them): staged without spans to
/// warm up, staged and traced, staged and untraced, and through
/// `XmlSource` with the WAL and checkpoints of the workload's durability
/// settings. Scratch files go under `work_dir`; the spans are written to
/// `spans_path`.
TraceReport RunTraced(const WorkloadSpec& spec, const std::string& work_dir,
                      const std::string& spans_path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
