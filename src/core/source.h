#ifndef DTDEVOLVE_CORE_SOURCE_H_
#define DTDEVOLVE_CORE_SOURCE_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "classify/classifier.h"
#include "classify/repository.h"
#include "core/options.h"
#include "core/report.h"
#include "core/trigger_language.h"
#include "evolve/extended_dtd.h"
#include "evolve/recorder.h"
#include "evolve/trigger.h"
#include "induce/cluster.h"
#include "induce/inducer.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dtdevolve::core {

/// Optional instrumentation of the whole classify → record → check →
/// evolve loop. All pointers may be null; the pointees must outlive the
/// source. Scoring hooks fire from batch worker threads (the metric
/// types are internally atomic); everything else fires on the serial
/// apply path.
struct SourceMetrics {
  // Loop outcomes.
  obs::Counter* documents_processed = nullptr;
  obs::Counter* documents_classified = nullptr;
  obs::Counter* documents_unclassified = nullptr;
  obs::Counter* documents_reclassified = nullptr;
  /// One increment per arena → DOM conversion (`ToDocument`) of a
  /// streaming-parsed document: one per document entering the
  /// repository, plus one per classified document under
  /// `keep_documents`. Classification and recording never need one.
  obs::Counter* documents_materialized = nullptr;
  obs::Counter* trigger_checks = nullptr;
  obs::Counter* evolutions = nullptr;
  // Classification hot path (forwarded to the Classifier).
  obs::Counter* documents_scored = nullptr;
  obs::Counter* similarity_evaluations = nullptr;
  obs::Counter* evaluations_pruned = nullptr;
  obs::Counter* score_cache_hits = nullptr;
  obs::Counter* score_cache_misses = nullptr;
  obs::Counter* score_cache_evictions = nullptr;
  obs::Histogram* score_seconds = nullptr;
  // Recording hot path (forwarded to every Recorder).
  obs::Counter* documents_recorded = nullptr;
  obs::Counter* elements_recorded = nullptr;
  // Candidate-DTD induction lifecycle.
  obs::Counter* candidates_proposed = nullptr;
  obs::Counter* candidates_accepted = nullptr;
  obs::Counter* candidates_rejected = nullptr;
};

/// The source of XML documents of Fig. 1 — the library's main entry
/// point. It owns the set of (extended) DTDs, the repository of
/// unclassified documents, and drives the whole loop:
///
///   initialization → [ classification → recording → check ]* → evolution
///   → repository re-classification → …
///
/// ```
///   XmlSource source;
///   source.AddDtdText("mail", "<!ELEMENT mail (from,to,body)> …");
///   for (const std::string& xml : incoming) source.ProcessText(xml);
///   // DTDs have evolved to match the stream:
///   std::string dtd = dtd::WriteDtd(*source.FindDtd("mail"));
/// ```
class XmlSource {
 public:
  explicit XmlSource(SourceOptions options = {});

  XmlSource(const XmlSource&) = delete;
  XmlSource& operator=(const XmlSource&) = delete;

  // --- Initialization phase -----------------------------------------------

  /// Registers a DTD under `name`. Fails when the name is taken or the
  /// DTD does not pass its consistency check.
  Status AddDtd(const std::string& name, dtd::Dtd dtd);
  /// Convenience: parses `dtd_text` and registers it. `root` overrides
  /// the root element (defaults to the first declaration).
  Status AddDtdText(const std::string& name, std::string_view dtd_text,
                    std::string root = "");

  /// Replaces the extended DTD registered under `name` — declarations
  /// *and* recording state — with `ext`, rebuilding the classifier
  /// evaluator and the recorder. This is how a server restores a
  /// persisted snapshot (`evolve/persist.h`) over the freshly registered
  /// seed DTD at startup. Fails with `kNotFound` when `name` is unknown
  /// and with the DTD's own error when `ext` fails its consistency check.
  Status RestoreExtended(const std::string& name, evolve::ExtendedDtd ext);

  /// Recovery hooks (store/checkpoint.h): reinstate the loop counters
  /// and the repository contents captured in a checkpoint, so replaying
  /// the WAL tail continues from exactly the persisted state. Counters
  /// feed event indices and the min-documents gate; repository ids feed
  /// the re-classification order — both must survive a restart for
  /// recovery to be replay-equivalent. Neither hook touches the
  /// installed metrics (the restored work was counted by the previous
  /// process).
  void RestoreCounters(uint64_t processed, uint64_t classified,
                       uint64_t evolutions);
  void RestoreRepositoryDoc(int id, xml::Document doc);
  /// Raises the repository's id counter to `next`. An eviction leaves
  /// the counter ahead of max(id)+1, so restoring docs alone would
  /// re-issue ids the live run already assigned — and WAL eviction
  /// records name explicit ids.
  void RestoreRepositoryNextId(int next) { repository_.SetNextId(next); }

  /// Installs (or clears) loop instrumentation; forwarded to the
  /// classifier and to every recorder, including ones created by later
  /// evolutions. Do not call while a batch is in flight.
  void set_metrics(const SourceMetrics& metrics);

  // --- Feeding documents --------------------------------------------------

  struct ProcessOutcome {
    bool classified = false;
    std::string dtd_name;     // best match (also when unclassified)
    double similarity = 0.0;
    bool evolved = false;     // this document triggered an evolution
    size_t reclassified = 0;  // repository documents recovered afterwards
  };

  /// Classifies, records and (when the check phase fires) evolves.
  ProcessOutcome Process(xml::Document doc);
  /// Streaming twin: classifies memo-first from the arena's parse-time
  /// root fingerprint, scores a miss on the arena tree itself, and
  /// records off the arena too. A DOM is built only when the document
  /// enters the repository of unclassified documents (or when
  /// `keep_documents` keeps a copy). Outcome-equivalent to converting
  /// and calling the DOM overload.
  ProcessOutcome Process(xml::ArenaDocument doc);
  /// Parses then processes — through the streaming reader when
  /// `options().streaming_parse` (the default), else the DOM parser.
  /// Both parsers accept/reject identical inputs with identical errors.
  StatusOr<ProcessOutcome> ProcessText(std::string_view xml_text);

  /// Batch variant of `Process`: scores documents against the DTD set
  /// concurrently on `jobs` threads in total (0 ⇒ hardware concurrency,
  /// ≤ 1 ⇒ inline), then applies recording / check / evolution serially in
  /// input order. Scoring is speculative: when an evolution fires
  /// mid-batch the not-yet-applied scores are stale and the remainder of
  /// the batch is re-scored against the evolved set, so the outcomes —
  /// classifications, events, evolved DTDs — are identical to feeding
  /// every document through `Process` one at a time, at any jobs level.
  ///
  /// `XmlSource` itself is single-writer: no other method may run while
  /// `ProcessBatch` is in flight. The internal fan-out only ever calls
  /// the const, non-mutating scoring path of `Classifier`.
  std::vector<ProcessOutcome> ProcessBatch(std::vector<xml::Document> docs,
                                           size_t jobs = 0);

  /// `ProcessBatch` on a caller-owned pool, so a long-running server can
  /// share one pool across every ingest batch (and the re-classification
  /// passes they trigger) instead of respawning threads. The calling
  /// thread scores alongside the pool's workers; `pool == nullptr` scores
  /// inline. Outcomes are identical either way.
  std::vector<ProcessOutcome> ProcessBatch(std::vector<xml::Document> docs,
                                           util::ThreadPool* pool);

  /// Arena batch: memo hits replay without scoring; only the misses of
  /// each chunk are scored (in parallel on `pool`, on their arena
  /// trees). A DOM is built only for documents entering the repository,
  /// as in `Process`. Outcomes are identical — entry by entry — to
  /// converting every document and calling the DOM `ProcessBatch`.
  std::vector<ProcessOutcome> ProcessBatch(
      std::vector<xml::ArenaDocument> docs, util::ThreadPool* pool);

  // --- Inspection ----------------------------------------------------------

  std::vector<std::string> DtdNames() const;
  /// The current (possibly evolved) DTD; nullptr when unknown.
  const dtd::Dtd* FindDtd(const std::string& name) const;
  /// The extended DTD with its recording structures; nullptr when unknown.
  const evolve::ExtendedDtd* FindExtended(const std::string& name) const;

  const classify::Repository& repository() const { return repository_; }
  /// Documents classified into `name` (empty unless keep_documents,
  /// which is off by default: the store is unbounded).
  const std::vector<xml::Document>& InstancesOf(const std::string& name) const;

  /// Events the log retains at most: the oldest are overwritten beyond
  /// it, so the log is bounded however long the source runs.
  static constexpr size_t kEventCapacity = 4096;

  /// Retained events with sequence number ≥ `since` (see `EventPage`).
  EventPage EventsSince(uint64_t since) const;
  /// Events ever logged (the next event's sequence number).
  uint64_t events_total() const { return events_total_; }
  /// Events currently retained (≤ kEventCapacity).
  size_t events_retained() const { return events_.size(); }
  uint64_t documents_processed() const { return documents_processed_; }
  uint64_t documents_classified() const { return documents_classified_; }
  uint64_t evolutions_performed() const { return evolutions_performed_; }

  const SourceOptions& options() const { return options_; }

  // --- Trigger language (§6 extension) --------------------------------------

  /// Installs a trigger rule (see core/trigger_language.h). When any
  /// rules are installed they replace the plain τ check: after every
  /// classification the first applicable rule whose condition holds
  /// fires an evolution with its WITH-overlaid options (the
  /// `min_documents_before_check` gate does not apply — rules express
  /// their own document thresholds).
  Status AddTriggerRule(std::string_view rule_text);
  /// Installs a whole rule set (one rule per line, `#` comments).
  Status AddTriggerRules(std::string_view rules_text);
  const std::vector<TriggerRule>& trigger_rules() const {
    return trigger_rules_;
  }

  /// Metric snapshot for `name`, as the trigger rules see it.
  TriggerMetrics MetricsFor(const std::string& name) const;

  // --- Candidate-DTD induction (repository clustering) ---------------------

  /// Consolidates the repository clusters and rebuilds the candidate
  /// list: one candidate DTD per cluster meeting the size floor and the
  /// coverage floor (options().induce). Replaces any previous candidates
  /// (their ids are retired, never reused). Returns how many candidates
  /// are now pending. Deterministic in the repository contents.
  size_t InduceCandidates();

  /// Candidates pending an accept/reject decision, ascending id.
  const std::vector<induce::Candidate>& candidates() const {
    return candidates_;
  }
  const induce::Candidate* FindCandidate(uint64_t id) const;

  struct AcceptOutcome {
    std::string dtd_name;
    size_t members = 0;
    size_t validated = 0;
    /// Repository documents recovered by the re-classification pass that
    /// follows the promotion.
    size_t reclassified = 0;
  };

  /// Promotes candidate `id` into the live DTD set and re-classifies the
  /// repository against the grown set (scoring on `pool` as in
  /// `ProcessBatch`; the outcome is pool-independent). Every other
  /// pending candidate is discarded — the set changed under them, so
  /// their membership and margins are stale; run `InduceCandidates`
  /// again for fresh ones. Fails with `kNotFound` for an unknown id.
  StatusOr<AcceptOutcome> AcceptCandidate(uint64_t id,
                                          util::ThreadPool* pool = nullptr);
  /// `AcceptCandidate` on `jobs` scoring threads in total, for one-shot
  /// callers without a pool of their own (≤ 1 ⇒ inline).
  StatusOr<AcceptOutcome> AcceptCandidate(uint64_t id, size_t jobs);

  /// Drops candidate `id`; `kNotFound` when unknown.
  Status RejectCandidate(uint64_t id);

  /// Registers an induced DTD (name must be free) and re-classifies the
  /// repository — the state transition of an accept, factored out so WAL
  /// replay (store/checkpoint.cc) reproduces an accept record exactly:
  /// same event, same counters, same repository drain.
  Status AdoptInducedDtd(const std::string& name, evolve::ExtendedDtd ext,
                         util::ThreadPool* pool = nullptr,
                         size_t* reclassified = nullptr);

  /// Registration half of `AdoptInducedDtd` only — no event, no
  /// re-classification. Checkpoint recovery uses this to reinstate an
  /// induced DTD whose name the seed set does not know (the repository
  /// and counters are restored separately from the same checkpoint).
  Status RegisterInducedDtd(const std::string& name, evolve::ExtendedDtd ext);

  /// Live view of the incremental repository clustering (zeros when
  /// options().cluster_repository is off).
  induce::ClusterStats cluster_stats() const { return clusterer_.GetStats(); }

  uint64_t candidates_proposed() const { return candidates_proposed_; }
  uint64_t candidates_accepted() const { return candidates_accepted_; }
  uint64_t candidates_rejected() const { return candidates_rejected_; }

  // --- Manual control (used by experiments) --------------------------------

  /// The check phase for one DTD (τ from the options).
  evolve::CheckResult Check(const std::string& name) const;
  /// Runs the evolution phase for `name` unconditionally; returns nullopt
  /// when the name is unknown.
  std::optional<evolve::EvolutionResult> ForceEvolve(const std::string& name);
  /// Re-classifies repository documents against the current DTD set;
  /// returns how many were recovered. Only the DTDs added, restored or
  /// evolved since the previous pass are scored (every DTD after a
  /// repository restore), which recovers exactly the documents a
  /// full-set pass would: a document still in the repository scored
  /// below σ against every other DTD. Scoring runs on `pool` as in
  /// `ProcessBatch`; recording is applied serially in ascending-id order
  /// either way, so the result does not depend on the pool.
  size_t ReclassifyRepository(util::ThreadPool* pool = nullptr);

  /// Drops the given documents from the repository (quota enforcement
  /// and replay of the eviction WAL record). Ids not present are skipped
  /// — re-applying an eviction after a checkpoint that already folded it
  /// in must be a no-op. Returns how many documents were removed.
  size_t EvictRepositoryDocs(const std::vector<int>& ids);

 private:
  /// A document on its way through the apply tail, in whichever
  /// representation it has: the DOM path fills `dom` only; the
  /// streaming path points `arena` at the caller's arena tree and leaves
  /// `dom` empty until `TakeDom`.
  struct PendingDocument {
    const xml::ArenaDocument* arena = nullptr;
    std::optional<xml::Document> dom;
  };

  /// The owning DOM of `doc`, materialized from the arena (and counted
  /// on `documents_materialized`) when the document has none — only the
  /// repository and `keep_documents` need one.
  xml::Document TakeDom(PendingDocument& doc);

  /// The record / check / evolve tail of `Process`, fed a precomputed
  /// classification. `pool` is forwarded to the repository re-scoring
  /// that may follow an evolution.
  ProcessOutcome ApplyClassification(
      PendingDocument doc,
      const classify::ClassificationOutcome& classification,
      util::ThreadPool* pool);

  void AfterEvolution(const std::string& name,
                      const evolve::EvolutionResult& result);

  /// Appends to the event log, overwriting the oldest event once
  /// `kEventCapacity` are retained.
  void LogEvent(SourceEvent::Kind kind, const std::string& dtd_name,
                double similarity, uint64_t document_index,
                std::string detail = "");

  SourceOptions options_;
  SourceMetrics metrics_;
  std::map<std::string, evolve::ExtendedDtd> dtds_;
  std::map<std::string, std::unique_ptr<evolve::Recorder>> recorders_;
  std::map<std::string, std::vector<xml::Document>> instances_;
  classify::Classifier classifier_;
  classify::Repository repository_;
  /// DTDs added, restored or evolved since the last re-classification
  /// pass — the only ones that pass scores the repository against.
  std::set<std::string> changed_dtds_;
  induce::RepositoryClusterer clusterer_;
  std::vector<induce::Candidate> candidates_;
  uint64_t next_candidate_id_ = 1;
  uint64_t candidates_proposed_ = 0;
  uint64_t candidates_accepted_ = 0;
  uint64_t candidates_rejected_ = 0;
  std::vector<TriggerRule> trigger_rules_;
  /// Ring of the last `kEventCapacity` events: event `seq` lives at
  /// slot `seq % kEventCapacity`.
  std::vector<SourceEvent> events_;
  uint64_t events_total_ = 0;
  uint64_t documents_processed_ = 0;
  uint64_t documents_classified_ = 0;
  uint64_t evolutions_performed_ = 0;
};

}  // namespace dtdevolve::core

#endif  // DTDEVOLVE_CORE_SOURCE_H_
