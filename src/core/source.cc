#include "core/source.h"

#include <algorithm>
#include <utility>

#include "dtd/dtd_parser.h"
#include "util/thread_pool.h"
#include "xml/parser.h"
#include "xml/stream_reader.h"

namespace dtdevolve::core {

namespace {

/// The clusterer scores with the same similarity knobs as the
/// classifier, so cluster geometry matches classification geometry.
SourceOptions SyncInduceOptions(SourceOptions options) {
  options.induce.cluster.similarity = options.similarity;
  return options;
}

}  // namespace

XmlSource::XmlSource(SourceOptions options)
    : options_(SyncInduceOptions(std::move(options))),
      classifier_(options_.sigma, options_.similarity, options_.classifier),
      clusterer_(options_.induce.cluster) {}

Status XmlSource::AddDtd(const std::string& name, dtd::Dtd dtd) {
  if (dtds_.find(name) != dtds_.end()) {
    return Status::AlreadyExists("DTD '" + name + "' already registered");
  }
  DTDEVOLVE_RETURN_IF_ERROR(dtd.Check());
  auto [it, inserted] =
      dtds_.emplace(name, evolve::ExtendedDtd(std::move(dtd)));
  classifier_.AddDtd(name, &it->second.dtd());
  auto recorder = std::make_unique<evolve::Recorder>(it->second);
  recorder->set_metrics(metrics_.documents_recorded,
                        metrics_.elements_recorded);
  recorders_.emplace(name, std::move(recorder));
  instances_.emplace(name, std::vector<xml::Document>());
  changed_dtds_.insert(name);
  return Status::Ok();
}

Status XmlSource::RestoreExtended(const std::string& name,
                                  evolve::ExtendedDtd ext) {
  auto it = dtds_.find(name);
  if (it == dtds_.end()) {
    return Status::NotFound("DTD '" + name + "' is not registered");
  }
  DTDEVOLVE_RETURN_IF_ERROR(ext.dtd().Check());
  it->second = std::move(ext);
  // The DTD object moved: re-point the classifier (rebuilding the
  // evaluator) and rebuild the recorder over the restored state.
  classifier_.AddDtd(name, &it->second.dtd());
  auto recorder = std::make_unique<evolve::Recorder>(it->second);
  recorder->set_metrics(metrics_.documents_recorded,
                        metrics_.elements_recorded);
  recorders_[name] = std::move(recorder);
  changed_dtds_.insert(name);
  return Status::Ok();
}

void XmlSource::RestoreCounters(uint64_t processed, uint64_t classified,
                                uint64_t evolutions) {
  documents_processed_ = processed;
  documents_classified_ = classified;
  evolutions_performed_ = evolutions;
}

void XmlSource::RestoreRepositoryDoc(int id, xml::Document doc) {
  // Which DTDs this document was already scored against is not part of
  // the restored state, so the next pass scores it against all of them.
  for (const auto& [name, ext] : dtds_) changed_dtds_.insert(name);
  repository_.Restore(id, std::move(doc));
  if (options_.cluster_repository) {
    clusterer_.Add(id, repository_.Get(id));
  }
}

void XmlSource::set_metrics(const SourceMetrics& metrics) {
  metrics_ = metrics;
  classify::ClassifierMetrics classifier_metrics;
  classifier_metrics.documents_scored = metrics.documents_scored;
  classifier_metrics.similarity_evaluations = metrics.similarity_evaluations;
  classifier_metrics.evaluations_pruned = metrics.evaluations_pruned;
  classifier_metrics.cache_hits = metrics.score_cache_hits;
  classifier_metrics.cache_misses = metrics.score_cache_misses;
  classifier_metrics.cache_evictions = metrics.score_cache_evictions;
  classifier_metrics.score_seconds = metrics.score_seconds;
  classifier_.set_metrics(classifier_metrics);
  for (auto& [name, recorder] : recorders_) {
    recorder->set_metrics(metrics.documents_recorded,
                          metrics.elements_recorded);
  }
}

Status XmlSource::AddDtdText(const std::string& name,
                             std::string_view dtd_text, std::string root) {
  StatusOr<dtd::Dtd> parsed = dtd::ParseDtd(dtd_text, std::move(root));
  if (!parsed.ok()) return parsed.status();
  return AddDtd(name, std::move(parsed).value());
}

XmlSource::ProcessOutcome XmlSource::Process(xml::Document doc) {
  classify::ClassificationOutcome classification = classifier_.Classify(doc);
  PendingDocument pending;
  pending.dom.emplace(std::move(doc));
  return ApplyClassification(std::move(pending), classification, nullptr);
}

XmlSource::ProcessOutcome XmlSource::Process(xml::ArenaDocument doc) {
  classify::ClassificationOutcome classification = classifier_.Classify(doc);
  PendingDocument pending;
  pending.arena = &doc;
  return ApplyClassification(std::move(pending), classification, nullptr);
}

xml::Document XmlSource::TakeDom(PendingDocument& doc) {
  if (!doc.dom.has_value()) {
    doc.dom.emplace(doc.arena->ToDocument());
    if (metrics_.documents_materialized != nullptr) {
      metrics_.documents_materialized->Increment();
    }
  }
  return *std::move(doc.dom);
}

XmlSource::ProcessOutcome XmlSource::ApplyClassification(
    PendingDocument doc,
    const classify::ClassificationOutcome& classification,
    util::ThreadPool* pool) {
  ProcessOutcome outcome;
  const uint64_t index = documents_processed_++;
  if (metrics_.documents_processed != nullptr) {
    metrics_.documents_processed->Increment();
  }

  outcome.dtd_name = classification.dtd_name;
  outcome.similarity = classification.similarity;

  if (!classification.classified) {
    const int repo_id = repository_.Add(TakeDom(doc));
    if (options_.cluster_repository) {
      clusterer_.Add(repo_id, repository_.Get(repo_id));
    }
    if (metrics_.documents_unclassified != nullptr) {
      metrics_.documents_unclassified->Increment();
    }
    LogEvent(SourceEvent::Kind::kUnclassified, classification.dtd_name,
             classification.similarity, index);
    return outcome;
  }

  outcome.classified = true;
  ++documents_classified_;
  if (metrics_.documents_classified != nullptr) {
    metrics_.documents_classified->Increment();
  }
  const std::string& name = classification.dtd_name;
  evolve::ExtendedDtd& ext = dtds_.at(name);
  if (doc.dom.has_value()) {
    recorders_.at(name)->RecordDocument(*doc.dom);
  } else {
    // Streaming path: record straight off the arena tree — the recorder
    // extracts identical statistics from either representation of the
    // same document.
    recorders_.at(name)->RecordDocument(*doc.arena);
  }
  if (options_.keep_documents) {
    instances_.at(name).push_back(TakeDom(doc));
  }
  LogEvent(SourceEvent::Kind::kClassified, name, classification.similarity,
           index);

  if (!trigger_rules_.empty()) {
    // The trigger language replaces the plain τ check.
    if (metrics_.trigger_checks != nullptr) {
      metrics_.trigger_checks->Increment();
    }
    TriggerMetrics metrics = MetricsFor(name);
    for (const TriggerRule& rule : trigger_rules_) {
      if (!rule.AppliesTo(name) || !rule.Evaluate(metrics)) continue;
      evolve::EvolutionResult result =
          evolve::EvolveDtd(ext, rule.OptionsOver(options_.evolution));
      AfterEvolution(name, result);
      outcome.evolved = true;
      if (options_.reclassify_after_evolution) {
        outcome.reclassified = ReclassifyRepository(pool);
      }
      break;
    }
  } else if (options_.auto_evolve &&
             ext.documents_recorded() >=
                 options_.min_documents_before_check) {
    if (metrics_.trigger_checks != nullptr) {
      metrics_.trigger_checks->Increment();
    }
    evolve::CheckResult check =
        evolve::CheckEvolutionTrigger(ext, options_.tau);
    if (check.should_evolve) {
      evolve::EvolutionResult result =
          evolve::EvolveDtd(ext, options_.evolution);
      AfterEvolution(name, result);
      outcome.evolved = true;
      if (options_.reclassify_after_evolution) {
        outcome.reclassified = ReclassifyRepository(pool);
      }
    }
  }
  return outcome;
}

std::vector<XmlSource::ProcessOutcome> XmlSource::ProcessBatch(
    std::vector<xml::Document> docs, size_t jobs) {
  if (jobs == 0) jobs = util::ThreadPool::DefaultJobs();
  // One pool for the whole batch; chunks reuse its workers, and the
  // calling thread is one of the `jobs`.
  std::optional<util::ThreadPool> pool;
  if (jobs > 1 && docs.size() > 1) pool.emplace(jobs - 1);
  return ProcessBatch(std::move(docs), pool ? &*pool : nullptr);
}

std::vector<XmlSource::ProcessOutcome> XmlSource::ProcessBatch(
    std::vector<xml::Document> docs, util::ThreadPool* pool) {
  const size_t threads = pool != nullptr ? pool->size() + 1 : 1;
  std::vector<ProcessOutcome> outcomes;
  outcomes.reserve(docs.size());
  // Score a chunk in parallel, then apply serially in input order. The
  // chunk bounds the speculation: an evolution invalidates the scores of
  // the documents after it, which are then re-scored against the evolved
  // DTD set — exactly what sequential `Process` would have seen.
  const size_t chunk = std::max<size_t>(32, 16 * threads);
  size_t i = 0;
  while (i < docs.size()) {
    const size_t end = std::min(docs.size(), i + chunk);
    std::vector<const xml::Document*> pending;
    pending.reserve(end - i);
    for (size_t j = i; j < end; ++j) pending.push_back(&docs[j]);
    std::vector<classify::ClassificationOutcome> classifications =
        classifier_.ClassifyBatch(pending, pool);
    size_t applied = 0;
    for (size_t j = i; j < end; ++j) {
      PendingDocument pending;
      pending.dom.emplace(std::move(docs[j]));
      outcomes.push_back(ApplyClassification(std::move(pending),
                                             classifications[j - i], pool));
      ++applied;
      if (outcomes.back().evolved) break;  // remaining scores are stale
    }
    i += applied;
  }
  return outcomes;
}

StatusOr<XmlSource::ProcessOutcome> XmlSource::ProcessText(
    std::string_view xml_text) {
  if (options_.streaming_parse) {
    StatusOr<xml::ArenaDocument> doc = xml::ParseArenaDocument(xml_text);
    if (!doc.ok()) return doc.status();
    return Process(std::move(doc).value());
  }
  StatusOr<xml::Document> doc = xml::ParseDocument(xml_text);
  if (!doc.ok()) return doc.status();
  return Process(std::move(doc).value());
}

std::vector<XmlSource::ProcessOutcome> XmlSource::ProcessBatch(
    std::vector<xml::ArenaDocument> docs, util::ThreadPool* pool) {
  const size_t threads = pool != nullptr ? pool->size() + 1 : 1;
  std::vector<ProcessOutcome> outcomes;
  outcomes.reserve(docs.size());
  // Same chunked speculation as the DOM batch, with a memo split in
  // front: hits replay their outcome with no scoring, and only the
  // misses of the chunk are batch-scored — on their arena trees, so no
  // DOM is built unless a document ends up in the repository. An
  // evolution bumps the set-epoch, so the re-probed remainder of the
  // chunk correctly misses against the evolved set.
  const size_t chunk = std::max<size_t>(32, 16 * threads);
  std::vector<std::optional<classify::ClassificationOutcome>> replayed;
  size_t i = 0;
  while (i < docs.size()) {
    const size_t end = std::min(docs.size(), i + chunk);
    replayed.clear();
    replayed.resize(end - i);
    std::vector<const xml::ArenaDocument*> pending;
    std::vector<size_t> pending_index;
    for (size_t j = i; j < end; ++j) {
      replayed[j - i] = classifier_.MemoProbe(docs[j]);
      if (!replayed[j - i].has_value()) {
        pending.push_back(&docs[j]);
        pending_index.push_back(j - i);
      }
    }
    std::vector<classify::ClassificationOutcome> scored =
        classifier_.ClassifyMisses(pending, pool);
    for (size_t k = 0; k < pending_index.size(); ++k) {
      replayed[pending_index[k]] = std::move(scored[k]);
    }
    size_t applied = 0;
    for (size_t j = i; j < end; ++j) {
      PendingDocument doc;
      doc.arena = &docs[j];
      outcomes.push_back(
          ApplyClassification(std::move(doc), *replayed[j - i], pool));
      ++applied;
      if (outcomes.back().evolved) break;  // remaining scores are stale
    }
    i += applied;
  }
  return outcomes;
}

void XmlSource::AfterEvolution(const std::string& name,
                               const evolve::EvolutionResult& result) {
  ++evolutions_performed_;
  if (metrics_.evolutions != nullptr) metrics_.evolutions->Increment();
  classifier_.Invalidate(name);
  changed_dtds_.insert(name);
  auto recorder = std::make_unique<evolve::Recorder>(dtds_.at(name));
  recorder->set_metrics(metrics_.documents_recorded,
                        metrics_.elements_recorded);
  recorders_[name] = std::move(recorder);
  LogEvent(SourceEvent::Kind::kEvolved, name, 0.0,
           documents_processed_ == 0 ? 0 : documents_processed_ - 1,
           FormatEvolution(result));
}

void XmlSource::LogEvent(SourceEvent::Kind kind, const std::string& dtd_name,
                         double similarity, uint64_t document_index,
                         std::string detail) {
  SourceEvent event{kind, dtd_name, similarity, document_index,
                    std::move(detail), events_total_};
  if (events_.size() < kEventCapacity) {
    events_.push_back(std::move(event));
  } else {
    events_[events_total_ % kEventCapacity] = std::move(event);
  }
  ++events_total_;
}

EventPage XmlSource::EventsSince(uint64_t since) const {
  EventPage page;
  page.next = events_total_;
  page.oldest = events_total_ - events_.size();
  const uint64_t from = std::max(since, page.oldest);
  if (since < page.oldest) page.missed = page.oldest - since;
  for (uint64_t seq = from; seq < page.next; ++seq) {
    page.events.push_back(events_[seq % kEventCapacity]);
  }
  return page;
}

std::vector<std::string> XmlSource::DtdNames() const {
  std::vector<std::string> names;
  names.reserve(dtds_.size());
  for (const auto& [name, ext] : dtds_) names.push_back(name);
  return names;
}

const dtd::Dtd* XmlSource::FindDtd(const std::string& name) const {
  auto it = dtds_.find(name);
  return it == dtds_.end() ? nullptr : &it->second.dtd();
}

const evolve::ExtendedDtd* XmlSource::FindExtended(
    const std::string& name) const {
  auto it = dtds_.find(name);
  return it == dtds_.end() ? nullptr : &it->second;
}

const std::vector<xml::Document>& XmlSource::InstancesOf(
    const std::string& name) const {
  static const std::vector<xml::Document>* const kEmpty =
      new std::vector<xml::Document>();
  auto it = instances_.find(name);
  return it == instances_.end() ? *kEmpty : it->second;
}

Status XmlSource::AddTriggerRule(std::string_view rule_text) {
  StatusOr<TriggerRule> rule = TriggerRule::Parse(rule_text);
  if (!rule.ok()) return rule.status();
  trigger_rules_.push_back(std::move(*rule));
  return Status::Ok();
}

Status XmlSource::AddTriggerRules(std::string_view rules_text) {
  StatusOr<std::vector<TriggerRule>> rules = ParseTriggerRules(rules_text);
  if (!rules.ok()) return rules.status();
  for (TriggerRule& rule : *rules) {
    trigger_rules_.push_back(std::move(rule));
  }
  return Status::Ok();
}

TriggerMetrics XmlSource::MetricsFor(const std::string& name) const {
  TriggerMetrics metrics;
  auto it = dtds_.find(name);
  if (it == dtds_.end()) return metrics;
  const evolve::ExtendedDtd& ext = it->second;
  metrics.divergence = ext.MeanDivergence();
  metrics.documents = ext.documents_recorded();
  metrics.total_elements = ext.total_elements_recorded();
  metrics.invalid_elements = ext.invalid_elements_recorded();
  metrics.invalid_fraction =
      metrics.total_elements == 0
          ? 0.0
          : static_cast<double>(metrics.invalid_elements) /
                static_cast<double>(metrics.total_elements);
  return metrics;
}

evolve::CheckResult XmlSource::Check(const std::string& name) const {
  auto it = dtds_.find(name);
  if (it == dtds_.end()) return {};
  return evolve::CheckEvolutionTrigger(it->second, options_.tau);
}

std::optional<evolve::EvolutionResult> XmlSource::ForceEvolve(
    const std::string& name) {
  auto it = dtds_.find(name);
  if (it == dtds_.end()) return std::nullopt;
  evolve::EvolutionResult result =
      evolve::EvolveDtd(it->second, options_.evolution);
  AfterEvolution(name, result);
  return result;
}

size_t XmlSource::InduceCandidates() {
  if (options_.cluster_repository) clusterer_.Consolidate();
  candidates_.clear();
  std::vector<induce::Candidate> induced = induce::InduceClusterCandidates(
      clusterer_.Clusters(), repository_, &classifier_, DtdNames(),
      options_.induce);
  for (induce::Candidate& candidate : induced) {
    candidate.id = next_candidate_id_++;
    ++candidates_proposed_;
    if (metrics_.candidates_proposed != nullptr) {
      metrics_.candidates_proposed->Increment();
    }
    candidates_.push_back(std::move(candidate));
  }
  return candidates_.size();
}

const induce::Candidate* XmlSource::FindCandidate(uint64_t id) const {
  for (const induce::Candidate& candidate : candidates_) {
    if (candidate.id == id) return &candidate;
  }
  return nullptr;
}

StatusOr<XmlSource::AcceptOutcome> XmlSource::AcceptCandidate(uint64_t id,
                                                              size_t jobs) {
  std::optional<util::ThreadPool> pool;
  if (jobs > 1) pool.emplace(jobs - 1);
  return AcceptCandidate(id, pool ? &*pool : nullptr);
}

StatusOr<XmlSource::AcceptOutcome> XmlSource::AcceptCandidate(
    uint64_t id, util::ThreadPool* pool) {
  auto it = std::find_if(candidates_.begin(), candidates_.end(),
                         [id](const induce::Candidate& candidate) {
                           return candidate.id == id;
                         });
  if (it == candidates_.end()) {
    return Status::NotFound("no pending candidate with id " +
                            std::to_string(id));
  }
  AcceptOutcome outcome;
  outcome.dtd_name = it->name;
  outcome.members = it->members.size();
  outcome.validated = it->validated.size();
  evolve::ExtendedDtd ext = std::move(it->ext);
  // The accepted candidate changes the DTD set under every other pending
  // candidate (memberships and margins go stale), so the whole list is
  // retired; ids are never reused.
  candidates_.clear();
  DTDEVOLVE_RETURN_IF_ERROR(
      AdoptInducedDtd(outcome.dtd_name, std::move(ext), pool,
                      &outcome.reclassified));
  return outcome;
}

Status XmlSource::RejectCandidate(uint64_t id) {
  auto it = std::find_if(candidates_.begin(), candidates_.end(),
                         [id](const induce::Candidate& candidate) {
                           return candidate.id == id;
                         });
  if (it == candidates_.end()) {
    return Status::NotFound("no pending candidate with id " +
                            std::to_string(id));
  }
  candidates_.erase(it);
  ++candidates_rejected_;
  if (metrics_.candidates_rejected != nullptr) {
    metrics_.candidates_rejected->Increment();
  }
  return Status::Ok();
}

Status XmlSource::AdoptInducedDtd(const std::string& name,
                                  evolve::ExtendedDtd ext,
                                  util::ThreadPool* pool,
                                  size_t* reclassified) {
  DTDEVOLVE_RETURN_IF_ERROR(RegisterInducedDtd(name, std::move(ext)));
  ++candidates_accepted_;
  if (metrics_.candidates_accepted != nullptr) {
    metrics_.candidates_accepted->Increment();
  }
  LogEvent(SourceEvent::Kind::kDtdInduced, name, 0.0,
           documents_processed_ == 0 ? 0 : documents_processed_ - 1);
  const size_t recovered = ReclassifyRepository(pool);
  if (reclassified != nullptr) *reclassified = recovered;
  return Status::Ok();
}

Status XmlSource::RegisterInducedDtd(const std::string& name,
                                     evolve::ExtendedDtd ext) {
  if (dtds_.find(name) != dtds_.end()) {
    return Status::AlreadyExists("DTD '" + name + "' already registered");
  }
  DTDEVOLVE_RETURN_IF_ERROR(ext.dtd().Check());
  auto [it, inserted] = dtds_.emplace(name, std::move(ext));
  classifier_.AddDtd(name, &it->second.dtd());
  auto recorder = std::make_unique<evolve::Recorder>(it->second);
  recorder->set_metrics(metrics_.documents_recorded,
                        metrics_.elements_recorded);
  recorders_.emplace(name, std::move(recorder));
  instances_.emplace(name, std::vector<xml::Document>());
  changed_dtds_.insert(name);
  return Status::Ok();
}

size_t XmlSource::ReclassifyRepository(util::ThreadPool* pool) {
  // Every repository document scored below σ against every DTD outside
  // `changed_dtds_` (when it was added, or in an earlier pass), so only
  // the changed DTDs can claim it now — and whenever one does, it is the
  // winner a full-set classification would pick.
  const std::vector<std::string> changed(changed_dtds_.begin(),
                                         changed_dtds_.end());
  changed_dtds_.clear();
  if (changed.empty()) return 0;
  // The classifier does not change while we record, so all repository
  // documents can be scored up front — in parallel on `pool` — and the
  // serial recording pass below matches the sequential behavior.
  const std::vector<int> ids = repository_.Ids();
  std::vector<const xml::Document*> docs;
  docs.reserve(ids.size());
  for (int id : ids) docs.push_back(&repository_.Get(id));
  const std::vector<classify::ClassificationOutcome> classifications =
      classifier_.ClassifyBatchAmong(docs, changed, pool);

  size_t recovered = 0;
  for (size_t k = 0; k < ids.size(); ++k) {
    const classify::ClassificationOutcome& classification = classifications[k];
    if (!classification.classified) continue;
    xml::Document doc = repository_.Take(ids[k]);
    clusterer_.Remove(ids[k]);
    const std::string& name = classification.dtd_name;
    recorders_.at(name)->RecordDocument(doc);
    ++documents_classified_;
    if (options_.keep_documents) {
      instances_.at(name).push_back(std::move(doc));
    }
    LogEvent(SourceEvent::Kind::kReclassified, name,
             classification.similarity, 0);
    if (metrics_.documents_reclassified != nullptr) {
      metrics_.documents_reclassified->Increment();
    }
    ++recovered;
  }
  return recovered;
}

size_t XmlSource::EvictRepositoryDocs(const std::vector<int>& ids) {
  size_t evicted = 0;
  for (int id : ids) {
    if (!repository_.Has(id)) continue;
    repository_.Take(id);
    clusterer_.Remove(id);
    ++evicted;
  }
  return evicted;
}

}  // namespace dtdevolve::core
