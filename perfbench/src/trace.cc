#include "trace.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "classify/classifier.h"
#include "classify/repository.h"
#include "core/source.h"
#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "evolve/evolver.h"
#include "evolve/extended_dtd.h"
#include "evolve/recorder.h"
#include "evolve/trigger.h"
#include "induce/cluster.h"
#include "induce/inducer.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "reference.h"
#include "server/http.h"
#include "server_process.h"
#include "store/checkpoint.h"
#include "store/induce_record.h"
#include "store/wal.h"
#include "xml/stream_reader.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace core = dtdevolve::core;
namespace classify = dtdevolve::classify;
namespace evolve = dtdevolve::evolve;
namespace induce = dtdevolve::induce;
namespace store = dtdevolve::store;
namespace xml = dtdevolve::xml;

namespace {

/// The benchmark's layers, named after the repository's modules.
/// Similarity scoring runs inside `Classifier::Classify`, so its time is
/// part of the classify layer's self time.
enum class Layer { kServer, kStore, kXml, kClassify, kEvolve, kCore, kInduce };
constexpr int kLayerCount = 7;
const char* LayerName(Layer layer) {
  static const char* const kNames[kLayerCount] = {
      "server", "store", "xml", "classify", "evolve", "core", "induce"};
  return kNames[static_cast<int>(layer)];
}

enum class SpanName {
  kHttpParse,          // server: ParseHttpRequest
  kWalAppend,          // store: Wal::Append
  kCheckpointCapture,  // store: CaptureCheckpoint
  kCheckpointWrite,    // store: WriteCheckpoint + Wal::TruncateThrough
  kXmlParse,           // xml: ParseArenaDocument
  kToDocument,         // xml: ArenaDocument::ToDocument
  kMemoProbe,          // classify: Classifier::MemoProbe
  kClassify,           // classify: Classifier::Classify (memo miss)
  kClassifyBatch,      // classify: Classifier::ClassifyBatch (repository)
  kInvalidate,         // classify: Classifier::Invalidate / AddDtd
  kRecord,             // evolve: Recorder::RecordDocument
  kTriggerCheck,       // evolve: CheckEvolutionTrigger
  kEvolve,             // evolve: EvolveDtd
  kApply,              // core: one document's classify → record tail
  kReclassify,         // core: repository re-classification
  kClusterAdd,         // induce: RepositoryClusterer::Add
  kInduce,             // induce: Consolidate + InduceClusterCandidates
  kAccept,             // induce: candidate registration (+ reclassify)
};
constexpr int kSpanNameCount = 18;

/// One recorded call: what, when, under which parent, for which document
/// (-1 when not tied to one).
struct Span {
  SpanName name = SpanName::kApply;
  int32_t parent = -1;
  int64_t doc = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder. Disabled, it reads no clock at all, which is
/// how the untraced replay measures the tracing overhead.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int Begin(SpanName name, int64_t doc);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// One line per span: id, parent, name, layer, doc, start, end (ns).
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, SpanName name, int64_t doc)
      : tracer_(tracer), index_(tracer.Begin(name, doc)) {}
  ~ScopedSpan() { tracer_.End(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

struct SpanInfo {
  const char* name;
  Layer layer;
};

constexpr SpanInfo kSpanInfo[kSpanNameCount] = {
    {"server.http_parse", Layer::kServer},
    {"store.wal_append", Layer::kStore},
    {"store.checkpoint_capture", Layer::kStore},
    {"store.checkpoint_write", Layer::kStore},
    {"xml.parse", Layer::kXml},
    {"xml.to_document", Layer::kXml},
    {"classify.memo_probe", Layer::kClassify},
    {"classify.classify", Layer::kClassify},
    {"classify.classify_batch", Layer::kClassify},
    {"classify.invalidate", Layer::kClassify},
    {"evolve.record", Layer::kEvolve},
    {"evolve.trigger_check", Layer::kEvolve},
    {"evolve.evolve", Layer::kEvolve},
    {"core.apply", Layer::kCore},
    {"core.reclassify", Layer::kCore},
    {"induce.cluster_add", Layer::kInduce},
    {"induce.induce", Layer::kInduce},
    {"induce.accept", Layer::kInduce},
};

const SpanInfo& InfoOf(SpanName name) {
  return kSpanInfo[static_cast<int>(name)];
}

int Tracer::Begin(SpanName name, int64_t doc) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.doc = doc;
  span.start_ns = NowNanos();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNanos();
  open_.pop_back();
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id\tparent\tname\tlayer\tdoc\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out, "%zu\t%d\t%s\t%s\t%lld\t%lld\t%lld\n", i, span.parent,
                 InfoOf(span.name).name, LayerName(InfoOf(span.name).layer),
                 static_cast<long long>(span.doc),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

/// Counts the staged replay keeps beside its spans.
struct StageCounts {
  uint64_t memo_probes = 0;
  uint64_t memo_hits = 0;
  uint64_t miss_evaluations = 0;  // DTD scorings of memo misses
  uint64_t miss_pruned = 0;       // DTD scorings pruning skipped
  uint64_t evolutions = 0;
  uint64_t reclassified_after_evolution = 0;
  uint64_t accepts = 0;
  uint64_t accept_rescored = 0;  // repository documents scored by accepts
  uint64_t arena_bytes = 0;
};

/// The classify → record → check → evolve loop of `XmlSource`, driven
/// stage by stage through each layer's public calls, with the same
/// options, the same order and the same state transitions, so it ends in
/// the same state.
class StagedTenant {
 public:
  StagedTenant(core::SourceOptions options, Tracer& tracer,
               StageCounts& counts)
      : options_(Synced(std::move(options))),
        tracer_(tracer),
        counts_(counts),
        classifier_(options_.sigma, options_.similarity, options_.classifier),
        clusterer_(options_.induce.cluster) {
    classify::ClassifierMetrics metrics;
    metrics.similarity_evaluations = &evaluations_;
    metrics.evaluations_pruned = &pruned_;
    metrics.cache_hits = &cache_hits_;
    metrics.cache_misses = &cache_misses_;
    classifier_.set_metrics(metrics);
  }

  StagedTenant(const StagedTenant&) = delete;
  StagedTenant& operator=(const StagedTenant&) = delete;

  bool AddSeed(const SeedDtd& seed) {
    auto parsed = dtdevolve::dtd::ParseDtd(seed.text);
    return parsed.ok() && Register(seed.name, evolve::ExtendedDtd(
                                                  std::move(parsed).value()));
  }

  /// One parsed document through the apply tail.
  void Apply(const xml::ArenaDocument& doc, int64_t id) {
    ScopedSpan apply(tracer_, SpanName::kApply, id);
    ++processed_;
    std::optional<classify::ClassificationOutcome> replayed;
    {
      ScopedSpan span(tracer_, SpanName::kMemoProbe, id);
      replayed = classifier_.MemoProbe(doc);
    }
    ++counts_.memo_probes;
    std::optional<xml::Document> dom;
    classify::ClassificationOutcome classification;
    if (replayed.has_value()) {
      ++counts_.memo_hits;
      classification = std::move(*replayed);
    } else {
      Materialize(doc, &dom, id);
      const uint64_t evaluations = evaluations_.Value();
      const uint64_t pruned = pruned_.Value();
      {
        ScopedSpan span(tracer_, SpanName::kClassify, id);
        classification = classifier_.Classify(*dom);
      }
      counts_.miss_evaluations += evaluations_.Value() - evaluations;
      counts_.miss_pruned += pruned_.Value() - pruned;
    }

    if (!classification.classified) {
      Materialize(doc, &dom, id);
      const int repo_id = repository_.Add(std::move(*dom));
      if (options_.cluster_repository) {
        ScopedSpan span(tracer_, SpanName::kClusterAdd, id);
        clusterer_.Add(repo_id, repository_.Get(repo_id));
      }
      return;
    }
    ++classified_;
    const std::string& name = classification.dtd_name;
    evolve::ExtendedDtd& ext = dtds_.at(name);
    {
      ScopedSpan span(tracer_, SpanName::kRecord, id);
      if (dom.has_value()) {
        recorders_.at(name)->RecordDocument(*dom);
      } else {
        recorders_.at(name)->RecordDocument(doc);
      }
    }
    if (options_.keep_documents) {
      Materialize(doc, &dom, id);
      instances_[name].push_back(std::move(*dom));
    }
    if (!options_.auto_evolve ||
        ext.documents_recorded() < options_.min_documents_before_check) {
      return;
    }
    evolve::CheckResult check;
    {
      ScopedSpan span(tracer_, SpanName::kTriggerCheck, id);
      check = evolve::CheckEvolutionTrigger(ext, options_.tau);
    }
    if (!check.should_evolve) return;
    {
      ScopedSpan span(tracer_, SpanName::kEvolve, id);
      evolve::EvolveDtd(ext, options_.evolution);
      ++evolutions_;
      ++counts_.evolutions;
      recorders_[name] = std::make_unique<evolve::Recorder>(ext);
    }
    {
      ScopedSpan span(tracer_, SpanName::kInvalidate, id);
      classifier_.Invalidate(name);
    }
    if (options_.reclassify_after_evolution) {
      counts_.reclassified_after_evolution += Reclassify(id);
    }
  }

  /// `XmlSource::InduceCandidates`; returns the pending count.
  size_t Induce(int64_t id) {
    ScopedSpan span(tracer_, SpanName::kInduce, id);
    if (options_.cluster_repository) clusterer_.Consolidate();
    candidates_.clear();
    std::vector<std::string> names;
    for (const auto& [name, ext] : dtds_) names.push_back(name);
    std::vector<induce::Candidate> induced = induce::InduceClusterCandidates(
        clusterer_.Clusters(), repository_, &classifier_, std::move(names),
        options_.induce);
    for (induce::Candidate& candidate : induced) {
      candidate.id = next_candidate_id_++;
      ++proposed_;
      candidates_.push_back(std::move(candidate));
    }
    return candidates_.size();
  }

  /// `XmlSource::AcceptCandidate` of the first pending candidate.
  bool AcceptFirst(int64_t id) {
    ScopedSpan span(tracer_, SpanName::kAccept, id);
    std::string name = candidates_.front().name;
    evolve::ExtendedDtd ext = std::move(candidates_.front().ext);
    candidates_.clear();
    if (!Register(name, std::move(ext))) return false;
    ++accepted_;
    ++counts_.accepts;
    counts_.accept_rescored += repository_.size();
    Reclassify(id);
    return true;
  }

  /// The induce round of `RunInduceRound`, staged.
  size_t InduceRound(int64_t id) {
    size_t accepts = 0;
    while (Induce(id) > 0 && accepts < kMaxAcceptsPerRound) {
      if (!AcceptFirst(id)) break;
      ++accepts;
    }
    return accepts;
  }

  TenantState State() const {
    TenantState state;
    state.processed = processed_;
    state.classified = classified_;
    state.evolutions = evolutions_;
    state.repository = repository_.size();
    const induce::ClusterStats clusters = clusterer_.GetStats();
    state.clusters = clusters.clusters;
    state.largest_cluster = clusters.largest_cluster;
    state.candidates_pending = candidates_.size();
    state.candidates_proposed = proposed_;
    state.candidates_accepted = accepted_;
    for (const auto& [name, ext] : dtds_) {
      DtdFigures figures;
      figures.recorded = ext.documents_recorded();
      figures.divergence = ext.MeanDivergence();
      state.dtds[name] = figures;
      state.dtd_texts[name] = dtdevolve::dtd::WriteDtd(ext.dtd());
    }
    return state;
  }

  uint64_t cache_hits() const { return cache_hits_.Value(); }
  uint64_t cache_misses() const { return cache_misses_.Value(); }

 private:
  static core::SourceOptions Synced(core::SourceOptions options) {
    options.induce.cluster.similarity = options.similarity;
    return options;
  }

  /// `XmlSource::AddDtd` / `RegisterInducedDtd`.
  bool Register(const std::string& name, evolve::ExtendedDtd ext) {
    if (dtds_.count(name) != 0 || !ext.dtd().Check().ok()) return false;
    auto [it, inserted] = dtds_.emplace(name, std::move(ext));
    {
      ScopedSpan span(tracer_, SpanName::kInvalidate, -1);
      classifier_.AddDtd(name, &it->second.dtd());
    }
    recorders_[name] = std::make_unique<evolve::Recorder>(it->second);
    instances_[name];
    return true;
  }

  void Materialize(const xml::ArenaDocument& doc,
                   std::optional<xml::Document>* dom, int64_t id) {
    if (dom->has_value()) return;
    ScopedSpan span(tracer_, SpanName::kToDocument, id);
    dom->emplace(doc.ToDocument());
  }

  /// `XmlSource::ReclassifyRepository` with one scoring thread.
  size_t Reclassify(int64_t id) {
    ScopedSpan span(tracer_, SpanName::kReclassify, id);
    const std::vector<int> ids = repository_.Ids();
    std::vector<const xml::Document*> docs;
    docs.reserve(ids.size());
    for (int repo_id : ids) docs.push_back(&repository_.Get(repo_id));
    std::vector<classify::ClassificationOutcome> classifications;
    {
      ScopedSpan batch(tracer_, SpanName::kClassifyBatch, id);
      classifications = classifier_.ClassifyBatch(docs, size_t{1});
    }
    size_t recovered = 0;
    for (size_t k = 0; k < ids.size(); ++k) {
      if (!classifications[k].classified) continue;
      xml::Document doc = repository_.Take(ids[k]);
      clusterer_.Remove(ids[k]);
      const std::string& name = classifications[k].dtd_name;
      {
        ScopedSpan record(tracer_, SpanName::kRecord, id);
        recorders_.at(name)->RecordDocument(doc);
      }
      ++classified_;
      if (options_.keep_documents) instances_[name].push_back(std::move(doc));
      ++recovered;
    }
    return recovered;
  }

  core::SourceOptions options_;
  Tracer& tracer_;
  StageCounts& counts_;
  dtdevolve::obs::Counter evaluations_;
  dtdevolve::obs::Counter pruned_;
  dtdevolve::obs::Counter cache_hits_;
  dtdevolve::obs::Counter cache_misses_;
  std::map<std::string, evolve::ExtendedDtd> dtds_;
  std::map<std::string, std::unique_ptr<evolve::Recorder>> recorders_;
  std::map<std::string, std::vector<xml::Document>> instances_;
  classify::Classifier classifier_;
  classify::Repository repository_;
  induce::RepositoryClusterer clusterer_;
  std::vector<induce::Candidate> candidates_;
  uint64_t next_candidate_id_ = 1;
  uint64_t proposed_ = 0;
  uint64_t accepted_ = 0;
  uint64_t processed_ = 0;
  uint64_t classified_ = 0;
  uint64_t evolutions_ = 0;
};

store::WalOptions WalOptionsFor(const WorkloadSpec& spec,
                                const std::string& dir) {
  store::WalOptions options;
  options.dir = dir;
  store::ParseFsyncPolicy(spec.fsync_policy, &options.fsync_policy);
  return options;
}

/// The request bytes the generator sends for `body`.
std::string IngestRequest(const TenantStream& stream, const std::string& body) {
  return FormatRequest("POST", "/ingest/" + stream.name + "?wait=1", body);
}

struct StagedPass {
  std::vector<TenantState> states;
  StageCounts counts;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double seconds = 0.0;
  bool ok = true;
};

/// One staged replay of every tenant's prefix, WAL appends included.
StagedPass RunStaged(const WorkloadSpec& spec, Tracer& tracer,
                     const std::string& wal_root) {
  StagedPass pass;
  const double start = NowSeconds();
  int64_t id = 0;
  for (const TenantStream& stream : spec.tenants) {
    StagedTenant tenant(ServeSourceOptions(spec.tau), tracer, pass.counts);
    for (const SeedDtd& seed : stream.seeds) pass.ok &= tenant.AddSeed(seed);
    store::WalReplay replay;
    const std::string dir = wal_root + "/" + stream.name;
    std::error_code ignored;
    fs::create_directories(dir, ignored);
    auto wal = store::Wal::Open(WalOptionsFor(spec, dir), 0, &replay);
    if (!wal.ok()) {
      pass.ok = false;
      return pass;
    }
    const size_t docs = std::min(spec.trace_docs_per_tenant, stream.docs.size());
    size_t point = 0;
    for (size_t k = 0; k < docs; ++k, ++id) {
      if (point < stream.induce_points.size() &&
          stream.induce_points[point] == k) {
        tenant.InduceRound(id);
        ++point;
      }
      const std::string request = IngestRequest(stream, stream.docs[k]);
      dtdevolve::server::HttpRequest parsed;
      {
        ScopedSpan span(tracer, SpanName::kHttpParse, id);
        dtdevolve::server::ParseHttpRequest(request, 4u << 20, &parsed);
      }
      std::optional<xml::ArenaDocument> doc;
      {
        ScopedSpan span(tracer, SpanName::kXmlParse, id);
        auto result = xml::ParseArenaDocument(parsed.body);
        if (result.ok()) doc.emplace(std::move(result).value());
      }
      if (!doc.has_value()) {
        pass.ok = false;
        continue;
      }
      pass.counts.arena_bytes += doc->arena().bytes_allocated();
      {
        ScopedSpan span(tracer, SpanName::kWalAppend, id);
        pass.ok &= (*wal)->Append(parsed.body).ok();
      }
      tenant.Apply(*doc, id);
    }
    pass.states.push_back(tenant.State());
    pass.cache_hits += tenant.cache_hits();
    pass.cache_misses += tenant.cache_misses();
  }
  pass.seconds = NowSeconds() - start;
  return pass;
}

struct SourcePass {
  std::vector<TenantState> states;
  std::vector<TenantState> recovered;
  double process_seconds = 0.0;  // inside XmlSource::ProcessText only
  double recover_seconds = 0.0;  // RecoverSource, all tenants
  std::vector<double> checkpoint_ms;
  std::vector<double> checkpoint_bytes;
  size_t documents = 0;
  bool ok = true;
};

double CheckpointBytes(const store::CheckpointData& data) {
  double bytes = static_cast<double>(data.source_state.size());
  for (const auto& [name, text] : data.dtds) {
    bytes += static_cast<double>(text.size());
  }
  return bytes;
}

/// The same inputs through `XmlSource` as a shard applies them: WAL
/// append, apply, and a checkpoint every `checkpoint_every` documents;
/// then a recovery over what it left on disk, and the final checkpoint
/// a graceful stop takes.
SourcePass RunSource(const WorkloadSpec& spec, Tracer& tracer,
                     const std::string& root, size_t checkpoint_every) {
  SourcePass pass;
  std::error_code ignored_error;
  int64_t id = 0;
  for (const TenantStream& stream : spec.tenants) {
    const std::string dir = root + "/" + stream.name;
    core::XmlSource source(ServeSourceOptions(spec.tau));
    pass.ok &= AddSeeds(stream, &source);
    fs::create_directories(dir, ignored_error);
    store::WalReplay replay;
    auto opened = store::Wal::Open(WalOptionsFor(spec, dir), 0, &replay);
    if (!opened.ok()) {
      pass.ok = false;
      return pass;
    }
    std::unique_ptr<store::Wal> wal = std::move(opened).value();
    uint64_t lsn = 0;
    // Periodic checkpoints are part of the traced pipeline; the final one
    // (a graceful stop's) is timed but kept out of the layer shares.
    Tracer untraced(false);
    auto checkpoint = [&](const std::string& into, Tracer& spans) {
      const int64_t start = NowNanos();
      store::CheckpointData data;
      {
        ScopedSpan span(spans, SpanName::kCheckpointCapture, -1);
        data = store::CaptureCheckpoint(source, lsn);
      }
      {
        ScopedSpan span(spans, SpanName::kCheckpointWrite, -1);
        pass.ok &= store::WriteCheckpoint(into, data).ok();
        if (into == dir) pass.ok &= wal->TruncateThrough(lsn).ok();
      }
      pass.checkpoint_ms.push_back(
          static_cast<double>(NowNanos() - start) / 1e6);
      pass.checkpoint_bytes.push_back(CheckpointBytes(data));
    };
    const size_t docs = std::min(spec.trace_docs_per_tenant, stream.docs.size());
    size_t point = 0;
    for (size_t k = 0; k < docs; ++k, ++id) {
      if (point < stream.induce_points.size() &&
          stream.induce_points[point] == k) {
        RunInduceRound(source, [&](const dtdevolve::induce::Candidate& c) {
          auto appended =
              wal->Append(store::EncodeInduceAcceptRecord(c.name, c.ext));
          pass.ok &= appended.ok();
          if (appended.ok()) lsn = *appended;
        });
        ++point;
      }
      auto appended = wal->Append(stream.docs[k]);
      pass.ok &= appended.ok();
      if (appended.ok()) lsn = *appended;
      const double start = NowSeconds();
      pass.ok &= source.ProcessText(stream.docs[k]).ok();
      pass.process_seconds += NowSeconds() - start;
      ++pass.documents;
      if (checkpoint_every > 0 && (k + 1) % checkpoint_every == 0) {
        checkpoint(dir, tracer);
      }
    }
    pass.states.push_back(StateOfSource(source));
    wal.reset();

    core::XmlSource recovered(ServeSourceOptions(spec.tau));
    pass.ok &= AddSeeds(stream, &recovered);
    store::RecoveryReport report;
    const double start = NowSeconds();
    auto reopened =
        store::RecoverSource(recovered, WalOptionsFor(spec, dir), &report);
    pass.recover_seconds += NowSeconds() - start;
    pass.ok &= reopened.ok();
    pass.recovered.push_back(StateOfSource(recovered));

    fs::create_directories(dir + "-final", ignored_error);
    checkpoint(dir + "-final", untraced);
  }
  return pass;
}

}  // namespace

TraceReport RunTraced(const WorkloadSpec& spec, const std::string& work_dir,
                      const std::string& spans_path) {
  TraceReport report;
  std::error_code ignored;
  fs::remove_all(work_dir, ignored);
  fs::create_directories(work_dir, ignored);

  // A first untraced pass warms the allocator and caches, so the traced
  // pass and the untraced one timed against it both run warm.
  Tracer untraced(false);
  RunStaged(spec, untraced, work_dir + "/warmup");
  Tracer tracer(true);
  const StagedPass traced = RunStaged(spec, tracer, work_dir + "/traced");
  const StagedPass plain = RunStaged(spec, untraced, work_dir + "/untraced");
  const double per_tenant_rate =
      spec.reference_rate / static_cast<double>(spec.tenants.size());
  const size_t checkpoint_every = static_cast<size_t>(
      per_tenant_rate * spec.checkpoint_interval_ms / 1000.0);
  const SourcePass source =
      RunSource(spec, tracer, work_dir + "/source", checkpoint_every);
  tracer.WriteTsv(spans_path);

  for (size_t t = 0; t < spec.tenants.size(); ++t) {
    const std::string& name = spec.tenants[t].name;
    if (t < traced.states.size() && t < source.states.size()) {
      report.mismatches += CompareStates(name + " (staged vs XmlSource)",
                                         source.states[t], traced.states[t],
                                         Compare::kLive, &report.notes);
    }
    if (t < plain.states.size() && t < source.states.size()) {
      report.mismatches += CompareStates(name + " (untraced vs XmlSource)",
                                         source.states[t], plain.states[t],
                                         Compare::kLive, &report.notes);
    }
    if (t < source.recovered.size()) {
      report.mismatches += CompareStates(name + " (recovered vs XmlSource)",
                                         source.states[t], source.recovered[t],
                                         Compare::kDurable, &report.notes);
    }
  }
  if (!plain.ok || !traced.ok || !source.ok) {
    ++report.mismatches;
    report.notes.push_back("an in-process replay step failed");
  }

  // Self time: a span's duration minus what its children cover.
  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  double layer_self[kLayerCount] = {};
  double total_ns = 0.0;
  std::vector<double> name_total(kSpanNameCount, 0.0);
  std::vector<double> name_count(kSpanNameCount, 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    const int name = static_cast<int>(span.name);
    name_total[name] += duration;
    name_count[name] += 1.0;
    layer_self[static_cast<int>(InfoOf(span.name).layer)] +=
        duration - child_ns[i];
    if (span.parent < 0) total_ns += duration;
  }
  auto mean_ns = [&](SpanName name) {
    const int n = static_cast<int>(name);
    return Ratio(name_total[n], name_count[n]);
  };
  auto count = [&](SpanName name) {
    return name_count[static_cast<int>(name)];
  };

  const StageCounts& c = traced.counts;
  report.documents = static_cast<size_t>(count(SpanName::kXmlParse));
  const double parsed = static_cast<double>(report.documents);
  std::vector<Metric>& m = report.metrics;
  m.push_back({"server.http_parse_ns", mean_ns(SpanName::kHttpParse), "ns"});
  m.push_back({"store.wal_append_us", mean_ns(SpanName::kWalAppend) / 1e3,
               "us"});
  m.push_back({"store.checkpoint_ms", Mean(source.checkpoint_ms), "ms"});
  m.push_back({"store.checkpoint_bytes", Mean(source.checkpoint_bytes),
               "bytes"});
  m.push_back({"store.recover_ms", source.recover_seconds * 1e3, "ms"});
  m.push_back({"xml.parse_ns_per_doc", mean_ns(SpanName::kXmlParse), "ns"});
  m.push_back({"xml.arena_bytes_per_doc",
               Ratio(static_cast<double>(c.arena_bytes), parsed), "bytes"});
  m.push_back({"xml.to_document_ns", mean_ns(SpanName::kToDocument), "ns"});
  m.push_back({"xml.to_document_share",
               Ratio(name_total[static_cast<int>(SpanName::kToDocument)],
                     total_ns),
               "ratio"});
  m.push_back({"classify.memo_hit_ratio",
               Ratio(static_cast<double>(c.memo_hits),
                     static_cast<double>(c.memo_probes)),
               "ratio"});
  m.push_back({"classify.memo_probe_ns", mean_ns(SpanName::kMemoProbe), "ns"});
  m.push_back({"classify.classify_ns_per_miss", mean_ns(SpanName::kClassify),
               "ns"});
  const double misses = static_cast<double>(c.memo_probes - c.memo_hits);
  m.push_back({"classify.dtds_scored_per_miss",
               Ratio(static_cast<double>(c.miss_evaluations), misses),
               "count"});
  m.push_back({"classify.pruned_ratio",
               Ratio(static_cast<double>(c.miss_pruned),
                     static_cast<double>(c.miss_pruned + c.miss_evaluations)),
               "ratio"});
  m.push_back({"similarity.score_cache_hit_ratio",
               Ratio(static_cast<double>(traced.cache_hits),
                     static_cast<double>(traced.cache_hits +
                                         traced.cache_misses)),
               "ratio"});
  m.push_back({"evolve.record_ns_per_doc", mean_ns(SpanName::kRecord), "ns"});
  m.push_back({"evolve.trigger_check_ns", mean_ns(SpanName::kTriggerCheck),
               "ns"});
  m.push_back({"evolve.evolve_ms", mean_ns(SpanName::kEvolve) / 1e6, "ms"});
  m.push_back({"evolve.evolutions", static_cast<double>(c.evolutions),
               "count"});
  m.push_back({"core.process_ns_per_doc",
               Ratio(source.process_seconds * 1e9,
                     static_cast<double>(source.documents)),
               "ns"});
  m.push_back({"core.reclassify_ms", mean_ns(SpanName::kReclassify) / 1e6,
               "ms"});
  m.push_back({"core.reclassified_per_evolution",
               Ratio(static_cast<double>(c.reclassified_after_evolution),
                     static_cast<double>(c.evolutions)),
               "count"});
  m.push_back({"induce.induce_ms", mean_ns(SpanName::kInduce) / 1e6, "ms"});
  m.push_back({"induce.accept_ms", mean_ns(SpanName::kAccept) / 1e6, "ms"});
  m.push_back({"induce.accept_rescored_docs",
               Ratio(static_cast<double>(c.accept_rescored),
                     static_cast<double>(c.accepts)),
               "count"});
  for (int layer = 0; layer < kLayerCount; ++layer) {
    m.push_back({std::string("self.") + LayerName(static_cast<Layer>(layer)) +
                     "_share",
                 Ratio(layer_self[layer], total_ns), "ratio"});
  }
  m.push_back({"trace.total_ns_per_doc", Ratio(total_ns, parsed), "ns"});
  m.push_back({"trace.overhead_ratio", Ratio(traced.seconds, plain.seconds),
               "ratio"});
  return report;
}

}  // namespace perfbench
