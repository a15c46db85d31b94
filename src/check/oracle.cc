#include "check/oracle.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/report.h"
#include "core/source.h"
#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "dtd/glushkov.h"
#include "store/induce_record.h"
#include "evolve/persist.h"
#include "evolve/windows.h"
#include "io/fault.h"
#include "mining/rules.h"
#include "similarity/score_cache.h"
#include "store/checkpoint.h"
#include "store/wal.h"
#include "validate/validator.h"
#include "xml/parser.h"
#include "xml/stream_reader.h"
#include "workload/mutator.h"
#include "workload/rng.h"
#include "workload/scenarios.h"
#include "xml/document.h"
#include "xml/writer.h"

namespace dtdevolve::check {

namespace {

/// Per-scenario violation cap: one genuine divergence tends to cascade
/// (every later accounting check also fails), so collecting everything
/// buries the root cause.
constexpr size_t kMaxViolationsPerScenario = 24;

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Truncate(std::string_view s, size_t limit = 160) {
  if (s.size() <= limit) return std::string(s);
  return std::string(s.substr(0, limit)) + "…";
}

std::string EscapeNewlines(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// First line where two line-oriented strings disagree, for diagnostics.
std::string FirstDifference(const std::string& a, const std::string& b) {
  size_t line = 1, ia = 0, ib = 0;
  while (ia < a.size() || ib < b.size()) {
    size_t ea = a.find('\n', ia);
    if (ea == std::string::npos) ea = a.size();
    size_t eb = b.find('\n', ib);
    if (eb == std::string::npos) eb = b.size();
    std::string_view la(a.data() + ia, ea - ia);
    std::string_view lb(b.data() + ib, eb - ib);
    if (la != lb) {
      return "line " + std::to_string(line) + ": sequential \"" +
             Truncate(la) + "\" vs batch \"" + Truncate(lb) + "\"";
    }
    ia = ea + 1;
    ib = eb + 1;
    ++line;
  }
  return "identical lines but different lengths";
}

template <typename Fn>
void ForEachElement(const xml::Element& element, const std::string& tag,
                    Fn&& fn) {
  if (element.tag() == tag) fn(element);
  for (const xml::Element* child : element.ChildElements()) {
    ForEachElement(*child, tag, fn);
  }
}

std::string RenderLabelSet(const std::set<std::string>& labels) {
  std::string out = "{";
  for (const std::string& label : labels) {
    if (out.size() > 1) out += ", ";
    out += label;
  }
  return out + "}";
}

/// Does the automaton accept *some* word that uses every label of
/// `labels` at least once and nothing else (#PCDATA aside)? Recorded
/// sequences disregard order and repetition, so this commutative-closure
/// test is exactly what the rebuilt declaration promises a µ-frequent
/// structure. BFS over (reachable NFA state set, labels consumed so far).
bool AcceptsSomeWordOver(const dtd::Automaton& automaton,
                         const std::set<std::string>& labels) {
  if (automaton.is_any()) return true;
  std::vector<std::string> label_list(labels.begin(), labels.end());
  size_t n = label_list.size();
  if (n > 31) return true;  // out of scope for the bitmask; never in practice
  uint32_t full = static_cast<uint32_t>((1u << n) - 1);

  using SearchNode = std::pair<std::vector<int>, uint32_t>;
  auto accepting = [&](const SearchNode& node) {
    if (node.second != full) return false;
    for (int state : node.first) {
      if (automaton.IsAccepting(state)) return true;
    }
    return false;
  };

  std::set<SearchNode> seen;
  std::vector<SearchNode> frontier;
  SearchNode start{{0}, 0};
  if (accepting(start)) return true;
  seen.insert(start);
  frontier.push_back(std::move(start));
  const std::string pcdata(dtd::kPcdataSymbol);

  while (!frontier.empty()) {
    SearchNode node = std::move(frontier.back());
    frontier.pop_back();
    for (size_t li = 0; li <= n; ++li) {
      const std::string& label = li < n ? label_list[li] : pcdata;
      uint32_t mask =
          li < n ? (node.second | (1u << static_cast<uint32_t>(li)))
                 : node.second;
      std::set<int> next_states;
      for (int state : node.first) {
        for (int pos : automaton.SuccessorsOf(state)) {
          if (automaton.LabelOfPosition(pos) == label) {
            next_states.insert(pos + 1);
          }
        }
      }
      if (next_states.empty()) continue;
      SearchNode next{{next_states.begin(), next_states.end()}, mask};
      if (!seen.insert(next).second) continue;
      if (accepting(next)) return true;
      frontier.push_back(std::move(next));
    }
  }
  return false;
}

// --- Scenario synthesis -----------------------------------------------------

/// A fully materialized scenario: the initial DTD set, the exact document
/// stream, and the pipeline thresholds — everything a replica needs to
/// reproduce the run bit-for-bit.
struct Scenario {
  std::string label;
  core::SourceOptions options;
  std::vector<std::pair<std::string, dtd::Dtd>> dtds;
  std::vector<xml::Document> documents;
};

workload::ScenarioStream MakeStream(size_t kind, uint64_t seed,
                                    uint64_t docs_per_phase) {
  switch (kind) {
    case 0:
      return workload::MakeBibliographyScenario(seed, docs_per_phase);
    case 1:
      return workload::MakeCatalogScenario(seed, docs_per_phase);
    case 2:
      return workload::MakeNewsScenario(seed, docs_per_phase);
    default:
      return workload::MakeForumScenario(seed, docs_per_phase);
  }
}

/// Derives a whole scenario from one seed. Generation never depends on
/// `max_documents` (the cap only truncates the finished stream), so every
/// prefix run sees exactly the documents of the full run — the property
/// `MinimizeFailure` relies on.
Scenario MakeScenario(uint64_t seed, uint64_t max_documents) {
  // Decorrelate from callers that hand out consecutive seeds.
  workload::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
  Scenario scenario;

  uint64_t docs_per_phase = 12 + rng.Uniform(24);
  size_t num_streams = rng.Chance(0.4) ? 2 : 1;
  size_t first = rng.Uniform(4);
  size_t second = (first + 1 + rng.Uniform(3)) % 4;

  std::vector<workload::ScenarioStream> streams;
  streams.push_back(MakeStream(first, rng.Next(), docs_per_phase));
  if (num_streams == 2) {
    streams.push_back(MakeStream(second, rng.Next(), docs_per_phase));
  }

  scenario.options.sigma = 0.25 + 0.2 * rng.NextDouble();
  scenario.options.tau = 0.08 + 0.15 * rng.NextDouble();
  scenario.options.min_documents_before_check = 4 + rng.Uniform(8);
  // The oracle keeps its own document copies; the source need not.
  scenario.options.keep_documents = false;
  scenario.options.evolution.psi = 0.05 + 0.25 * rng.NextDouble();
  scenario.options.evolution.min_support = 0.02 + 0.13 * rng.NextDouble();

  for (const workload::ScenarioStream& stream : streams) {
    if (!scenario.label.empty()) scenario.label += "+";
    scenario.label += stream.name();
    scenario.dtds.emplace_back(stream.name(), stream.InitialDtd());
  }

  bool mutate = rng.Chance(0.5);
  std::unique_ptr<workload::Mutator> mutator;
  if (mutate) {
    workload::MutationOptions mo;
    mo.drop_probability = 0.02 + 0.04 * rng.NextDouble();
    mo.insert_probability = 0.02 + 0.04 * rng.NextDouble();
    mo.duplicate_probability = 0.02 + 0.04 * rng.NextDouble();
    mo.swap_probability = 0.02 + 0.04 * rng.NextDouble();
    mutator = std::make_unique<workload::Mutator>(mo, rng.Next());
    scenario.label += " mutated";
  }

  std::vector<size_t> alive;
  while (true) {
    alive.clear();
    for (size_t s = 0; s < streams.size(); ++s) {
      if (!streams[s].Done()) alive.push_back(s);
    }
    if (alive.empty()) break;
    size_t pick = alive[rng.Uniform(static_cast<uint32_t>(alive.size()))];
    xml::Document doc = streams[pick].Next();
    if (mutator) mutator->Mutate(doc);
    scenario.documents.push_back(std::move(doc));
  }
  if (max_documents != 0 && scenario.documents.size() > max_documents) {
    scenario.documents.resize(max_documents);
  }
  return scenario;
}

/// Derives an induction scenario from one seed: one drift family's
/// initial DTD as the only seed, its stream interleaved with a
/// mixed-population stream whose root tags the seed set never matches —
/// the mixed documents drain into the repository and feed clustering.
/// Like `MakeScenario`, generation never depends on `max_documents`.
Scenario MakeInductionScenario(uint64_t seed, uint64_t max_documents) {
  workload::Rng rng(seed * 0xBF58476D1CE4E5B9ull + 0x94D049BB133111EBull);
  Scenario scenario;

  const size_t families = 2 + rng.Uniform(3);          // 2..4
  const uint64_t docs_per_family = 6 + rng.Uniform(8);  // 6..13
  const size_t seed_kind = rng.Uniform(4);

  std::vector<workload::ScenarioStream> streams;
  streams.push_back(MakeStream(seed_kind, rng.Next(), 6 + rng.Uniform(8)));
  streams.push_back(workload::MakeMixedPopulationScenario(
      rng.Next(), families, docs_per_family));

  // σ high enough that the mixed families stay unclassified, low enough
  // that the seed family's own documents keep classifying.
  scenario.options.sigma = 0.4 + 0.2 * rng.NextDouble();
  scenario.options.tau = 0.08 + 0.15 * rng.NextDouble();
  scenario.options.min_documents_before_check = 4 + rng.Uniform(8);
  scenario.options.auto_evolve = rng.Chance(0.5);
  scenario.options.keep_documents = false;
  scenario.options.induce.cluster.min_cluster_size = 2;

  scenario.label = "induction " + streams[0].name() + "+" +
                   streams[1].name();
  scenario.dtds.emplace_back(streams[0].name(), streams[0].InitialDtd());

  std::vector<size_t> alive;
  while (true) {
    alive.clear();
    for (size_t s = 0; s < streams.size(); ++s) {
      if (!streams[s].Done()) alive.push_back(s);
    }
    if (alive.empty()) break;
    size_t pick = alive[rng.Uniform(static_cast<uint32_t>(alive.size()))];
    scenario.documents.push_back(streams[pick].Next());
  }
  if (max_documents != 0 && scenario.documents.size() > max_documents) {
    scenario.documents.resize(max_documents);
  }
  return scenario;
}

/// Best pending candidate: highest coverage, ties to the lowest id.
/// The reference run, the batch replicas and the durable crash pipeline
/// all promote with this rule, so their op sequences stay in lockstep.
const induce::Candidate* BestCandidate(const core::XmlSource& src) {
  const induce::Candidate* best = nullptr;
  for (const induce::Candidate& candidate : src.candidates()) {
    if (best == nullptr || candidate.coverage > best->coverage ||
        (candidate.coverage == best->coverage && candidate.id < best->id)) {
      best = &candidate;
    }
  }
  return best;
}

/// Accept rounds are capped: a cluster whose members never re-classify
/// would otherwise re-induce under a fresh name forever.
constexpr size_t kMaxAcceptRounds = 6;

// --- Fingerprints (invariant 3) ---------------------------------------------

using Fingerprint = std::vector<std::pair<std::string, std::string>>;

/// Serializes every observable a batch run could diverge on: outcomes,
/// the event log, the loop counters, the repository ids, and per DTD the
/// declarations plus the full extended-DTD recording state. Byte equality
/// of fingerprints is the "identical at any jobs level" claim.
Fingerprint FingerprintOf(
    const core::XmlSource& src,
    const std::vector<core::XmlSource::ProcessOutcome>& outcomes) {
  Fingerprint fp;

  std::string o;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const core::XmlSource::ProcessOutcome& out = outcomes[i];
    o += std::to_string(i) + " " + (out.classified ? "C" : "U") + " " +
         out.dtd_name + " " + FormatDouble(out.similarity) + " " +
         (out.evolved ? "E" : "-") + " " + std::to_string(out.reclassified) +
         "\n";
  }
  fp.emplace_back("outcomes", std::move(o));

  std::string e;
  for (const core::SourceEvent& event : src.EventsSince(0).events) {
    e += core::EventKindName(event.kind) + " " + event.dtd_name + " " +
         FormatDouble(event.similarity) + " " +
         std::to_string(event.document_index) + " " +
         EscapeNewlines(event.detail) + "\n";
  }
  fp.emplace_back("events", std::move(e));

  std::string c = std::to_string(src.documents_processed()) + " " +
                  std::to_string(src.documents_classified()) + " " +
                  std::to_string(src.evolutions_performed()) + " " +
                  std::to_string(src.repository().size()) + "\n";
  fp.emplace_back("counters", std::move(c));

  std::string r;
  for (int id : src.repository().Ids()) r += std::to_string(id) + "\n";
  fp.emplace_back("repository", std::move(r));

  for (const std::string& name : src.DtdNames()) {
    fp.emplace_back("dtd:" + name, dtd::WriteDtd(*src.FindDtd(name)));
    fp.emplace_back("state:" + name,
                    evolve::SerializeExtendedDtd(*src.FindExtended(name)));
  }
  return fp;
}

// --- The sequential reference run -------------------------------------------

/// Aggregates recomputed from raw documents with a fresh Validator —
/// the independent side of the trigger-accounting check.
struct IndependentTally {
  uint64_t docs = 0;
  uint64_t total_elements = 0;
  uint64_t invalid_elements = 0;
  double divergence_sum = 0.0;
};

/// Mirror of one DTD's recording state, maintained outside XmlSource.
/// `ext` replays every recorded document into an independent copy, so when
/// an evolution fires (and the primary immediately resets its stats) the
/// oracle still holds the pre-evolution statistics that *drove* the
/// evolution — that is what window prediction and the µ filter need.
struct Shadow {
  evolve::ExtendedDtd ext;
  std::unique_ptr<evolve::Recorder> recorder;
  std::unique_ptr<validate::Validator> validator;
  /// Clones of the documents recorded since the last evolution (DOC_cur).
  std::vector<xml::Document> current_docs;
  IndependentTally tally;

  explicit Shadow(dtd::Dtd dtd) : ext(std::move(dtd)) {
    recorder = std::make_unique<evolve::Recorder>(ext);
    validator = std::make_unique<validate::Validator>(ext.dtd());
  }
};

class ReferenceRun {
 public:
  ReferenceRun(const Scenario& scenario, const OracleOptions& options,
               ScenarioResult& result)
      : scenario_(&scenario), options_(&options), result_(&result),
        src_(scenario.options) {
    for (const auto& [name, dtd] : scenario.dtds) {
      Status st = src_.AddDtd(name, dtd.Clone());
      if (!st.ok()) {
        AddViolation("setup", name, 0, st.message());
        continue;
      }
      shadows_[name] = std::make_unique<Shadow>(dtd.Clone());
    }
  }

  void Feed(const xml::Document& doc, uint64_t index) {
    const uint64_t events_before = src_.events_total();
    core::XmlSource::ProcessOutcome out = src_.Process(doc.Clone());
    outcomes_.push_back(out);

    if (out.classified) {
      // Recording happened before any evolution, so mirror first: the
      // triggering document is part of the pre-evolution statistics.
      MirrorClassified(out.dtd_name, doc);
    } else {
      repo_mirror_.emplace(next_repo_id_, doc.Clone());
    }
    if (!out.classified) ++next_repo_id_;

    if (out.evolved) {
      CheckEvolutionInvariants(out.dtd_name, index);
      if (options_->check_persistence) {
        // The pre-evolution shadow carries the richest recording state
        // (sequences, groups, plus structures) — the interesting input
        // for the round-trip.
        CheckPersistence(shadows_.at(out.dtd_name)->ext, out.dtd_name, index);
      }
      ResyncShadow(out.dtd_name);
      MirrorReclassified(out, events_before, index);
    }
    CheckAccounting(index);
  }

  void Finish() {
    if (options_->check_persistence) {
      for (const std::string& name : src_.DtdNames()) {
        CheckPersistence(*src_.FindExtended(name), name,
                         scenario_->documents.size());
      }
    }
  }

  const core::XmlSource& source() const { return src_; }
  const std::vector<core::XmlSource::ProcessOutcome>& outcomes() const {
    return outcomes_;
  }

 private:
  void AddViolation(std::string invariant, std::string dtd_name,
                    uint64_t index, std::string detail) {
    if (result_->violations.size() >= kMaxViolationsPerScenario) return;
    result_->violations.push_back({std::move(invariant), std::move(dtd_name),
                                   index, std::move(detail)});
  }

  void MirrorClassified(const std::string& name, const xml::Document& doc) {
    if (!doc.has_root()) return;
    Shadow& shadow = *shadows_.at(name);
    shadow.recorder->RecordDocument(doc);
    validate::ValidationResult vr = shadow.validator->ValidateSubtree(doc.root());
    shadow.tally.docs += 1;
    shadow.tally.total_elements += vr.total_elements;
    shadow.tally.invalid_elements += vr.invalid_elements;
    shadow.tally.divergence_sum += vr.InvalidFraction();
    shadow.current_docs.push_back(doc.Clone());
  }

  void ResyncShadow(const std::string& name) {
    shadows_[name] = std::make_unique<Shadow>(src_.FindDtd(name)->Clone());
  }

  /// After an evolution the source re-classifies the repository in
  /// ascending-id order; the ids that disappeared map 1:1, in order, onto
  /// the kReclassified events appended this step. Mirror those documents
  /// into their new DTD's shadow.
  void MirrorReclassified(const core::XmlSource::ProcessOutcome& out,
                          uint64_t events_before, uint64_t index) {
    std::set<int> still;
    for (int id : src_.repository().Ids()) still.insert(id);
    std::vector<int> removed;
    for (const auto& [id, doc] : repo_mirror_) {
      if (still.count(id) == 0) removed.push_back(id);
    }
    const core::EventPage step = src_.EventsSince(events_before);
    std::vector<const core::SourceEvent*> reclassified;
    for (const core::SourceEvent& event : step.events) {
      if (event.kind == core::SourceEvent::Kind::kReclassified) {
        reclassified.push_back(&event);
      }
    }
    if (reclassified.size() != removed.size() ||
        removed.size() != out.reclassified) {
      AddViolation("reclassify-accounting", out.dtd_name, index,
                   "outcome reports " + std::to_string(out.reclassified) +
                       " reclassified, " + std::to_string(reclassified.size()) +
                       " events logged, " + std::to_string(removed.size()) +
                       " documents left the repository");
      return;
    }
    for (size_t k = 0; k < removed.size(); ++k) {
      MirrorClassified(reclassified[k]->dtd_name, repo_mirror_.at(removed[k]));
      repo_mirror_.erase(removed[k]);
    }
  }

  /// Invariants 1 and 2: replay the recorded documents of DOC_cur against
  /// the old and the evolved declaration of every element that recorded
  /// instances, with the window the pre-evolution statistics predict.
  void CheckEvolutionInvariants(const std::string& name, uint64_t index) {
    Shadow& shadow = *shadows_.at(name);
    const dtd::Dtd& old_dtd = shadow.ext.dtd();
    const dtd::Dtd* new_dtd = src_.FindDtd(name);
    if (new_dtd == nullptr) {
      AddViolation("evolved-dtd-consistent", name, index,
                   "DTD disappeared after evolution");
      return;
    }
    Status st = new_dtd->Check();
    if (!st.ok()) {
      AddViolation("evolved-dtd-consistent", name, index, st.message());
    }
    double psi = src_.options().evolution.psi;
    double mu = src_.options().evolution.min_support;

    for (const std::string& el_name : old_dtd.ElementNames()) {
      const evolve::ElementStats* stats = shadow.ext.FindStats(el_name);
      if (stats == nullptr || stats->total_instances() == 0) continue;
      const dtd::ElementDecl* old_decl = old_dtd.FindElement(el_name);
      const dtd::ElementDecl* new_decl = new_dtd->FindElement(el_name);
      if (old_decl == nullptr || old_decl->content == nullptr) continue;
      if (new_decl == nullptr || new_decl->content == nullptr) {
        // Declarations only vanish through the (disabled) orphan cleanup.
        AddViolation("evolved-dtd-consistent", name, index,
                     "declaration of " + el_name + " vanished");
        continue;
      }
      evolve::Window window =
          evolve::ClassifyWindow(stats->InvalidityRatio(), psi);
      dtd::Automaton new_auto = dtd::Automaton::Build(*new_decl->content);

      if (window == evolve::Window::kNew) {
        // The new window rebuilds from the recorded sequences, which are
        // tag *sets* (order and repetition disregarded), filtered by µ.
        // The promise is therefore set-level: every µ-surviving structure
        // must be representable under the rebuilt declaration — mirror
        // the builder's own filtering exactly.
        mining::SequenceRuleOracle rule_oracle(stats->SequenceList(),
                                               stats->LabelUniverse(), mu);
        size_t reported = 0;
        for (const auto& [labels, count] : rule_oracle.frequent_sequences()) {
          if (reported >= 3) break;
          if (!AcceptsSomeWordOver(new_auto, labels)) {
            AddViolation("new-window-validity", name, index,
                         "rebuilt declaration of " + el_name +
                             " admits no instance with µ-frequent structure " +
                             RenderLabelSet(labels));
            ++reported;
          }
        }
        continue;
      }

      dtd::Automaton old_auto = dtd::Automaton::Build(*old_decl->content);
      size_t reported = 0;
      for (const xml::Document& doc : shadow.current_docs) {
        if (!doc.has_root() || reported >= 3) continue;
        ForEachElement(doc.root(), el_name, [&](const xml::Element& el) {
          if (reported >= 3) return;
          std::vector<std::string> symbols = validate::ContentSymbols(el);
          if (old_auto.Accepts(symbols) && !new_auto.Accepts(symbols)) {
            AddViolation(window == evolve::Window::kOld
                             ? "restriction-preserves-validity"
                             : "misc-preserves-validity",
                         name, index,
                         el_name + " instance valid under old declaration "
                                   "rejected by evolved one (window " +
                             evolve::WindowName(window) + ")");
            ++reported;
          }
        });
      }
    }
  }

  /// Invariant 4: serialize → deserialize → re-serialize is a byte-level
  /// fixed point, and the Save/Load file round-trip yields the same state.
  void CheckPersistence(const evolve::ExtendedDtd& ext, const std::string& name,
                        uint64_t index) {
    std::string first = evolve::SerializeExtendedDtd(ext);
    StatusOr<evolve::ExtendedDtd> reread =
        evolve::DeserializeExtendedDtd(first);
    if (!reread.ok()) {
      AddViolation("persist-fixed-point", name, index,
                   "deserialize failed: " + reread.status().message());
      return;
    }
    std::string second = evolve::SerializeExtendedDtd(*reread);
    if (first != second) {
      AddViolation("persist-fixed-point", name, index,
                   FirstDifference(first, second));
      return;
    }

    static std::atomic<uint64_t> temp_counter{0};
    std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("dtdevolve-oracle-" + std::to_string(::getpid()) + "-" +
         std::to_string(temp_counter.fetch_add(1)) + ".snapshot");
    Status saved = evolve::SaveExtendedDtdFile(ext, path.string());
    if (!saved.ok()) {
      AddViolation("persist-fixed-point", name, index,
                   "save failed: " + saved.message());
      return;
    }
    StatusOr<evolve::ExtendedDtd> loaded =
        evolve::LoadExtendedDtdFile(path.string());
    std::error_code ec;
    std::filesystem::remove(path, ec);
    if (!loaded.ok()) {
      AddViolation("persist-fixed-point", name, index,
                   "load failed: " + loaded.status().message());
      return;
    }
    std::string from_file = evolve::SerializeExtendedDtd(*loaded);
    if (from_file != first) {
      AddViolation("persist-fixed-point", name, index,
                   "file round-trip diverged: " +
                       FirstDifference(first, from_file));
    }
  }

  /// Invariant 5: the primary's trigger aggregates equal the independent
  /// recount. Runs after every document — the aggregates feed the τ check
  /// on the very next classification, so drift must be caught immediately.
  void CheckAccounting(uint64_t index) {
    for (const auto& [name, shadow] : shadows_) {
      const evolve::ExtendedDtd* ext = src_.FindExtended(name);
      if (ext == nullptr) {
        AddViolation("trigger-accounting", name, index, "extended DTD missing");
        continue;
      }
      const IndependentTally& tally = shadow->tally;
      bool counters_match = ext->documents_recorded() == tally.docs &&
                            ext->total_elements_recorded() ==
                                tally.total_elements &&
                            ext->invalid_elements_recorded() ==
                                tally.invalid_elements;
      double tolerance = 1e-9 * (1.0 + static_cast<double>(tally.docs));
      bool divergence_match =
          std::fabs(ext->divergence_sum() - tally.divergence_sum) <= tolerance;
      if (counters_match && divergence_match) continue;
      std::ostringstream detail;
      detail << "recorded docs/elements/invalid/divergence "
             << ext->documents_recorded() << "/"
             << ext->total_elements_recorded() << "/"
             << ext->invalid_elements_recorded() << "/"
             << FormatDouble(ext->divergence_sum()) << " vs independent "
             << tally.docs << "/" << tally.total_elements << "/"
             << tally.invalid_elements << "/"
             << FormatDouble(tally.divergence_sum);
      AddViolation("trigger-accounting", name, index, detail.str());
    }
  }

  const Scenario* scenario_;
  const OracleOptions* options_;
  ScenarioResult* result_;
  core::XmlSource src_;
  std::map<std::string, std::unique_ptr<Shadow>> shadows_;
  std::map<int, xml::Document> repo_mirror_;
  int next_repo_id_ = 0;
  std::vector<core::XmlSource::ProcessOutcome> outcomes_;
};

// --- Batch replicas (invariant 3) -------------------------------------------

Fingerprint RunBatchReplica(const Scenario& scenario, size_t jobs) {
  core::XmlSource src(scenario.options);
  for (const auto& [name, dtd] : scenario.dtds) {
    (void)src.AddDtd(name, dtd.Clone());
  }
  std::vector<xml::Document> docs;
  docs.reserve(scenario.documents.size());
  for (const xml::Document& doc : scenario.documents) {
    docs.push_back(doc.Clone());
  }
  std::vector<core::XmlSource::ProcessOutcome> outcomes =
      src.ProcessBatch(std::move(docs), jobs);
  return FingerprintOf(src, outcomes);
}

void CompareFingerprints(const Fingerprint& reference,
                         const Fingerprint& batch, size_t jobs,
                         ScenarioResult& result) {
  if (result.violations.size() >= kMaxViolationsPerScenario) return;
  if (reference.size() != batch.size()) {
    result.violations.push_back(
        {"batch-divergence", "", 0,
         "jobs=" + std::to_string(jobs) + ": fingerprint has " +
             std::to_string(batch.size()) + " sections, expected " +
             std::to_string(reference.size())});
    return;
  }
  for (size_t i = 0; i < reference.size(); ++i) {
    if (reference[i].first != batch[i].first ||
        reference[i].second != batch[i].second) {
      result.violations.push_back(
          {"batch-divergence", "", 0,
           "jobs=" + std::to_string(jobs) + ": section " +
               reference[i].first + " differs — " +
               FirstDifference(reference[i].second, batch[i].second)});
      return;  // first divergent section is the diagnostic; rest cascades
    }
  }
}

}  // namespace

ScenarioResult RunScenario(uint64_t scenario_seed,
                           const OracleOptions& options) {
  Scenario scenario = MakeScenario(scenario_seed, options.max_documents);
  ScenarioResult result;
  result.seed = scenario_seed;
  result.scenario = scenario.label;
  result.documents = scenario.documents.size();

  ReferenceRun reference(scenario, options, result);
  for (size_t i = 0; i < scenario.documents.size(); ++i) {
    reference.Feed(scenario.documents[i], i);
  }
  reference.Finish();
  result.evolutions = reference.source().evolutions_performed();
  // The event section of the fingerprint covers the whole log only while
  // the bounded log has overwritten nothing.
  if (reference.source().events_total() >
      core::XmlSource::kEventCapacity) {
    result.violations.push_back(
        {"event-log-complete", "", 0,
         std::to_string(reference.source().events_total()) +
             " events exceed the retained " +
             std::to_string(core::XmlSource::kEventCapacity)});
  }

  Fingerprint reference_fp =
      FingerprintOf(reference.source(), reference.outcomes());
  for (size_t jobs : options.jobs) {
    CompareFingerprints(reference_fp, RunBatchReplica(scenario, jobs), jobs,
                        result);
  }
  return result;
}

OracleReport RunOracle(const OracleOptions& options) {
  OracleReport report;
  for (uint64_t i = 0; i < options.scenarios; ++i) {
    ScenarioResult result = RunScenario(options.seed + i, options);
    ++report.scenarios_run;
    report.documents += result.documents;
    report.evolutions += result.evolutions;
    if (!result.ok()) {
      report.failures.push_back(std::move(result));
      if (report.failures.size() >= options.max_failures) break;
    }
  }
  return report;
}

ScenarioResult MinimizeFailure(uint64_t scenario_seed,
                               const OracleOptions& options) {
  ScenarioResult full = RunScenario(scenario_seed, options);
  if (full.ok() || full.documents <= 1) return full;

  OracleOptions shrunk = options;
  uint64_t lo = 1, hi = full.documents;
  ScenarioResult best = std::move(full);
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    shrunk.max_documents = mid;
    ScenarioResult attempt = RunScenario(scenario_seed, shrunk);
    if (!attempt.ok()) {
      hi = mid;
      best = std::move(attempt);
    } else {
      lo = mid + 1;
    }
  }
  return best;
}

std::string FormatScenario(const ScenarioResult& result) {
  std::ostringstream out;
  out << "scenario seed=" << result.seed << " (" << result.scenario << "): "
      << result.documents << " documents, " << result.evolutions
      << " evolutions";
  if (result.ok()) {
    out << " — OK\n";
    return out.str();
  }
  out << " — " << result.violations.size() << " violation"
      << (result.violations.size() == 1 ? "" : "s") << "\n";
  for (const Violation& v : result.violations) {
    out << "  [" << v.invariant << "] doc " << v.document_index;
    if (!v.dtd_name.empty()) out << " dtd=" << v.dtd_name;
    out << ": " << v.detail << "\n";
  }
  return out.str();
}

// --- Crash-recovery oracle --------------------------------------------------

namespace {

/// Pipeline state restricted to what the durability layer promises to
/// preserve across a crash: the loop counters, the repository (ids and
/// document bytes), and per DTD the declarations plus the extended
/// recording state. The event log and kept instances are process-local
/// by design and excluded.
Fingerprint CrashFingerprintOf(const core::XmlSource& src) {
  Fingerprint fp;
  std::string c = std::to_string(src.documents_processed()) + " " +
                  std::to_string(src.documents_classified()) + " " +
                  std::to_string(src.evolutions_performed()) + "\n";
  fp.emplace_back("counters", std::move(c));

  xml::WriteOptions compact;
  compact.indent = false;
  std::string r;
  for (int id : src.repository().Ids()) {
    r += std::to_string(id) + " " +
         xml::WriteDocument(src.repository().Get(id), compact) + "\n";
  }
  fp.emplace_back("repository", std::move(r));

  for (const std::string& name : src.DtdNames()) {
    fp.emplace_back("dtd:" + name, dtd::WriteDtd(*src.FindDtd(name)));
    fp.emplace_back("state:" + name,
                    evolve::SerializeExtendedDtd(*src.FindExtended(name)));
  }
  return fp;
}

std::string FingerprintDiff(const Fingerprint& expected,
                            const Fingerprint& actual) {
  if (expected.size() != actual.size()) {
    return "fingerprint has " + std::to_string(actual.size()) +
           " sections, expected " + std::to_string(expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].first != actual[i].first) {
      return "section " + std::to_string(i) + " is " + actual[i].first +
             ", expected " + expected[i].first;
    }
    if (expected[i].second != actual[i].second) {
      return "section " + expected[i].first + " differs — " +
             FirstDifference(expected[i].second, actual[i].second);
    }
  }
  return "fingerprints equal";
}

struct DurableRun {
  size_t acked = 0;        // appends that returned OK and were applied
  bool completed = false;  // reached the end without a fault firing
};

/// One durable-pipeline execution over `texts` in `dir`: WAL append
/// before every apply, a checkpoint (plus WAL truncation) every
/// `checkpoint_every` acked documents. Stops at the first failed append
/// — from the crash point on the simulated process is dead to the disk,
/// so continuing would be fiction. Mirrors the ingest server's ordering
/// exactly; the server itself cannot be swept this densely because a
/// real crash point would have to kill real threads. With `induction`
/// the run ends with the candidate lifecycle — induce, then WAL-append
/// an induce-accept record before each apply, the server's accept
/// ordering — so the sweep's crash points land on that record type too.
DurableRun RunDurablePipeline(const Scenario& scenario,
                              const std::vector<std::string>& texts,
                              const std::string& dir,
                              uint64_t checkpoint_every, bool induction) {
  DurableRun run;
  core::XmlSource src(scenario.options);
  for (const auto& [name, dtd] : scenario.dtds) {
    (void)src.AddDtd(name, dtd.Clone());
  }
  store::WalOptions wal_options;
  wal_options.dir = dir;
  StatusOr<std::unique_ptr<store::Wal>> wal =
      store::RecoverSource(src, wal_options, nullptr);
  if (!wal.ok()) return run;  // the crash hit a boot-time I/O op
  uint64_t since_checkpoint = 0;
  auto maybe_checkpoint = [&](uint64_t lsn) {
    if (checkpoint_every == 0 || ++since_checkpoint < checkpoint_every) return;
    since_checkpoint = 0;
    store::CheckpointData data = store::CaptureCheckpoint(src, lsn);
    if (store::WriteCheckpoint(dir, data).ok()) {
      (void)(*wal)->TruncateThrough(lsn);
    }
  };
  for (const std::string& text : texts) {
    StatusOr<uint64_t> lsn = (*wal)->Append(text);
    if (!lsn.ok()) return run;
    (void)src.ProcessText(text);
    ++run.acked;
    maybe_checkpoint(*lsn);
  }
  if (induction) {
    src.InduceCandidates();
    for (size_t round = 0; round < kMaxAcceptRounds; ++round) {
      const induce::Candidate* best = BestCandidate(src);
      if (best == nullptr) break;
      const std::string record =
          store::EncodeInduceAcceptRecord(best->name, best->ext);
      StatusOr<uint64_t> lsn = (*wal)->Append(record);
      if (!lsn.ok()) return run;
      StatusOr<core::XmlSource::AcceptOutcome> outcome =
          src.AcceptCandidate(best->id, 1);
      if (!outcome.ok()) return run;
      ++run.acked;
      maybe_checkpoint(*lsn);
      if (outcome->reclassified == 0) break;
      src.InduceCandidates();
    }
  }
  run.completed = true;
  return run;
}

/// Boots a fresh pipeline from whatever the crashed run left in `dir`
/// and fingerprints the recovered state.
StatusOr<Fingerprint> RecoverFingerprint(const Scenario& scenario,
                                         const std::string& dir) {
  core::XmlSource src(scenario.options);
  for (const auto& [name, dtd] : scenario.dtds) {
    (void)src.AddDtd(name, dtd.Clone());
  }
  store::WalOptions wal_options;
  wal_options.dir = dir;
  store::RecoveryReport report;
  StatusOr<std::unique_ptr<store::Wal>> wal =
      store::RecoverSource(src, wal_options, &report);
  if (!wal.ok()) return wal.status();
  return CrashFingerprintOf(src);
}

std::string CrashTempDir(uint64_t seed, uint64_t point) {
  static std::atomic<uint64_t> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("dtdevolve-crash-" + std::to_string(::getpid()) + "-" +
           std::to_string(seed) + "-" + std::to_string(point) + "-" +
           std::to_string(counter.fetch_add(1))))
      .string();
}

}  // namespace

ScenarioResult RunCrashScenario(uint64_t scenario_seed,
                                const CrashOracleOptions& options,
                                uint64_t* crash_points) {
  Scenario scenario =
      options.induction
          ? MakeInductionScenario(scenario_seed, options.max_documents)
          : MakeScenario(scenario_seed, options.max_documents);
  ScenarioResult result;
  result.seed = scenario_seed;
  result.scenario = scenario.label;
  result.documents = scenario.documents.size();

  auto add_violation = [&result](uint64_t op, std::string detail,
                                 const char* invariant = "crash-recovery") {
    if (result.violations.size() >= kMaxViolationsPerScenario) return;
    result.violations.push_back(
        {invariant, "", op, std::move(detail)});
  };

  // The WAL carries document *text*; serialize the stream once so the
  // durable runs, the reference replays and the recoveries all see the
  // same bytes.
  std::vector<std::string> texts;
  texts.reserve(scenario.documents.size());
  xml::WriteOptions compact;
  compact.indent = false;
  for (const xml::Document& doc : scenario.documents) {
    texts.push_back(xml::WriteDocument(doc, compact));
  }

  // prefix_fps[j] = the pipeline state after sequentially applying the
  // first j operations (documents, then — under `induction` — the
  // accepted candidates) — what recovery from any crash point must match.
  std::vector<Fingerprint> prefix_fps;
  prefix_fps.reserve(texts.size() + 1);
  {
    core::XmlSource reference(scenario.options);
    for (const auto& [name, dtd] : scenario.dtds) {
      (void)reference.AddDtd(name, dtd.Clone());
    }
    prefix_fps.push_back(CrashFingerprintOf(reference));
    for (const std::string& text : texts) {
      (void)reference.ProcessText(text);
      prefix_fps.push_back(CrashFingerprintOf(reference));
    }
    if (options.induction) {
      // Mirror the durable pipeline's accept loop exactly; recovery
      // replays each record through AdoptInducedDtd and must land on
      // the same state as these live accepts.
      reference.InduceCandidates();
      for (size_t round = 0; round < kMaxAcceptRounds; ++round) {
        const induce::Candidate* best = BestCandidate(reference);
        if (best == nullptr) break;
        StatusOr<core::XmlSource::AcceptOutcome> outcome =
            reference.AcceptCandidate(best->id, 1);
        if (!outcome.ok()) break;
        prefix_fps.push_back(CrashFingerprintOf(reference));
        if (outcome->reclassified == 0) break;
        reference.InduceCandidates();
      }
    }
    result.evolutions = reference.evolutions_performed();
  }
  const uint64_t total_applies = prefix_fps.size() - 1;

  io::FaultInjector& injector = io::FaultInjector::Instance();

  // Clean pass: count the run's faultable I/O ops (a fail_at of 0 never
  // fires) and sanity-check that the durable pipeline lands on the same
  // state as the plain sequential replay.
  uint64_t total_ops = 0;
  {
    const std::string dir = CrashTempDir(scenario_seed, 0);
    std::filesystem::remove_all(dir);
    injector.Arm(io::FaultPlan{});
    DurableRun clean = RunDurablePipeline(scenario, texts, dir,
                                          options.checkpoint_every,
                                          options.induction);
    total_ops = injector.ops_seen();
    injector.Disarm();
    if (!clean.completed) {
      add_violation(0, "clean durable run did not complete");
    } else {
      StatusOr<Fingerprint> recovered = RecoverFingerprint(scenario, dir);
      if (!recovered.ok()) {
        add_violation(0, "clean-run recovery failed: " +
                             recovered.status().message());
      } else if (*recovered != prefix_fps.back()) {
        add_violation(0, "clean durable run diverged from sequential "
                         "replay: " +
                             FingerprintDiff(prefix_fps.back(), *recovered));
      }
    }
    std::filesystem::remove_all(dir);
    if (!result.violations.empty()) return result;
  }

  const uint64_t wanted = options.max_crash_points == 0
                              ? total_ops
                              : std::min(options.max_crash_points, total_ops);
  const uint64_t stride =
      wanted == 0 ? 1 : std::max<uint64_t>(1, total_ops / wanted);
  for (uint64_t op = 1;
       op <= total_ops &&
       result.violations.size() < kMaxViolationsPerScenario;
       op += stride) {
    if (crash_points != nullptr) ++*crash_points;
    const std::string dir = CrashTempDir(scenario_seed, op);
    std::filesystem::remove_all(dir);

    io::FaultPlan plan;
    plan.fail_at = op;
    plan.crash = true;
    // Vary the failure flavor deterministically: ENOSPC vs EIO, and a
    // torn prefix of 0, 1/3, 2/3 or all of the failing write's bytes
    // (a fully persisted write whose ack never returned is the
    // in-flight case the allowance below exists for).
    plan.error_code = (op % 2 == 0) ? ENOSPC : EIO;
    plan.torn_fraction = static_cast<double>(op % 4) / 3.0;
    injector.Arm(plan);
    DurableRun run = RunDurablePipeline(scenario, texts, dir,
                                        options.checkpoint_every,
                                        options.induction);
    injector.Disarm();

    StatusOr<Fingerprint> recovered = RecoverFingerprint(scenario, dir);
    if (!recovered.ok()) {
      add_violation(op, "recovery after crash at op " + std::to_string(op) +
                            " (acked " + std::to_string(run.acked) +
                            "): " + recovered.status().message());
      std::filesystem::remove_all(dir);
      continue;
    }
    // At-least-once ack: the recovered state is the acked prefix, or —
    // when the crash fell between a record's last byte and its fsync
    // returning — the acked prefix plus that single durable-but-unacked
    // document.
    const bool exact = *recovered == prefix_fps[run.acked];
    const bool in_flight = run.acked < total_applies &&
                           *recovered == prefix_fps[run.acked + 1];
    if (!exact && !in_flight) {
      add_violation(op, "crash at op " + std::to_string(op) + " (acked " +
                            std::to_string(run.acked) +
                            " documents): recovered state matches neither "
                            "the acked prefix nor acked+1 — " +
                            FingerprintDiff(prefix_fps[run.acked],
                                            *recovered));
    } else {
      StatusOr<Fingerprint> again = RecoverFingerprint(scenario, dir);
      if (!again.ok()) {
        add_violation(op, "second recovery failed: " +
                              again.status().message(),
                      "recovery-idempotence");
      } else if (*again != *recovered) {
        add_violation(op, "second recovery diverged from the first: " +
                              FingerprintDiff(*recovered, *again),
                      "recovery-idempotence");
      }
    }
    std::filesystem::remove_all(dir);
  }
  return result;
}

CrashOracleReport RunCrashOracle(const CrashOracleOptions& options) {
  CrashOracleReport report;
  for (uint64_t i = 0; i < options.scenarios; ++i) {
    ScenarioResult result =
        RunCrashScenario(options.seed + i, options, &report.crash_points);
    ++report.scenarios_run;
    report.documents += result.documents;
    if (!result.ok()) {
      report.failures.push_back(std::move(result));
      if (report.failures.size() >= options.max_failures) break;
    }
  }
  return report;
}

std::string FormatCrashReport(const CrashOracleReport& report) {
  std::ostringstream out;
  out << "crash oracle: " << report.scenarios_run << " scenario"
      << (report.scenarios_run == 1 ? "" : "s") << ", " << report.documents
      << " documents, " << report.crash_points << " crash points — "
      << (report.ok() ? "every recovery matched the acked prefix"
                      : std::to_string(report.failures.size()) +
                            " failing scenario(s)")
      << "\n";
  for (const ScenarioResult& failure : report.failures) {
    out << FormatScenario(failure);
    out << "  replay: dtdevolve check --crash-recovery --seed "
        << failure.seed << " --scenarios 1\n";
  }
  return out.str();
}

// --- Induction oracle -------------------------------------------------------

namespace {

/// Everything the candidate lifecycle could diverge on across jobs
/// levels, appended to the regular pipeline fingerprint: the pending
/// candidates and the lifecycle counters.
void AppendInductionFingerprint(const core::XmlSource& src, Fingerprint* fp) {
  std::string c;
  for (const induce::Candidate& candidate : src.candidates()) {
    c += std::to_string(candidate.id) + " " + candidate.name + " m" +
         std::to_string(candidate.members.size()) + " v" +
         std::to_string(candidate.validated.size()) + " " +
         FormatDouble(candidate.coverage) + " " +
         FormatDouble(candidate.margin) + "\n";
  }
  fp->emplace_back("candidates", std::move(c));
  fp->emplace_back("candidate-counters",
                   std::to_string(src.candidates_proposed()) + " " +
                       std::to_string(src.candidates_accepted()) + " " +
                       std::to_string(src.candidates_rejected()) + "\n");
}

void AddInductionViolation(ScenarioResult& result, std::string invariant,
                           std::string dtd_name, uint64_t index,
                           std::string detail) {
  if (result.violations.size() >= kMaxViolationsPerScenario) return;
  result.violations.push_back({std::move(invariant), std::move(dtd_name),
                               index, std::move(detail)});
}

/// Invariants of one *pending* candidate: the DTD round-trips, and the
/// validated set / coverage match an independent recount of the members
/// still sitting in the repository.
void CheckCandidateInvariants(const core::XmlSource& src,
                              const induce::Candidate& candidate,
                              uint64_t round, ScenarioResult& result) {
  const dtd::Dtd& dtd = candidate.ext.dtd();
  Status checked = dtd.Check();
  if (!checked.ok()) {
    AddInductionViolation(result, "induced-dtd-roundtrip", candidate.name,
                          round, "candidate DTD fails Check: " +
                                     checked.message());
  } else {
    const std::string text = dtd::WriteDtd(dtd);
    StatusOr<dtd::Dtd> reparsed = dtd::ParseDtd(text, dtd.root_name());
    if (!reparsed.ok()) {
      AddInductionViolation(result, "induced-dtd-roundtrip", candidate.name,
                            round, "candidate DTD fails to re-parse: " +
                                       reparsed.status().message());
    } else if (Status recheck = reparsed->Check(); !recheck.ok()) {
      AddInductionViolation(result, "induced-dtd-roundtrip", candidate.name,
                            round, "re-parsed candidate fails Check: " +
                                       recheck.message());
    } else if (dtd::WriteDtd(*reparsed) != text) {
      AddInductionViolation(result, "induced-dtd-roundtrip", candidate.name,
                            round,
                            "WriteDtd → ParseDtd → WriteDtd is not a fixed "
                            "point");
    }
  }

  validate::Validator validator(dtd);
  std::set<int> recount;
  for (int id : candidate.members) {
    const xml::Document& doc = src.repository().Get(id);
    if (doc.has_root() && validator.Validate(doc).valid) recount.insert(id);
  }
  std::set<int> claimed(candidate.validated.begin(),
                        candidate.validated.end());
  if (claimed != recount) {
    AddInductionViolation(
        result, "candidate-coverage-accounting", candidate.name, round,
        "claims " + std::to_string(claimed.size()) +
            " validated member(s), independent recount finds " +
            std::to_string(recount.size()));
    return;
  }
  const double expected =
      candidate.members.empty()
          ? 0.0
          : static_cast<double>(candidate.validated.size()) /
                static_cast<double>(candidate.members.size());
  if (std::fabs(candidate.coverage - expected) > 1e-12) {
    AddInductionViolation(result, "candidate-coverage-accounting",
                          candidate.name, round,
                          "coverage " + FormatDouble(candidate.coverage) +
                              " != validated/members " +
                              FormatDouble(expected));
  }
  if (candidate.coverage + 1e-12 < src.options().induce.min_coverage) {
    AddInductionViolation(result, "candidate-coverage-accounting",
                          candidate.name, round,
                          "coverage " + FormatDouble(candidate.coverage) +
                              " below the configured floor " +
                              FormatDouble(src.options().induce.min_coverage));
  }
}

}  // namespace

ScenarioResult RunInductionScenario(uint64_t scenario_seed,
                                    const InductionOracleOptions& options,
                                    uint64_t* candidates, uint64_t* accepts) {
  Scenario scenario =
      MakeInductionScenario(scenario_seed, options.max_documents);
  ScenarioResult result;
  result.seed = scenario_seed;
  result.scenario = scenario.label;
  result.documents = scenario.documents.size();

  core::XmlSource reference(scenario.options);
  for (const auto& [name, dtd] : scenario.dtds) {
    Status st = reference.AddDtd(name, dtd.Clone());
    if (!st.ok()) {
      AddInductionViolation(result, "setup", name, 0, st.message());
    }
  }
  std::vector<core::XmlSource::ProcessOutcome> outcomes;
  outcomes.reserve(scenario.documents.size());
  for (const xml::Document& doc : scenario.documents) {
    outcomes.push_back(reference.Process(doc.Clone()));
  }
  result.evolutions = reference.evolutions_performed();

  // The induce/accept op sequence the reference decides ("" = induce,
  // otherwise accept-by-name); the batch replicas replay it verbatim.
  std::vector<std::string> ops;
  std::set<uint64_t> seen_ids;
  for (size_t round = 0; round < kMaxAcceptRounds; ++round) {
    ops.push_back("");
    size_t induced = reference.InduceCandidates();
    if (candidates != nullptr) *candidates += induced;
    for (const induce::Candidate& candidate : reference.candidates()) {
      if (!seen_ids.insert(candidate.id).second) {
        AddInductionViolation(result, "accept-reclassify-accounting",
                              candidate.name, round,
                              "candidate id " + std::to_string(candidate.id) +
                                  " reissued");
      }
      CheckCandidateInvariants(reference, candidate, round, result);
    }
    const induce::Candidate* best = BestCandidate(reference);
    if (best == nullptr) break;

    // Accept consumes repository documents — clone the claimed set first
    // so accept-member-validity can recount against the *live* DTD.
    const std::string accept_name = best->name;
    const uint64_t best_id = best->id;
    std::vector<xml::Document> claimed_docs;
    for (int id : best->validated) {
      claimed_docs.push_back(reference.repository().Get(id).Clone());
    }
    const size_t repo_before = reference.repository().size();

    StatusOr<core::XmlSource::AcceptOutcome> outcome =
        reference.AcceptCandidate(best_id, 1);
    if (!outcome.ok()) {
      AddInductionViolation(result, "accept-member-validity", accept_name,
                            round,
                            "accept failed: " + outcome.status().message());
      break;
    }
    ops.push_back(accept_name);
    if (accepts != nullptr) ++*accepts;

    const dtd::Dtd* live = reference.FindDtd(outcome->dtd_name);
    if (live == nullptr) {
      AddInductionViolation(result, "accept-member-validity",
                            outcome->dtd_name, round,
                            "accepted DTD missing from the live set");
    } else {
      validate::Validator live_validator(*live);
      size_t invalid = 0;
      for (const xml::Document& doc : claimed_docs) {
        if (!doc.has_root() || !live_validator.Validate(doc).valid) {
          ++invalid;
        }
      }
      if (invalid != 0) {
        AddInductionViolation(
            result, "accept-member-validity", outcome->dtd_name, round,
            std::to_string(invalid) + " of " +
                std::to_string(claimed_docs.size()) +
                " claimed-validated member(s) invalid under the live DTD");
      }
    }
    const size_t removed = repo_before - reference.repository().size();
    if (removed != outcome->reclassified) {
      AddInductionViolation(
          result, "accept-reclassify-accounting", outcome->dtd_name, round,
          "outcome reports " + std::to_string(outcome->reclassified) +
              " reclassified but " + std::to_string(removed) +
              " document(s) left the repository");
    }
    if (outcome->reclassified == 0) break;
  }

  if (reference.events_total() > core::XmlSource::kEventCapacity) {
    AddInductionViolation(
        result, "event-log-complete", "", 0,
        std::to_string(reference.events_total()) +
            " events exceed the retained " +
            std::to_string(core::XmlSource::kEventCapacity));
  }
  Fingerprint reference_fp = FingerprintOf(reference, outcomes);
  AppendInductionFingerprint(reference, &reference_fp);
  for (size_t jobs : options.jobs) {
    core::XmlSource replica(scenario.options);
    for (const auto& [name, dtd] : scenario.dtds) {
      (void)replica.AddDtd(name, dtd.Clone());
    }
    std::vector<xml::Document> docs;
    docs.reserve(scenario.documents.size());
    for (const xml::Document& doc : scenario.documents) {
      docs.push_back(doc.Clone());
    }
    std::vector<core::XmlSource::ProcessOutcome> replica_outcomes =
        replica.ProcessBatch(std::move(docs), jobs);

    bool replay_ok = true;
    for (const std::string& op : ops) {
      if (op.empty()) {
        replica.InduceCandidates();
        continue;
      }
      const induce::Candidate* target = nullptr;
      for (const induce::Candidate& candidate : replica.candidates()) {
        if (candidate.name == op) target = &candidate;
      }
      if (target == nullptr) {
        AddInductionViolation(result, "induction-batch-divergence", op, 0,
                              "jobs=" + std::to_string(jobs) +
                                  ": candidate " + op +
                                  " missing in the batch replica");
        replay_ok = false;
        break;
      }
      if (StatusOr<core::XmlSource::AcceptOutcome> accepted =
              replica.AcceptCandidate(target->id, jobs);
          !accepted.ok()) {
        AddInductionViolation(result, "induction-batch-divergence", op, 0,
                              "jobs=" + std::to_string(jobs) +
                                  ": accept failed in the batch replica: " +
                                  accepted.status().message());
        replay_ok = false;
        break;
      }
    }
    if (!replay_ok) continue;

    Fingerprint replica_fp = FingerprintOf(replica, replica_outcomes);
    AppendInductionFingerprint(replica, &replica_fp);
    if (replica_fp.size() != reference_fp.size()) {
      AddInductionViolation(result, "induction-batch-divergence", "", 0,
                            "jobs=" + std::to_string(jobs) +
                                ": fingerprint section counts differ");
      continue;
    }
    for (size_t i = 0; i < reference_fp.size(); ++i) {
      if (reference_fp[i].first != replica_fp[i].first ||
          reference_fp[i].second != replica_fp[i].second) {
        AddInductionViolation(
            result, "induction-batch-divergence", "", 0,
            "jobs=" + std::to_string(jobs) + ": section " +
                reference_fp[i].first + " differs — " +
                FirstDifference(reference_fp[i].second, replica_fp[i].second));
        break;
      }
    }
  }
  return result;
}

InductionOracleReport RunInductionOracle(
    const InductionOracleOptions& options) {
  InductionOracleReport report;
  for (uint64_t i = 0; i < options.scenarios; ++i) {
    ScenarioResult result = RunInductionScenario(
        options.seed + i, options, &report.candidates, &report.accepts);
    ++report.scenarios_run;
    report.documents += result.documents;
    if (!result.ok()) {
      report.failures.push_back(std::move(result));
      if (report.failures.size() >= options.max_failures) break;
    }
  }
  return report;
}

std::string FormatInductionReport(const InductionOracleReport& report) {
  std::ostringstream out;
  out << "induction oracle: " << report.scenarios_run << " scenario"
      << (report.scenarios_run == 1 ? "" : "s") << ", " << report.documents
      << " documents, " << report.candidates << " candidates, "
      << report.accepts << " accepts — "
      << (report.ok() ? "all invariants held"
                      : std::to_string(report.failures.size()) +
                            " failing scenario(s)")
      << "\n";
  for (const ScenarioResult& failure : report.failures) {
    out << FormatScenario(failure);
    out << "  replay: dtdevolve check --induction --seed " << failure.seed
        << " --scenarios 1\n";
  }
  return out.str();
}

// --- Replication oracle -----------------------------------------------------

namespace {

/// A fresh follower-side source: exactly the scenario's seed DTDs, as a
/// replica boots before its first checkpoint lands.
std::unique_ptr<core::XmlSource> MakeFollowerSource(const Scenario& scenario) {
  auto src = std::make_unique<core::XmlSource>(scenario.options);
  for (const auto& [name, dtd] : scenario.dtds) {
    (void)src->AddDtd(name, dtd.Clone());
  }
  return src;
}

/// The simulated read replica: the same state machine `server::Follower`
/// runs, minus the sockets — bootstrapped-or-not, an applied LSN, and a
/// source fed only through the shared replay dispatch.
struct SimFollower {
  std::unique_ptr<core::XmlSource> src;
  bool bootstrapped = false;
  uint64_t applied = 0;
};

std::string ReplTempDir(uint64_t seed) {
  static std::atomic<uint64_t> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("dtdevolve-repl-" + std::to_string(::getpid()) + "-" +
           std::to_string(seed) + "-" +
           std::to_string(counter.fetch_add(1))))
      .string();
}

/// One follower poll against the primary's WAL directory. Mirrors
/// `Follower::SyncTenant` step for step: bootstrap from the checkpoint
/// (through the wire-blob encode/decode), export a page from
/// `applied + 1`, detect checkpoint-truncation gaps (the 410 answer on
/// the wire), decode what survives the injected truncation, apply with
/// idempotent skip, and assert prefix consistency. Returns false when a
/// violation was recorded (the caller stops polling — a state divergence
/// cascades into every later check).
bool PollFollower(const Scenario& scenario, const std::string& dir,
                  uint64_t wal_next_lsn,
                  const std::vector<Fingerprint>& prefix_fps,
                  SimFollower& follower, workload::Rng& rng, bool allow_fault,
                  ReplicationOracleReport* tally, ScenarioResult& result) {
  auto add_violation = [&result](const char* invariant, uint64_t op,
                                 std::string detail) {
    if (result.violations.size() >= kMaxViolationsPerScenario) return;
    result.violations.push_back({invariant, "", op, std::move(detail)});
  };
  if (tally != nullptr) ++tally->polls;

  if (!follower.bootstrapped) {
    StatusOr<store::CheckpointData> checkpoint = store::ReadCheckpoint(dir);
    if (!checkpoint.ok()) {
      add_violation("replication-bootstrap", follower.applied,
                    "checkpoint read failed: " +
                        checkpoint.status().message());
      return false;
    }
    // Round-trip through the transfer blob — the bytes a real follower
    // receives from GET /replication/checkpoint.
    StatusOr<store::CheckpointData> wire =
        store::DecodeCheckpointBlob(store::EncodeCheckpointBlob(*checkpoint));
    if (!wire.ok()) {
      add_violation("replication-bootstrap", follower.applied,
                    "checkpoint blob round-trip failed: " +
                        wire.status().message());
      return false;
    }
    std::unique_ptr<core::XmlSource> fresh = MakeFollowerSource(scenario);
    Status applied = store::ApplyCheckpointToSource(*wire, *fresh);
    if (!applied.ok()) {
      add_violation("replication-bootstrap", follower.applied,
                    "checkpoint apply failed: " + applied.message());
      return false;
    }
    follower.src = std::move(fresh);
    follower.applied = wire->lsn;
    follower.bootstrapped = true;
    if (tally != nullptr) ++tally->bootstraps;
    if (CrashFingerprintOf(*follower.src) != prefix_fps[follower.applied]) {
      add_violation(
          "replication-bootstrap", follower.applied,
          "bootstrapped state diverges from the sequential replay of " +
              std::to_string(follower.applied) + " ops: " +
              FingerprintDiff(prefix_fps[follower.applied],
                              CrashFingerprintOf(*follower.src)));
      return false;
    }
  }

  // At-least-once delivery: occasionally re-request from one LSN back —
  // the already-applied record comes again and must be skipped.
  uint64_t from = follower.applied + 1;
  if (allow_fault && follower.applied > 0 && rng.Chance(0.15)) {
    from = follower.applied;
    if (tally != nullptr) ++tally->faults;
  }
  // Small, jittered pages force frame-boundary cuts mid-catch-up.
  const uint64_t max_bytes = 256 + rng.Uniform(4096);
  StatusOr<store::WalExport> page =
      store::ExportWalRecords(dir, from, max_bytes);
  if (!page.ok()) {
    add_violation("replication-prefix-consistency", follower.applied,
                  "WAL export from lsn " + std::to_string(from) +
                      " failed: " + page.status().message());
    return false;
  }

  // The primary's gap answer (410 on the wire): records below `from`
  // were checkpoint-truncated, so this lineage cannot be extended.
  const bool gone =
      (page->oldest_lsn != 0 && page->oldest_lsn > from) ||
      (page->oldest_lsn == 0 && wal_next_lsn > 0 && from < wal_next_lsn);
  if (gone) {
    follower.bootstrapped = false;
    if (tally != nullptr) ++tally->faults;
    return true;  // re-bootstraps on the next poll
  }

  // A disconnect can cut the stream at any byte; the decoder must stop
  // cleanly at the torn frame and the next poll resumes.
  std::string bytes = std::move(page->bytes);
  if (allow_fault && !bytes.empty() && rng.Chance(0.35)) {
    bytes.resize(rng.Uniform(static_cast<uint32_t>(bytes.size())));
    if (tally != nullptr) ++tally->faults;
  }
  size_t consumed = 0;
  const std::vector<store::WalRecord> records =
      store::DecodeWalStream(bytes, &consumed);
  for (const store::WalRecord& record : records) {
    if (record.lsn <= follower.applied) continue;  // idempotent re-delivery
    if (record.lsn != follower.applied + 1) {
      add_violation("replication-prefix-consistency", follower.applied,
                    "export produced an LSN gap: applied " +
                        std::to_string(follower.applied) + ", received " +
                        std::to_string(record.lsn));
      return false;
    }
    Status applied_record =
        store::ApplyWalRecordToSource(record.lsn, record.payload,
                                      *follower.src);
    if (!applied_record.ok()) {
      add_violation("replication-prefix-consistency", record.lsn,
                    "replicated record does not apply: " +
                        applied_record.message());
      return false;
    }
    follower.applied = record.lsn;
  }

  if (CrashFingerprintOf(*follower.src) != prefix_fps[follower.applied]) {
    add_violation(
        "replication-prefix-consistency", follower.applied,
        "follower at lsn " + std::to_string(follower.applied) +
            " diverges from the sequential replay: " +
            FingerprintDiff(prefix_fps[follower.applied],
                            CrashFingerprintOf(*follower.src)));
    return false;
  }
  return true;
}

}  // namespace

ScenarioResult RunReplicationScenario(uint64_t scenario_seed,
                                      const ReplicationOracleOptions& options,
                                      ReplicationOracleReport* tally) {
  // Alternate drift and induction scenarios so the replicated stream
  // carries both WAL record types.
  const bool induction = options.induction && (scenario_seed % 2 == 1);
  Scenario scenario =
      induction ? MakeInductionScenario(scenario_seed, options.max_documents)
                : MakeScenario(scenario_seed, options.max_documents);
  ScenarioResult result;
  result.seed = scenario_seed;
  result.scenario = "replication " + scenario.label;
  result.documents = scenario.documents.size();

  auto add_violation = [&result](const char* invariant, uint64_t op,
                                 std::string detail) {
    if (result.violations.size() >= kMaxViolationsPerScenario) return;
    result.violations.push_back({invariant, "", op, std::move(detail)});
  };

  // The acked-op sequence, as WAL payloads in LSN order (lsn = index+1):
  // document texts, then — for induction scenarios — the induce-accept
  // records a planning run chooses with the canonical best-first rule.
  std::vector<std::string> ops;
  ops.reserve(scenario.documents.size());
  xml::WriteOptions compact;
  compact.indent = false;
  for (const xml::Document& doc : scenario.documents) {
    ops.push_back(xml::WriteDocument(doc, compact));
  }
  if (induction) {
    core::XmlSource planner(scenario.options);
    for (const auto& [name, dtd] : scenario.dtds) {
      (void)planner.AddDtd(name, dtd.Clone());
    }
    for (const std::string& text : ops) (void)planner.ProcessText(text);
    planner.InduceCandidates();
    for (size_t round = 0; round < kMaxAcceptRounds; ++round) {
      const induce::Candidate* best = BestCandidate(planner);
      if (best == nullptr) break;
      ops.push_back(store::EncodeInduceAcceptRecord(best->name, best->ext));
      StatusOr<core::XmlSource::AcceptOutcome> outcome =
          planner.AcceptCandidate(best->id, 1);
      if (!outcome.ok()) {
        ops.pop_back();
        break;
      }
      if (outcome->reclassified == 0) break;
      planner.InduceCandidates();
    }
  }

  // prefix_fps[j] = the state after replaying the first j ops through
  // the shared dispatch — what the follower must match at every cut.
  std::vector<Fingerprint> prefix_fps;
  prefix_fps.reserve(ops.size() + 1);
  {
    core::XmlSource reference(scenario.options);
    for (const auto& [name, dtd] : scenario.dtds) {
      (void)reference.AddDtd(name, dtd.Clone());
    }
    prefix_fps.push_back(CrashFingerprintOf(reference));
    for (size_t i = 0; i < ops.size(); ++i) {
      Status applied = store::ApplyWalRecordToSource(i + 1, ops[i], reference);
      if (!applied.ok()) {
        add_violation("replication-prefix-consistency", i + 1,
                      "reference replay failed: " + applied.message());
        return result;
      }
      prefix_fps.push_back(CrashFingerprintOf(reference));
    }
    result.evolutions = reference.evolutions_performed();
  }

  const std::string dir = ReplTempDir(scenario_seed);
  std::filesystem::remove_all(dir);

  // The step-wise primary: append + apply per op, checkpoint (and
  // truncate — the follower-visible gap source) on the configured
  // cadence, with seeded fault-injected follower polls interleaved at
  // arbitrary cut points.
  core::XmlSource primary(scenario.options);
  for (const auto& [name, dtd] : scenario.dtds) {
    (void)primary.AddDtd(name, dtd.Clone());
  }
  store::WalOptions wal_options;
  wal_options.dir = dir;
  store::WalReplay replay;
  StatusOr<std::unique_ptr<store::Wal>> wal =
      store::Wal::Open(wal_options, 0, &replay);
  if (!wal.ok()) {
    add_violation("replication-prefix-consistency", 0,
                  "primary WAL open failed: " + wal.status().message());
    std::filesystem::remove_all(dir);
    return result;
  }

  // Decorrelated poll/fault schedule (distinct from the scenario's own
  // stream randomness).
  workload::Rng rng(scenario_seed * 0xD1342543DE82EF95ull +
                    0x9E3779B97F4A7C15ull);
  SimFollower follower;
  follower.src = MakeFollowerSource(scenario);

  uint64_t since_checkpoint = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    StatusOr<uint64_t> lsn = (*wal)->Append(ops[i]);
    if (!lsn.ok() || *lsn != i + 1) {
      add_violation("replication-prefix-consistency", i + 1,
                    "primary append failed: " +
                        (lsn.ok() ? "unexpected lsn" :
                                    lsn.status().message()));
      break;
    }
    Status applied = store::ApplyWalRecordToSource(*lsn, ops[i], primary);
    if (!applied.ok()) {
      add_violation("replication-prefix-consistency", *lsn,
                    "primary apply failed: " + applied.message());
      break;
    }
    if (options.checkpoint_every != 0 &&
        ++since_checkpoint >= options.checkpoint_every) {
      since_checkpoint = 0;
      store::CheckpointData data = store::CaptureCheckpoint(primary, *lsn);
      if (store::WriteCheckpoint(dir, data).ok()) {
        (void)(*wal)->TruncateThrough(*lsn);
      }
    }
    if (rng.Chance(0.4)) {
      if (!PollFollower(scenario, dir, (*wal)->next_lsn(), prefix_fps,
                        follower, rng, /*allow_fault=*/true, tally, result)) {
        break;
      }
    }
  }

  // Convergence: faults off, the follower must fully catch up. The
  // bound is generous — every fault-free poll either advances the
  // applied LSN (a page with at least one frame is always served, even
  // past max_bytes) or flips to a re-bootstrap that lands ahead.
  if (result.violations.empty()) {
    const uint64_t total = ops.size();
    for (int i = 0; i < 2000 && follower.applied < total; ++i) {
      if (!PollFollower(scenario, dir, (*wal)->next_lsn(), prefix_fps,
                        follower, rng, /*allow_fault=*/false, tally,
                        result)) {
        break;
      }
    }
    if (result.violations.empty() && follower.applied != total) {
      add_violation("replication-convergence", follower.applied,
                    "follower stalled at lsn " +
                        std::to_string(follower.applied) + " of " +
                        std::to_string(total));
    }
    if (result.violations.empty() &&
        CrashFingerprintOf(*follower.src) != prefix_fps.back()) {
      add_violation("replication-convergence", total,
                    "caught-up follower diverges from the primary: " +
                        FingerprintDiff(prefix_fps.back(),
                                        CrashFingerprintOf(*follower.src)));
    }
  }

  // Follower restart: a fresh replica bootstrapping from whatever
  // checkpoint the primary holds now must converge to the same bytes.
  if (result.violations.empty()) {
    SimFollower restarted;
    restarted.src = MakeFollowerSource(scenario);
    const uint64_t total = ops.size();
    for (int i = 0; i < 2000 && restarted.applied < total; ++i) {
      if (!PollFollower(scenario, dir, (*wal)->next_lsn(), prefix_fps,
                        restarted, rng, /*allow_fault=*/false, tally,
                        result)) {
        break;
      }
    }
    if (result.violations.empty() && restarted.applied != total) {
      add_violation("replication-restart", restarted.applied,
                    "restarted follower stalled at lsn " +
                        std::to_string(restarted.applied) + " of " +
                        std::to_string(total));
    } else if (result.violations.empty() &&
               CrashFingerprintOf(*restarted.src) != prefix_fps.back()) {
      add_violation("replication-restart", total,
                    "restarted follower diverges: " +
                        FingerprintDiff(prefix_fps.back(),
                                        CrashFingerprintOf(*restarted.src)));
    }
  }

  std::filesystem::remove_all(dir);
  return result;
}

ReplicationOracleReport RunReplicationOracle(
    const ReplicationOracleOptions& options) {
  ReplicationOracleReport report;
  for (uint64_t i = 0; i < options.scenarios; ++i) {
    ScenarioResult result =
        RunReplicationScenario(options.seed + i, options, &report);
    ++report.scenarios_run;
    report.documents += result.documents;
    if (!result.ok()) {
      report.failures.push_back(std::move(result));
      if (report.failures.size() >= options.max_failures) break;
    }
  }
  return report;
}

std::string FormatReplicationReport(const ReplicationOracleReport& report) {
  std::ostringstream out;
  out << "replication oracle: " << report.scenarios_run << " scenario"
      << (report.scenarios_run == 1 ? "" : "s") << ", " << report.documents
      << " documents, " << report.polls << " polls, " << report.faults
      << " faults, " << report.bootstraps << " bootstraps — "
      << (report.ok() ? "every follower state matched the acked prefix"
                      : std::to_string(report.failures.size()) +
                            " failing scenario(s)")
      << "\n";
  for (const ScenarioResult& failure : report.failures) {
    out << FormatScenario(failure);
    out << "  replay: dtdevolve check --replication --seed " << failure.seed
        << " --scenarios 1\n";
  }
  return out.str();
}

// --- Parse-path oracle ------------------------------------------------------

namespace {

/// The pure-DOM reference configuration: the legacy two-pass parser with
/// the classification memo disabled, so nothing the streaming path adds
/// (arena trees, fingerprint-keyed outcome replay) participates on the
/// reference side of the comparison.
core::SourceOptions DomReferenceOptions(core::SourceOptions options) {
  options.streaming_parse = false;
  options.classifier.enable_classification_memo = false;
  return options;
}

struct TextPipelineRun {
  Fingerprint fingerprint;
  std::string error;  // non-empty when some document failed to parse
};

/// Feeds the serialized stream through `ProcessText` — the entry point
/// whose parse path `streaming_parse` selects — and fingerprints the
/// resulting state plus every outcome.
TextPipelineRun RunTextPipeline(const Scenario& scenario,
                                const std::vector<std::string>& texts,
                                const core::SourceOptions& options) {
  TextPipelineRun run;
  core::XmlSource src(options);
  for (const auto& [name, dtd] : scenario.dtds) {
    (void)src.AddDtd(name, dtd.Clone());
  }
  std::vector<core::XmlSource::ProcessOutcome> outcomes;
  outcomes.reserve(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    StatusOr<core::XmlSource::ProcessOutcome> outcome =
        src.ProcessText(texts[i]);
    if (!outcome.ok()) {
      run.error = "document " + std::to_string(i) +
                  " failed to parse: " + outcome.status().message();
      return run;
    }
    outcomes.push_back(*outcome);
  }
  run.fingerprint = FingerprintOf(src, outcomes);
  return run;
}

/// Appends `texts` to a fresh WAL in `dir`, then boots a recovery with
/// the given parse path (`RecoverSource` replays every document record
/// through `ProcessText`) and returns the recovered durable-state
/// fingerprint.
StatusOr<Fingerprint> ReplayThroughWal(const Scenario& scenario,
                                       const std::vector<std::string>& texts,
                                       const core::SourceOptions& options,
                                       const std::string& dir) {
  {
    store::WalOptions wal_options;
    wal_options.dir = dir;
    store::WalReplay replay;
    StatusOr<std::unique_ptr<store::Wal>> wal =
        store::Wal::Open(wal_options, 0, &replay);
    if (!wal.ok()) return wal.status();
    for (const std::string& text : texts) {
      StatusOr<uint64_t> lsn = (*wal)->Append(text);
      if (!lsn.ok()) return lsn.status();
    }
  }
  core::XmlSource src(options);
  for (const auto& [name, dtd] : scenario.dtds) {
    (void)src.AddDtd(name, dtd.Clone());
  }
  store::WalOptions wal_options;
  wal_options.dir = dir;
  StatusOr<std::unique_ptr<store::Wal>> wal =
      store::RecoverSource(src, wal_options, nullptr);
  if (!wal.ok()) return wal.status();
  return CrashFingerprintOf(src);
}

}  // namespace

ScenarioResult RunParsePathScenario(uint64_t scenario_seed,
                                    const ParsePathOracleOptions& options,
                                    bool* ran_wal_replay) {
  Scenario scenario = MakeScenario(scenario_seed, options.max_documents);
  ScenarioResult result;
  result.seed = scenario_seed;
  result.scenario = scenario.label;
  result.documents = scenario.documents.size();
  if (ran_wal_replay != nullptr) *ran_wal_replay = false;

  auto add = [&result](std::string invariant, uint64_t index,
                       std::string detail) {
    if (result.violations.size() >= kMaxViolationsPerScenario) return;
    result.violations.push_back(
        {std::move(invariant), "", index, Truncate(detail, 240)});
  };

  xml::WriteOptions compact;
  compact.indent = false;
  std::vector<std::string> texts;
  texts.reserve(scenario.documents.size());
  for (const xml::Document& doc : scenario.documents) {
    texts.push_back(xml::WriteDocument(doc, compact));
  }

  // Leg 1: dual-parse every document and compare the trees and the
  // parse-time fingerprints against the after-the-fact DOM index.
  for (size_t i = 0; i < texts.size(); ++i) {
    StatusOr<xml::Document> dom = xml::ParseDocument(texts[i]);
    StatusOr<xml::ArenaDocument> arena = xml::ParseArenaDocument(texts[i]);
    if (dom.ok() != arena.ok()) {
      add("parse-path-document", i,
          std::string("accept/reject disagreement: DOM ") +
              (dom.ok() ? "accepts" : "rejects (" + dom.status().message() +
                                          ")") +
              ", streaming " +
              (arena.ok() ? "accepts"
                          : "rejects (" + arena.status().message() + ")"));
      continue;
    }
    if (!dom.ok()) {
      if (dom.status().message() != arena.status().message()) {
        add("parse-path-document", i,
            "error messages differ: DOM \"" + dom.status().message() +
                "\" vs streaming \"" + arena.status().message() + "\"");
      }
      continue;
    }
    xml::Document converted = arena->ToDocument();
    if (dom->has_root() != converted.has_root() ||
        (dom->has_root() &&
         !xml::StructurallyEqual(dom->root(), converted.root()))) {
      add("parse-path-document", i,
          "arena tree is not structurally equal to the DOM tree");
      continue;
    }
    if (dom->doctype_name() != arena->doctype_name() ||
        dom->internal_subset() != arena->internal_subset()) {
      add("parse-path-document", i, "DOCTYPE fields differ between paths");
      continue;
    }
    if (dom->has_root()) {
      similarity::SubtreeFingerprints fps(dom->root());
      const similarity::SubtreeStats* stats = fps.Find(&dom->root());
      const xml::ArenaElement& root = arena->root();
      if (stats == nullptr || stats->fp_hi != root.fp_hi ||
          stats->fp_lo != root.fp_lo ||
          stats->element_count != root.element_count) {
        std::ostringstream detail;
        detail << "root fingerprint differs: streaming " << std::hex
               << root.fp_hi << ":" << root.fp_lo << std::dec << "/"
               << root.element_count << " vs DOM ";
        if (stats == nullptr) {
          detail << "(missing)";
        } else {
          detail << std::hex << stats->fp_hi << ":" << stats->fp_lo
                 << std::dec << "/" << stats->element_count;
        }
        add("parse-path-document", i, detail.str());
      }
    }
  }

  // Leg 2: the full pipeline over the identical text stream, pure DOM
  // reference vs streaming defaults.
  TextPipelineRun dom_run =
      RunTextPipeline(scenario, texts, DomReferenceOptions(scenario.options));
  TextPipelineRun stream_run =
      RunTextPipeline(scenario, texts, scenario.options);
  if (!dom_run.error.empty() || !stream_run.error.empty()) {
    add("parse-path-equivalence", 0,
        !dom_run.error.empty() ? "DOM pipeline: " + dom_run.error
                               : "streaming pipeline: " + stream_run.error);
  } else if (dom_run.fingerprint != stream_run.fingerprint) {
    add("parse-path-equivalence", 0,
        FingerprintDiff(dom_run.fingerprint, stream_run.fingerprint));
  }

  // Leg 3 (sampled): WAL replay must hit the same code path — recover
  // the appended stream once per parse path and compare the durable
  // state against the live streaming run.
  bool run_wal = options.wal_replay_every != 0 &&
                 scenario_seed % options.wal_replay_every == 0;
  if (run_wal && result.ok()) {
    if (ran_wal_replay != nullptr) *ran_wal_replay = true;
    const std::string stream_dir = CrashTempDir(scenario_seed, 1);
    const std::string dom_dir = CrashTempDir(scenario_seed, 2);
    StatusOr<Fingerprint> streamed =
        ReplayThroughWal(scenario, texts, scenario.options, stream_dir);
    StatusOr<Fingerprint> dom_replay = ReplayThroughWal(
        scenario, texts, DomReferenceOptions(scenario.options), dom_dir);
    std::error_code ec;
    std::filesystem::remove_all(stream_dir, ec);
    std::filesystem::remove_all(dom_dir, ec);
    if (!streamed.ok() || !dom_replay.ok()) {
      add("parse-path-replay", 0,
          "WAL replay failed: " + (!streamed.ok()
                                       ? streamed.status().message()
                                       : dom_replay.status().message()));
    } else {
      core::XmlSource live(scenario.options);
      for (const auto& [name, dtd] : scenario.dtds) {
        (void)live.AddDtd(name, dtd.Clone());
      }
      for (const std::string& text : texts) (void)live.ProcessText(text);
      Fingerprint live_fp = CrashFingerprintOf(live);
      if (*streamed != live_fp) {
        add("parse-path-replay", 0,
            "streaming recovery diverged from live run: " +
                FingerprintDiff(live_fp, *streamed));
      } else if (*dom_replay != live_fp) {
        add("parse-path-replay", 0,
            "DOM recovery diverged from live run: " +
                FingerprintDiff(live_fp, *dom_replay));
      }
    }
  }
  return result;
}

ParsePathOracleReport RunParsePathOracle(const ParsePathOracleOptions& options) {
  ParsePathOracleReport report;
  for (uint64_t i = 0; i < options.scenarios; ++i) {
    bool ran_wal = false;
    ScenarioResult result =
        RunParsePathScenario(options.seed + i, options, &ran_wal);
    ++report.scenarios_run;
    report.documents += result.documents;
    if (ran_wal) ++report.wal_replays;
    if (!result.ok()) {
      report.failures.push_back(std::move(result));
      if (report.failures.size() >= options.max_failures) break;
    }
  }
  return report;
}

std::string FormatParsePathReport(const ParsePathOracleReport& report) {
  std::ostringstream out;
  out << "parse-path oracle: " << report.scenarios_run << " scenario"
      << (report.scenarios_run == 1 ? "" : "s") << ", " << report.documents
      << " documents, " << report.wal_replays << " WAL replays — "
      << (report.ok() ? "streaming and DOM paths byte-identical"
                      : std::to_string(report.failures.size()) +
                            " failing scenario(s)")
      << "\n";
  for (const ScenarioResult& failure : report.failures) {
    out << FormatScenario(failure);
    out << "  replay: dtdevolve check --parse-path --seed " << failure.seed
        << " --scenarios 1\n";
  }
  return out.str();
}

std::string FormatReport(const OracleReport& report) {
  std::ostringstream out;
  out << "oracle: " << report.scenarios_run << " scenario"
      << (report.scenarios_run == 1 ? "" : "s") << ", " << report.documents
      << " documents, " << report.evolutions << " evolutions — "
      << (report.ok() ? "all invariants held"
                      : std::to_string(report.failures.size()) +
                            " failing scenario(s)")
      << "\n";
  for (const ScenarioResult& failure : report.failures) {
    out << FormatScenario(failure);
    out << "  replay: dtdevolve check --seed " << failure.seed
        << " --scenarios 1\n";
  }
  return out.str();
}

}  // namespace dtdevolve::check
