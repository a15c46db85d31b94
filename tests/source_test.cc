#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "classify/classifier.h"
#include "core/source.h"
#include "dtd/dtd_writer.h"
#include "store/checkpoint.h"
#include "validate/validator.h"
#include "workload/scenarios.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"
#include "xml/parser.h"
#include "xml/stream_reader.h"

namespace dtdevolve::core {
namespace {

const char* kMailDtd = R"(
  <!ELEMENT mail (from, to, body)>
  <!ELEMENT from (#PCDATA)>
  <!ELEMENT to (#PCDATA)>
  <!ELEMENT body (#PCDATA)>
)";

const char* kBookDtd = R"(
  <!ELEMENT book (title, author)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT author (#PCDATA)>
)";

TEST(XmlSourceTest, AddDtdValidation) {
  XmlSource source;
  EXPECT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  // Duplicate name.
  Status dup = source.AddDtdText("mail", kMailDtd);
  EXPECT_EQ(dup.code(), Status::Code::kAlreadyExists);
  // Inconsistent DTD (dangling reference).
  Status bad = source.AddDtdText("bad", "<!ELEMENT a (missing)>");
  EXPECT_FALSE(bad.ok());
  // Unparseable DTD.
  EXPECT_FALSE(source.AddDtdText("worse", "<!ELEMENT ").ok());
  EXPECT_EQ(source.DtdNames(), (std::vector<std::string>{"mail"}));
}

TEST(XmlSourceTest, ClassifiesIntoBestDtd) {
  SourceOptions options;
  options.keep_documents = true;  // InstancesOf is counted below
  XmlSource source(options);
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(source.AddDtdText("book", kBookDtd).ok());

  StatusOr<XmlSource::ProcessOutcome> outcome = source.ProcessText(
      "<book><title>t</title><author>a</author></book>");
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->classified);
  EXPECT_EQ(outcome->dtd_name, "book");
  EXPECT_DOUBLE_EQ(outcome->similarity, 1.0);
  EXPECT_EQ(source.documents_processed(), 1u);
  EXPECT_EQ(source.documents_classified(), 1u);
  EXPECT_EQ(source.InstancesOf("book").size(), 1u);
  EXPECT_EQ(source.FindExtended("book")->documents_recorded(), 1u);
}

TEST(XmlSourceTest, UnclassifiedGoesToRepository) {
  XmlSource source;
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  StatusOr<XmlSource::ProcessOutcome> outcome =
      source.ProcessText("<unrelated><z/></unrelated>");
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->classified);
  EXPECT_EQ(source.repository().size(), 1u);
  EXPECT_EQ(source.documents_classified(), 0u);
  const EventPage log = source.EventsSince(0);
  ASSERT_FALSE(log.events.empty());
  EXPECT_EQ(log.events.back().kind, SourceEvent::Kind::kUnclassified);
}

TEST(XmlSourceTest, ParseErrorsPropagate) {
  XmlSource source;
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  EXPECT_FALSE(source.ProcessText("<mail>").ok());
  EXPECT_EQ(source.documents_processed(), 0u);
}

TEST(XmlSourceTest, AutoEvolutionTriggersOnDivergence) {
  SourceOptions options;
  options.sigma = 0.3;
  options.tau = 0.2;
  options.min_documents_before_check = 10;
  XmlSource source(options);
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());

  // Documents consistently carry an extra `cc` element.
  const char* drifted =
      "<mail><from>a</from><to>b</to><cc>c</cc><body>x</body></mail>";
  bool evolved = false;
  for (int i = 0; i < 12 && !evolved; ++i) {
    StatusOr<XmlSource::ProcessOutcome> outcome = source.ProcessText(drifted);
    ASSERT_TRUE(outcome.ok());
    evolved = outcome->evolved;
  }
  EXPECT_TRUE(evolved);
  EXPECT_EQ(source.evolutions_performed(), 1u);
  // The evolved DTD now accepts the drifted documents.
  const dtd::Dtd* dtd = source.FindDtd("mail");
  ASSERT_NE(dtd, nullptr);
  EXPECT_TRUE(dtd->HasElement("cc"));
  validate::Validator validator(*dtd);
  StatusOr<xml::Document> doc = xml::ParseDocument(drifted);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(validator.Validate(*doc).valid);
  // An evolution event with a report was logged.
  bool saw_evolution_event = false;
  for (const SourceEvent& event : source.EventsSince(0).events) {
    if (event.kind == SourceEvent::Kind::kEvolved) {
      saw_evolution_event = true;
      EXPECT_NE(event.detail.find("mail"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_evolution_event);
}

TEST(XmlSourceTest, NoEvolutionBeforeMinDocuments) {
  SourceOptions options;
  options.tau = 0.0;  // would always fire
  options.min_documents_before_check = 100;
  XmlSource source(options);
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  for (int i = 0; i < 20; ++i) {
    auto outcome = source.ProcessText(
        "<mail><from>a</from><cc>c</cc><body>x</body></mail>");
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome->evolved);
  }
  EXPECT_EQ(source.evolutions_performed(), 0u);
}

TEST(XmlSourceTest, RepositoryReclassifiedAfterEvolution) {
  SourceOptions options;
  options.sigma = 0.6;  // strict enough to reject heavy drift at first
  options.tau = 0.1;
  options.min_documents_before_check = 5;
  XmlSource source(options);
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());

  // A heavily drifted document (six unknown cc children) scores below σ
  // against the initial DTD and lands in the repository.
  const char* heavy =
      "<mail><from>a</from><to>b</to><cc>1</cc><cc>2</cc><cc>3</cc>"
      "<cc>4</cc><cc>5</cc><cc>6</cc><body>x</body></mail>";
  auto first = source.ProcessText(heavy);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->classified);
  EXPECT_EQ(source.repository().size(), 1u);

  // Mildly drifted documents classify and eventually trigger evolution;
  // variable cc repetition teaches the evolver `cc+`.
  for (int i = 0; i < 10; ++i) {
    const char* mild =
        (i % 2 == 0)
            ? "<mail><from>a</from><to>b</to><cc>c</cc><body>x</body>"
              "</mail>"
            : "<mail><from>a</from><to>b</to><cc>c</cc><cc>d</cc>"
              "<body>x</body></mail>";
    ASSERT_TRUE(source.ProcessText(mild).ok());
  }
  EXPECT_GE(source.evolutions_performed(), 1u);
  // After evolution, the repository document fits the evolved DTD and was
  // recovered.
  EXPECT_EQ(source.repository().size(), 0u);
  bool saw_reclassified = false;
  for (const SourceEvent& event : source.EventsSince(0).events) {
    if (event.kind == SourceEvent::Kind::kReclassified) {
      saw_reclassified = true;
    }
  }
  EXPECT_TRUE(saw_reclassified);
}

TEST(XmlSourceTest, ForceEvolveAndCheck) {
  SourceOptions options;
  options.auto_evolve = false;
  XmlSource source(options);
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(source
                    .ProcessText("<mail><from>a</from><cc>x</cc>"
                                 "<body>b</body></mail>")
                    .ok());
  }
  evolve::CheckResult check = source.Check("mail");
  EXPECT_TRUE(check.should_evolve);
  EXPECT_GT(check.divergence, 0.0);
  EXPECT_EQ(source.Check("nope").documents, 0u);

  std::optional<evolve::EvolutionResult> result = source.ForceEvolve("mail");
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->any_change);
  EXPECT_FALSE(source.ForceEvolve("nope").has_value());
}

TEST(XmlSourceTest, KeepDocumentsFlag) {
  SourceOptions options;
  EXPECT_FALSE(options.keep_documents);  // unbounded store: opt-in only
  XmlSource source(options);
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(source
                  .ProcessText("<mail><from>a</from><to>b</to>"
                               "<body>x</body></mail>")
                  .ok());
  EXPECT_TRUE(source.InstancesOf("mail").empty());
  EXPECT_EQ(source.FindExtended("mail")->documents_recorded(), 1u);
}

TEST(XmlSourceTest, EventLogIsABoundedRing) {
  // One event per classified document; past the capacity the oldest are
  // overwritten, sequence numbers stay contiguous, and a reader that
  // asks for an overwritten sequence learns how many it missed.
  constexpr size_t kCapacity = XmlSource::kEventCapacity;
  constexpr size_t kExtra = 37;
  XmlSource source;
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  const std::string doc =
      "<mail><from>a</from><to>b</to><body>x</body></mail>";
  for (size_t i = 0; i < kCapacity + kExtra; ++i) {
    ASSERT_TRUE(source.ProcessText(doc).ok());
  }
  EXPECT_EQ(source.events_total(), kCapacity + kExtra);
  EXPECT_EQ(source.events_retained(), kCapacity);

  const EventPage all = source.EventsSince(0);
  EXPECT_EQ(all.oldest, kExtra);
  EXPECT_EQ(all.next, kCapacity + kExtra);
  EXPECT_EQ(all.missed, kExtra);
  ASSERT_EQ(all.events.size(), kCapacity);
  for (size_t i = 0; i < all.events.size(); ++i) {
    EXPECT_EQ(all.events[i].seq, kExtra + i);
    EXPECT_EQ(all.events[i].document_index, kExtra + i);
    EXPECT_EQ(all.events[i].kind, SourceEvent::Kind::kClassified);
  }

  const EventPage evicted = source.EventsSince(kExtra - 5);
  EXPECT_EQ(evicted.missed, 5u);
  EXPECT_EQ(evicted.events.size(), kCapacity);

  const EventPage tail = source.EventsSince(kCapacity + kExtra - 3);
  EXPECT_EQ(tail.missed, 0u);
  ASSERT_EQ(tail.events.size(), 3u);
  EXPECT_EQ(tail.events.front().seq, kCapacity + kExtra - 3);

  const EventPage caught_up = source.EventsSince(all.next);
  EXPECT_TRUE(caught_up.events.empty());
  EXPECT_EQ(caught_up.missed, 0u);
  EXPECT_EQ(caught_up.next, all.next);

  // The next event continues the sequence in the overwritten slot.
  ASSERT_TRUE(source.ProcessText("<unrelated/>").ok());
  const EventPage next = source.EventsSince(all.next);
  ASSERT_EQ(next.events.size(), 1u);
  EXPECT_EQ(next.events[0].seq, all.next);
  EXPECT_EQ(next.events[0].kind, SourceEvent::Kind::kUnclassified);
  EXPECT_EQ(source.events_retained(), kCapacity);
  EXPECT_EQ(source.EventsSince(0).oldest, kExtra + 1);
}

TEST(XmlSourceTest, OnlyRepositoryEntriesAreMaterialized) {
  // A default source scores and records streaming-parsed documents on
  // their arena trees; the only arena → DOM conversion left is the one
  // that stores a document in the repository of unclassified documents.
  XmlSource source;
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(source.AddDtdText("book", kBookDtd).ok());
  obs::Counter materialized, classified, unclassified;
  SourceMetrics metrics;
  metrics.documents_materialized = &materialized;
  metrics.documents_classified = &classified;
  metrics.documents_unclassified = &unclassified;
  source.set_metrics(metrics);

  const std::string mail =
      "<mail><from>a</from><to>b</to><body>x</body></mail>";
  const std::string drifted =
      "<mail><from>a</from><to>b</to><cc>c</cc><body>x</body></mail>";
  const std::string book = "<book><title>t</title><author>a</author></book>";
  const std::string alien = "<unrelated><z/><y/></unrelated>";
  const std::string other_alien = "<stranger>text</stranger>";

  // ProcessText: classified misses, a memo hit, an unclassified miss and
  // an unclassified memo hit.
  for (const std::string& text : {mail, mail, drifted, alien, book, alien}) {
    ASSERT_TRUE(source.ProcessText(text).ok()) << text;
  }
  EXPECT_EQ(classified.Value(), 4u);
  EXPECT_EQ(unclassified.Value(), 2u);
  EXPECT_EQ(materialized.Value(), unclassified.Value());

  // Arena ProcessBatch, inline and on a pool: fresh shapes, replays and
  // repository entries mixed in one chunk.
  util::ThreadPool pool(2);
  for (util::ThreadPool* batch_pool : {static_cast<util::ThreadPool*>(nullptr),
                                       &pool}) {
    std::vector<xml::ArenaDocument> docs;
    const std::string fresh_book =
        "<book><title>t</title><author>a</author><author>b</author></book>";
    for (const std::string& text :
         {mail, fresh_book, other_alien, drifted, alien, book, other_alien}) {
      StatusOr<xml::ArenaDocument> doc = xml::ParseArenaDocument(text);
      ASSERT_TRUE(doc.ok()) << text;
      docs.push_back(std::move(doc).value());
    }
    std::vector<XmlSource::ProcessOutcome> outcomes =
        source.ProcessBatch(std::move(docs), batch_pool);
    ASSERT_EQ(outcomes.size(), 7u);
  }
  EXPECT_EQ(classified.Value(), 4u + 2 * 4u);
  EXPECT_EQ(unclassified.Value(), 2u + 2 * 3u);
  EXPECT_EQ(materialized.Value(), unclassified.Value());
  EXPECT_EQ(source.repository().size(), unclassified.Value());
  EXPECT_EQ(source.evolutions_performed(), 0u);
}

TEST(FormatEvolutionTest, MentionsWindowsAndModels) {
  evolve::EvolutionResult result;
  evolve::ElementEvolution element;
  element.name = "a";
  element.window = evolve::Window::kNew;
  element.invalidity = 0.95;
  element.instances = 20;
  element.old_model = "(b)";
  element.new_model = "(x,y)";
  element.changed = true;
  element.trace.push_back({1, "AND(x,y)"});
  result.elements.push_back(std::move(element));
  result.added_declarations = {"x", "y"};
  std::string report = FormatEvolution(result);
  EXPECT_NE(report.find("window=new"), std::string::npos);
  EXPECT_NE(report.find("old: (b)"), std::string::npos);
  EXPECT_NE(report.find("new: (x,y)"), std::string::npos);
  EXPECT_NE(report.find("policy  1"), std::string::npos);
  EXPECT_NE(report.find("added declarations: x y"), std::string::npos);
}

/// One document a re-classification pass recovered.
struct Recovery {
  std::string dtd_name;
  double similarity = 0.0;

  friend bool operator==(const Recovery&, const Recovery&) = default;
};

/// Repository contents before an operation, by ascending id.
std::vector<std::pair<int, xml::Document>> RepositorySnapshot(
    const XmlSource& source) {
  std::vector<std::pair<int, xml::Document>> docs;
  for (int id : source.repository().Ids()) {
    docs.emplace_back(id, source.repository().Get(id).Clone());
  }
  return docs;
}

/// What a full pass — every repository document scored exactly against
/// every DTD — recovers from `before` under `source`'s current DTD set.
std::vector<Recovery> FullPass(
    const XmlSource& source,
    const std::vector<std::pair<int, xml::Document>>& before) {
  classify::ClassifierOptions plain;
  plain.enable_pruning = false;
  plain.enable_score_cache = false;
  plain.enable_classification_memo = false;
  classify::Classifier full(source.options().sigma,
                            source.options().similarity, plain);
  for (const std::string& name : source.DtdNames()) {
    full.AddDtd(name, source.FindDtd(name));
  }
  std::vector<Recovery> recovered;
  for (const auto& [id, doc] : before) {
    const classify::ClassificationOutcome outcome = full.Classify(doc);
    if (outcome.classified) {
      recovered.push_back({outcome.dtd_name, outcome.similarity});
    }
  }
  return recovered;
}

/// The `kReclassified` events from sequence number `from` on.
std::vector<Recovery> ReclassifiedSince(const XmlSource& source,
                                        uint64_t from) {
  std::vector<Recovery> recovered;
  for (const SourceEvent& event : source.EventsSince(from).events) {
    if (event.kind == SourceEvent::Kind::kReclassified) {
      recovered.push_back({event.dtd_name, event.similarity});
    }
  }
  return recovered;
}

std::unique_ptr<XmlSource> SeededSource(const SourceOptions& options,
                                        const dtd::Dtd& seed_dtd) {
  auto source = std::make_unique<XmlSource>(options);
  EXPECT_TRUE(source->AddDtd("bibliography", seed_dtd.Clone()).ok());
  return source;
}

TEST(XmlSourceTest, ChangedDtdReclassificationMatchesFullPass) {
  // Each re-classification pass scores the repository only against the
  // DTDs that changed since the previous pass; it must recover exactly
  // the documents, DTDs and similarities of a full pass, in order —
  // across evolutions with and without a pass, explicit passes, accepts
  // of induced DTDs and restores from a checkpoint.
  size_t passes = 0;
  size_t recovered_total = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SourceOptions options;
    options.sigma = 0.6 + 0.05 * static_cast<double>(seed % 4);
    options.tau = 0.1;
    options.reclassify_after_evolution = seed % 2 == 1;
    workload::ScenarioStream drifting =
        workload::MakeBibliographyScenario(seed, 60);
    workload::ScenarioStream families =
        workload::MakeMixedPopulationScenario(seed, 3, 30);
    const dtd::Dtd seed_dtd = drifting.InitialDtd();
    std::unique_ptr<XmlSource> source = SeededSource(options, seed_dtd);
    std::mt19937_64 rng(seed);

    auto check_pass = [&](const std::vector<std::pair<int, xml::Document>>&
                              before,
                          uint64_t events_before, size_t reported) {
      const std::vector<Recovery> expected = FullPass(*source, before);
      EXPECT_EQ(ReclassifiedSince(*source, events_before), expected)
          << "seed " << seed;
      EXPECT_EQ(reported, expected.size()) << "seed " << seed;
      ++passes;
      recovered_total += expected.size();
    };

    while (!drifting.Done() || !families.Done()) {
      const uint64_t roll = rng() % 100;
      const auto before = RepositorySnapshot(*source);
      const uint64_t events_before = source->events_total();
      if (roll < 4) {
        const std::vector<std::string> names = source->DtdNames();
        source->ForceEvolve(names[rng() % names.size()]);
      } else if (roll < 8) {
        check_pass(before, events_before, source->ReclassifyRepository());
      } else if (roll < 10) {
        if (source->InduceCandidates() == 0) continue;
        StatusOr<XmlSource::AcceptOutcome> accepted =
            source->AcceptCandidate(source->candidates().front().id);
        ASSERT_TRUE(accepted.ok());
        check_pass(before, events_before, accepted->reclassified);
      } else if (roll < 12) {
        // Any non-zero LSN: an LSN-0 checkpoint carries no repository.
        std::unique_ptr<XmlSource> restored = SeededSource(options, seed_dtd);
        ASSERT_TRUE(store::ApplyCheckpointToSource(
                        store::CaptureCheckpoint(*source, 1), *restored)
                        .ok());
        EXPECT_EQ(restored->repository().Ids(), source->repository().Ids());
        source = std::move(restored);
      } else {
        workload::ScenarioStream& stream =
            families.Done() || (!drifting.Done() && roll % 2 == 0)
                ? drifting
                : families;
        const XmlSource::ProcessOutcome outcome =
            source->Process(stream.Next());
        if (outcome.evolved && options.reclassify_after_evolution) {
          check_pass(before, events_before, outcome.reclassified);
        }
      }
    }
    const auto before = RepositorySnapshot(*source);
    const uint64_t events_before = source->events_total();
    check_pass(before, events_before, source->ReclassifyRepository());
  }
  EXPECT_GT(passes, 50u);
  EXPECT_GT(recovered_total, 0u);
}

}  // namespace
}  // namespace dtdevolve::core
