// Streaming-vs-DOM parse-path differential suite: both parsers must
// accept/reject identical inputs, produce structurally equal trees with
// bit-identical subtree fingerprints, and classify every document
// identically (with the classification memo replaying cached outcomes
// under the set-epoch discipline). Runs over the on-disk xml corpus,
// all four workload scenario streams, and the seeded parse-path oracle.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <utility>
#include <sstream>
#include <string>
#include <vector>

#include "check/oracle.h"
#include "classify/classifier.h"
#include "similarity/score_cache.h"
#include "similarity/thesaurus.h"
#include "util/string_util.h"
#include "util/symbol_table.h"
#include "util/thread_pool.h"
#include "workload/scenarios.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xml/stream_reader.h"
#include "xml/writer.h"

namespace dtdevolve {
namespace {

std::string Slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Asserts full equivalence of one input across the two parse paths:
/// accept/reject agreement (with the identical error message), equal
/// trees and DOCTYPE fields, and a parse-time root fingerprint
/// bit-identical to the after-the-fact DOM index.
void ExpectPathsAgree(const std::string& input, const std::string& label) {
  StatusOr<xml::Document> dom = xml::ParseDocument(input);
  StatusOr<xml::ArenaDocument> arena = xml::ParseArenaDocument(input);
  ASSERT_EQ(dom.ok(), arena.ok())
      << label << ": accept/reject disagreement — DOM "
      << (dom.ok() ? "accepts" : dom.status().message()) << ", streaming "
      << (arena.ok() ? "accepts" : arena.status().message());
  if (!dom.ok()) {
    EXPECT_EQ(dom.status().message(), arena.status().message()) << label;
    return;
  }
  ASSERT_EQ(dom->has_root(), arena->has_root()) << label;
  EXPECT_EQ(dom->doctype_name(), arena->doctype_name()) << label;
  EXPECT_EQ(dom->internal_subset(), arena->internal_subset()) << label;
  xml::Document converted = arena->ToDocument();
  ASSERT_EQ(dom->has_root(), converted.has_root()) << label;
  if (!dom->has_root()) return;
  EXPECT_TRUE(xml::StructurallyEqual(dom->root(), converted.root())) << label;
  similarity::SubtreeFingerprints fps(dom->root());
  const similarity::SubtreeStats* stats = fps.Find(&dom->root());
  ASSERT_NE(stats, nullptr) << label;
  const xml::ArenaElement& root = arena->root();
  EXPECT_EQ(stats->fp_hi, root.fp_hi) << label;
  EXPECT_EQ(stats->fp_lo, root.fp_lo) << label;
  EXPECT_EQ(stats->element_count, root.element_count) << label;
}

TEST(ParsePathTest, CorpusFilesAgreeAcrossParsers) {
  const std::filesystem::path dir =
      std::filesystem::path(DTDEVOLVE_CORPUS_DIR) / "xml";
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++files;
    ExpectPathsAgree(Slurp(entry.path()), entry.path().filename().string());
  }
  EXPECT_GE(files, 4u);  // the corpus must actually be there
}

TEST(ParsePathTest, WorkloadStreamsAgreeAcrossParsers) {
  xml::WriteOptions compact;
  compact.indent = false;
  size_t documents = 0;
  for (workload::ScenarioStream& stream : workload::MakeAllScenarios(17, 30)) {
    while (!stream.Done()) {
      xml::Document doc = stream.Next();
      ++documents;
      ExpectPathsAgree(xml::WriteDocument(doc, compact),
                       stream.name() + " #" + std::to_string(documents));
    }
  }
  EXPECT_GE(documents, 120u);
}

TEST(ParsePathTest, TextRunCollapseMatchesDomSemantics) {
  // Comments and CDATA boundaries split text into multiple DOM runs; the
  // arena pre-merges adjacent non-blank runs and drops blank ones, which
  // must be invisible to every structural reader.
  const std::vector<std::string> inputs = {
      "<a>x<!--c-->y</a>",
      "<a>  <b/>  </a>",
      "<a>x<![CDATA[ y ]]>z</a>",
      "<a>x<b>inner</b>y<!--c-->z</a>",
      "<a><![CDATA[]]><b/>tail</a>",
  };
  for (const std::string& input : inputs) {
    ExpectPathsAgree(input, input);
    StatusOr<xml::Document> dom = xml::ParseDocument(input);
    StatusOr<xml::ArenaDocument> arena = xml::ParseArenaDocument(input);
    ASSERT_TRUE(dom.ok() && arena.ok()) << input;
    EXPECT_EQ(StripWhitespace(dom->root().TextContent()),
              StripWhitespace(
                  arena->ToDocument().root().TextContent()))
        << input;
  }
}

TEST(ParsePathTest, ChildElementIteratorsMatchMaterializedVectors) {
  StatusOr<xml::Document> dom =
      xml::ParseDocument("<a>t<b/>u<c><d/></c>v<e/></a>");
  ASSERT_TRUE(dom.ok());
  const xml::Element& root = std::as_const(*dom).root();
  std::vector<const xml::Element*> materialized = root.ChildElements();
  std::vector<const xml::Element*> iterated;
  for (const xml::Element& child : root.child_elements()) {
    iterated.push_back(&child);
  }
  EXPECT_EQ(materialized, iterated);

  StatusOr<xml::ArenaDocument> arena =
      xml::ParseArenaDocument("<a>t<b/>u<c><d/></c>v<e/></a>");
  ASSERT_TRUE(arena.ok());
  std::vector<std::string_view> tags;
  for (const xml::ArenaElement& child : arena->root().child_elements()) {
    tags.push_back(child.tag);
  }
  EXPECT_EQ(tags, (std::vector<std::string_view>{"b", "c", "e"}));
}

/// Lockstep walk asserting the parse-time `has_text` flag equals what
/// `Element::HasTextContent` recomputes by scanning children.
void ExpectTextFlagsMatch(const xml::ArenaElement& arena,
                          const xml::Element& dom) {
  EXPECT_EQ(arena.has_text, dom.HasTextContent())
      << "element <" << arena.tag << ">";
  auto range = arena.child_elements();
  auto it = range.begin();
  for (const xml::Element& child : dom.child_elements()) {
    ASSERT_FALSE(it == range.end());
    ExpectTextFlagsMatch(*it, child);
    ++it;
  }
  EXPECT_TRUE(it == range.end());
}

TEST(ParsePathTest, ArenaAccountsBytesAndKnowsTextAtParseTime) {
  const std::string input =
      "<a>top<b>x</b><c><d/>  </c><e>mixed<f/>tail</e></a>";
  StatusOr<xml::ArenaDocument> arena = xml::ParseArenaDocument(input);
  ASSERT_TRUE(arena.ok());
  EXPECT_GT(arena->arena().bytes_allocated(), 0u);
  EXPECT_GE(arena->arena().bytes_reserved(), arena->arena().bytes_allocated());
  xml::Document converted = arena->ToDocument();
  ExpectTextFlagsMatch(arena->root(), converted.root());
}

/// A classifier seeded with all four workload phase-0 DTDs.
struct ClassifierFixture {
  std::vector<dtd::Dtd> dtds;
  std::vector<std::string> names;
  std::optional<classify::Classifier> classifier;

  explicit ClassifierFixture(classify::ClassifierOptions options,
                             similarity::SimilarityOptions similarity = {}) {
    for (workload::ScenarioStream& stream : workload::MakeAllScenarios(5, 1)) {
      names.push_back(stream.name());
      dtds.push_back(stream.InitialDtd());
    }
    classifier.emplace(0.5, similarity, options);
    for (size_t i = 0; i < dtds.size(); ++i) {
      classifier->AddDtd(names[i], &dtds[i]);
    }
  }
};

void ExpectOutcomesEqual(const classify::ClassificationOutcome& a,
                         const classify::ClassificationOutcome& b,
                         const std::string& label) {
  EXPECT_EQ(a.classified, b.classified) << label;
  EXPECT_EQ(a.dtd_name, b.dtd_name) << label;
  EXPECT_EQ(a.similarity, b.similarity) << label;
  EXPECT_EQ(a.scores, b.scores) << label;
}

/// Pins the global symbol table at its current contents, so every tag
/// not interned yet parses to the `kNoSymbol` sentinel.
struct FrozenSymbolsGuard {
  FrozenSymbolsGuard() { util::GlobalSymbols().set_capacity(0, 0); }
  ~FrozenSymbolsGuard() {
    util::GlobalSymbols().set_capacity(util::SymbolTable::kDefaultMaxEntries,
                                       util::SymbolTable::kDefaultMaxBytes);
  }
};

/// One input of the scoring differential, parsed on both paths.
struct ParsedPair {
  std::string label;
  xml::Document dom;
  xml::ArenaDocument arena;
};

void AddParsedPair(const std::string& text, const std::string& label,
                   std::vector<ParsedPair>& out) {
  StatusOr<xml::Document> dom = xml::ParseDocument(text);
  StatusOr<xml::ArenaDocument> arena = xml::ParseArenaDocument(text);
  ASSERT_TRUE(dom.ok() && arena.ok()) << label;
  out.push_back({label, std::move(dom).value(), std::move(arena).value()});
}

/// The differential's inputs: the four workload streams, documents whose
/// text runs are split by comments and CDATA sections (one DOM text
/// child per piece, one pre-merged arena run), and documents whose tags
/// were parsed past the symbol-table bound (`kNoSymbol` ids, so tag
/// comparison falls back to strings).
std::vector<ParsedPair> DifferentialInputs() {
  std::vector<ParsedPair> inputs;
  xml::WriteOptions compact;
  compact.indent = false;
  for (workload::ScenarioStream& stream : workload::MakeAllScenarios(23, 10)) {
    while (!stream.Done()) {
      AddParsedPair(xml::WriteDocument(stream.Next(), compact),
                    stream.name() + " #" + std::to_string(inputs.size()),
                    inputs);
    }
  }
  const std::vector<std::string> split_text = {
      "<forum><thread><title>a<!--c-->b</title><post>x<![CDATA[y]]>z"
      "</post></thread></forum>",
      "<news><item><headline>h<!--1--><!--2-->l</headline><body><![CDATA[]]>"
      "text<!--c--> <![CDATA[ more ]]></body></item></news>",
      "<catalog><product>pre<name>n</name>mid<!--c-->dle<price>1</price>"
      "<![CDATA[post]]></product></catalog>",
      "<bibliography><book><title>t<!--c--></title>x<!--c-->y<author>a"
      "</author></book></bibliography>",
  };
  for (const std::string& text : split_text) {
    AddParsedPair(text, "split text: " + text, inputs);
  }
  FrozenSymbolsGuard frozen;
  const std::vector<std::string> overflow = {
      "<forum><thread><ovpp-subject>s</ovpp-subject><post>p</post>"
      "</thread></forum>",
      "<catalog><product><name>n</name><ovpp-cost>1</ovpp-cost>"
      "<ovpp-extra><ovpp-cost>2</ovpp-cost></ovpp-extra></product></catalog>",
      "<ovpp-root><vendor>v</vendor><product><name>n</name><ovpp-cost>1"
      "</ovpp-cost></product></ovpp-root>",
  };
  for (const std::string& text : overflow) {
    AddParsedPair(text, "overflow tags: " + text, inputs);
  }
  return inputs;
}

TEST(ParsePathTest, ClassificationOutcomesIdenticalAcrossPaths) {
  std::vector<ParsedPair> inputs = DifferentialInputs();
  ASSERT_FALSE(HasFailure());
  ASSERT_GE(inputs.size(), 47u);
  // The overflow inputs must really carry sentinel ids on both paths.
  const ParsedPair& alien = inputs.back();
  ASSERT_EQ(alien.dom.root().tag_id(), util::SymbolTable::kNoSymbol);
  ASSERT_EQ(alien.arena.root().tag_id, util::SymbolTable::kNoSymbol);

  // A thesaurus moves tag scoring off the id fast path: overflow tags
  // then match DTD labels by string only.
  similarity::Thesaurus thesaurus;
  thesaurus.AddSynonym("ovpp-subject", "title", 0.8);
  thesaurus.AddSynonym("ovpp-cost", "price", 0.6);
  thesaurus.AddSynonym("ovpp-root", "catalog", 0.7);
  similarity::SimilarityOptions with_thesaurus;
  with_thesaurus.thesaurus = &thesaurus;

  struct Config {
    std::string name;
    classify::ClassifierOptions options;
    similarity::SimilarityOptions similarity;
  };
  std::vector<Config> configs(5);
  configs[0].name = "defaults";
  configs[1].name = "memo off";
  configs[1].options.enable_classification_memo = false;
  configs[2].name = "pruning off";
  configs[2].options.enable_pruning = false;
  configs[3].name = "score cache off";
  configs[3].options.enable_score_cache = false;
  configs[4].name = "thesaurus";
  configs[4].similarity = with_thesaurus;

  util::ThreadPool pool(2);
  std::vector<const xml::ArenaDocument*> arena_docs;
  for (const ParsedPair& input : inputs) arena_docs.push_back(&input.arena);
  for (const Config& config : configs) {
    // The DOM reference scores every document (its memo is off); the
    // arena side runs the configuration as given, so with the memo on
    // the second pass replays. A third classifier scores all arena
    // trees as one batch of misses on a pool.
    classify::ClassifierOptions reference_options = config.options;
    reference_options.enable_classification_memo = false;
    ClassifierFixture reference(reference_options, config.similarity);
    ClassifierFixture arena_side(config.options, config.similarity);
    ClassifierFixture batched(config.options, config.similarity);
    const std::vector<classify::ClassificationOutcome> batch =
        batched.classifier->ClassifyMisses(arena_docs, &pool);
    ASSERT_EQ(batch.size(), inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      const std::string label = config.name + " / " + inputs[i].label;
      const classify::ClassificationOutcome want =
          reference.classifier->Classify(inputs[i].dom);
      const xml::ArenaDocument& arena = inputs[i].arena;
      ExpectOutcomesEqual(want, arena_side.classifier->Classify(arena), label);
      ExpectOutcomesEqual(want, arena_side.classifier->Classify(arena),
                          label + " (second pass)");
      ExpectOutcomesEqual(want, batch[i], label + " (batch)");
      // The batch inserted every outcome into its memo.
      EXPECT_EQ(batched.classifier->MemoProbe(inputs[i].arena).has_value(),
                config.options.enable_classification_memo)
          << label;
    }
    const classify::ClassificationMemo* memo =
        arena_side.classifier->classification_memo();
    if (config.options.enable_classification_memo) {
      ASSERT_NE(memo, nullptr) << config.name;
      EXPECT_GT(memo->GetStats().hits, 0u) << config.name;
    } else {
      EXPECT_EQ(memo, nullptr) << config.name;
    }
  }
}

TEST(ParsePathTest, MemoProbeReplaysOnlyAfterClassification) {
  ClassifierFixture fixture(classify::ClassifierOptions{});
  StatusOr<xml::ArenaDocument> arena =
      xml::ParseArenaDocument("<bibliography></bibliography>");
  ASSERT_TRUE(arena.ok());
  EXPECT_FALSE(fixture.classifier->MemoProbe(*arena).has_value());
  classify::ClassificationOutcome scored = fixture.classifier->Classify(*arena);
  std::optional<classify::ClassificationOutcome> probed =
      fixture.classifier->MemoProbe(*arena);
  ASSERT_TRUE(probed.has_value());
  ExpectOutcomesEqual(scored, *probed, "probe");
}

TEST(ParsePathTest, EveryOutcomeRelevantMutationBumpsSetEpoch) {
  ClassifierFixture fixture(classify::ClassifierOptions{});
  classify::Classifier& classifier = *fixture.classifier;
  const classify::ClassificationMemo* memo = classifier.classification_memo();
  ASSERT_NE(memo, nullptr);
  StatusOr<xml::ArenaDocument> warm =
      xml::ParseArenaDocument("<bibliography><x/></bibliography>");
  ASSERT_TRUE(warm.ok());
  uint64_t epoch = classifier.set_epoch();
  // Each mutation draws a fresh epoch and frees the memo entries of the
  // one it supersedes.
  auto expect_superseded = [&](const char* mutation) {
    EXPECT_NE(classifier.set_epoch(), epoch) << mutation;
    EXPECT_EQ(memo->EntriesOfEpoch(epoch), 0u) << mutation;
    EXPECT_EQ(memo->GetStats().entries, 0u) << mutation;
    epoch = classifier.set_epoch();
    (void)classifier.Classify(*warm);
    EXPECT_EQ(memo->EntriesOfEpoch(epoch), 1u) << mutation;
  };
  (void)classifier.Classify(*warm);
  ASSERT_EQ(memo->EntriesOfEpoch(epoch), 1u);

  classifier.set_sigma(0.6);
  expect_superseded("set_sigma");

  dtd::Dtd extra = fixture.dtds.front().Clone();
  classifier.AddDtd("extra", &extra);
  expect_superseded("AddDtd");

  classifier.Invalidate("extra");
  expect_superseded("Invalidate");

  EXPECT_TRUE(classifier.RemoveDtd("extra"));
  expect_superseded("RemoveDtd");

  classifier.InvalidateAll();
  expect_superseded("InvalidateAll");

  // A memoized outcome from before a mutation must be unreachable after.
  StatusOr<xml::ArenaDocument> arena =
      xml::ParseArenaDocument("<bibliography></bibliography>");
  ASSERT_TRUE(arena.ok());
  (void)classifier.Classify(*arena);
  EXPECT_TRUE(classifier.MemoProbe(*arena).has_value());
  classifier.set_sigma(0.4);
  EXPECT_FALSE(classifier.MemoProbe(*arena).has_value());
}

TEST(ParsePathTest, ParsePathOracleHoldsOnSeededScenarios) {
  check::ParsePathOracleOptions options;
  options.scenarios = 25;
  options.seed = 1;
  check::ParsePathOracleReport report = check::RunParsePathOracle(options);
  EXPECT_TRUE(report.ok()) << check::FormatParsePathReport(report);
  EXPECT_EQ(report.scenarios_run, 25u);
  EXPECT_GT(report.documents, 500u);   // must actually exercise the pipeline
  EXPECT_GE(report.wal_replays, 1u);   // the sampled WAL leg must fire
}

TEST(ParsePathTest, ParsePathScenariosAreDeterministic) {
  check::ScenarioResult first = check::RunParsePathScenario(4);
  check::ScenarioResult second = check::RunParsePathScenario(4);
  EXPECT_EQ(first.scenario, second.scenario);
  EXPECT_EQ(first.documents, second.documents);
  EXPECT_EQ(first.violations.size(), second.violations.size());
  EXPECT_TRUE(first.ok()) << check::FormatScenario(first);
}

}  // namespace
}  // namespace dtdevolve
