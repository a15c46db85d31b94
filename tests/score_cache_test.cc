// Fast-path correctness suite: the shared subtree score cache, the
// score-bound pruning layer, and their interaction with classification —
// every test here checks the fast path against the plain evaluation it
// replaces, because the whole contract is "same answers, less work".
// Runs under the `concurrency` ctest label so the TSan leg covers the
// shared-cache hammering.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "classify/classifier.h"
#include "core/source.h"
#include "dtd/dtd_parser.h"
#include "similarity/score_cache.h"
#include "similarity/similarity.h"
#include "util/symbol_table.h"
#include "workload/generator.h"
#include "workload/mutator.h"
#include "workload/scenarios.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace dtdevolve {
namespace {

dtd::Dtd MakeDtd(const char* text) {
  StatusOr<dtd::Dtd> dtd = dtd::ParseDtd(text);
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  return std::move(*dtd);
}

xml::Document MakeDoc(const char* text) {
  StatusOr<xml::Document> doc = xml::ParseDocument(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(*doc);
}

/// A drifted corpus over all four scenario schemas — documents that hit
/// every DTD, near-misses included.
struct Corpus {
  std::vector<dtd::Dtd> dtds;
  std::vector<std::string> names;
  std::vector<xml::Document> docs;
};

Corpus MakeCorpus(uint64_t seed, uint64_t docs_per_phase) {
  Corpus corpus;
  std::vector<workload::ScenarioStream> scenarios =
      workload::MakeAllScenarios(seed, docs_per_phase);
  for (workload::ScenarioStream& scenario : scenarios) {
    corpus.names.push_back(scenario.name());
    corpus.dtds.push_back(scenario.InitialDtd());
    while (!scenario.Done()) corpus.docs.push_back(scenario.Next());
  }
  return corpus;
}

/// DTDs sharing one root tag but diverging content models. The scenario
/// corpus above has mutually distinct roots, so the root-tag gate zeroes
/// almost every cross-DTD score and a mis-firing cutoff skips only DTDs
/// that would have scored 0 anyway; here every DTD scores non-zero
/// against every document, so pruning decisions discriminate between
/// live scores.
Corpus MakeSharedRootCorpus() {
  Corpus corpus;
  corpus.names = {"article-v1", "article-v2", "article-v3"};
  corpus.dtds.push_back(MakeDtd(R"(
      <!ELEMENT article (title, body)>
      <!ELEMENT title (#PCDATA)> <!ELEMENT body (#PCDATA)>)"));
  corpus.dtds.push_back(MakeDtd(R"(
      <!ELEMENT article (title, author, body)>
      <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)>
      <!ELEMENT body (#PCDATA)>)"));
  corpus.dtds.push_back(MakeDtd(R"(
      <!ELEMENT article (title, author+, abstract?, body, ref*)>
      <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)>
      <!ELEMENT abstract (#PCDATA)> <!ELEMENT body (#PCDATA)>
      <!ELEMENT ref (#PCDATA)>)"));
  const char* docs[] = {
      // Exact matches for each version.
      "<article><title>t</title><body>b</body></article>",
      "<article><title>t</title><author>a</author><body>b</body></article>",
      "<article><title>t</title><author>a</author><author>c</author>"
      "<abstract>s</abstract><body>b</body><ref>r</ref></article>",
      // Partial / drifted documents: no version fits perfectly.
      "<article><title>t</title><author>a</author></article>",
      "<article><body>b</body><extra>x</extra></article>",
      "<article><title>t</title><note>n</note><body>b</body></article>",
      "<article><author>a</author><abstract>s</abstract><ref>r</ref>"
      "</article>",
  };
  for (const char* text : docs) corpus.docs.push_back(MakeDoc(text));
  return corpus;
}

classify::ClassifierOptions PlainOptions() {
  classify::ClassifierOptions options;
  options.enable_pruning = false;
  options.enable_score_cache = false;
  return options;
}

void ExpectSameOutcome(const classify::ClassificationOutcome& fast,
                       const classify::ClassificationOutcome& plain,
                       const char* where) {
  EXPECT_EQ(fast.classified, plain.classified) << where;
  EXPECT_EQ(fast.dtd_name, plain.dtd_name) << where;
  EXPECT_EQ(fast.similarity, plain.similarity) << where;  // bit-exact
  ASSERT_EQ(fast.scores.size(), plain.scores.size()) << where;
  for (size_t i = 0; i < fast.scores.size(); ++i) {
    EXPECT_EQ(fast.scores[i].dtd_name, plain.scores[i].dtd_name) << where;
    if (fast.scores[i].pruned) {
      // Pruned entries carry the bound: conservative (≥ exact) and
      // strictly below the winner, or they could not have been pruned.
      EXPECT_GE(fast.scores[i].similarity, plain.scores[i].similarity)
          << where << " entry " << i;
      EXPECT_LT(fast.scores[i].similarity, fast.similarity)
          << where << " entry " << i;
    } else {
      EXPECT_EQ(fast.scores[i].similarity, plain.scores[i].similarity)
          << where << " entry " << i;
    }
  }
}

// --- Classification equivalence ---------------------------------------------

TEST(FastPathTest, CachedAndPrunedOutcomesMatchPlainEvaluation) {
  Corpus corpus = MakeCorpus(11, 25);
  classify::Classifier fast(0.5);  // pruning + cache defaults
  classify::Classifier plain(0.5, {}, PlainOptions());
  for (size_t i = 0; i < corpus.dtds.size(); ++i) {
    fast.AddDtd(corpus.names[i], &corpus.dtds[i]);
    plain.AddDtd(corpus.names[i], &corpus.dtds[i]);
  }
  // Two passes: the second classifies every document against a warm
  // cache, which must not change a single answer.
  for (int pass = 0; pass < 2; ++pass) {
    for (const xml::Document& doc : corpus.docs) {
      ExpectSameOutcome(fast.Classify(doc), plain.Classify(doc),
                        pass == 0 ? "cold pass" : "warm pass");
    }
  }
  ASSERT_NE(fast.score_cache(), nullptr);
  EXPECT_GT(fast.score_cache()->GetStats().hits, 0u);
}

TEST(FastPathTest, PruningAloneIsOutcomeIdentical) {
  Corpus corpus = MakeCorpus(13, 20);
  classify::ClassifierOptions prune_only = PlainOptions();
  prune_only.enable_pruning = true;
  classify::Classifier pruned(0.5, {}, prune_only);
  classify::Classifier plain(0.5, {}, PlainOptions());
  for (size_t i = 0; i < corpus.dtds.size(); ++i) {
    pruned.AddDtd(corpus.names[i], &corpus.dtds[i]);
    plain.AddDtd(corpus.names[i], &corpus.dtds[i]);
  }
  size_t pruned_entries = 0;
  for (const xml::Document& doc : corpus.docs) {
    classify::ClassificationOutcome fast = pruned.Classify(doc);
    ExpectSameOutcome(fast, plain.Classify(doc), "prune-only");
    for (const classify::ScoreEntry& entry : fast.scores) {
      if (entry.pruned) ++pruned_entries;
    }
  }
  // Distinct scenario roots: most cross-DTD evaluations must be pruned,
  // or the fast path is not actually fast.
  EXPECT_GT(pruned_entries, corpus.docs.size());
}

TEST(FastPathTest, PruningDisabledEvaluatesEveryDtd) {
  // Regression: with pruning off every candidate bound is a meaningless
  // 0.0; an unguarded cutoff skipped everything after the first exact
  // score and returned the lexicographically-first DTD instead of the
  // true match. Shared root tags make the wrong answer visible — with
  // distinct roots the skipped DTDs would have scored 0 anyway.
  Corpus corpus = MakeSharedRootCorpus();
  classify::Classifier plain(0.5, {}, PlainOptions());
  for (size_t i = 0; i < corpus.dtds.size(); ++i) {
    plain.AddDtd(corpus.names[i], &corpus.dtds[i]);
  }
  // docs[1] matches article-v2 exactly; v1 and v3 score below 1.0.
  classify::ClassificationOutcome outcome = plain.Classify(corpus.docs[1]);
  EXPECT_EQ(outcome.dtd_name, "article-v2");
  EXPECT_DOUBLE_EQ(outcome.similarity, 1.0);
  EXPECT_TRUE(outcome.classified);
  for (const classify::ScoreEntry& entry : outcome.scores) {
    EXPECT_FALSE(entry.pruned) << entry.dtd_name;
    EXPECT_GT(entry.similarity, 0.0) << entry.dtd_name;  // shared root
  }
}

TEST(FastPathTest, SharedRootOutcomesMatchPlainEvaluation) {
  // Every DTD scores non-zero against every document here, so the prune
  // cutoff and the shared cache are exercised on scores that actually
  // discriminate — not hidden behind the root-tag gate.
  Corpus corpus = MakeSharedRootCorpus();
  classify::Classifier fast(0.5);  // pruning + cache defaults
  classify::ClassifierOptions prune_only = PlainOptions();
  prune_only.enable_pruning = true;
  classify::Classifier pruned(0.5, {}, prune_only);
  classify::Classifier plain(0.5, {}, PlainOptions());
  for (size_t i = 0; i < corpus.dtds.size(); ++i) {
    fast.AddDtd(corpus.names[i], &corpus.dtds[i]);
    pruned.AddDtd(corpus.names[i], &corpus.dtds[i]);
    plain.AddDtd(corpus.names[i], &corpus.dtds[i]);
  }
  size_t pruned_entries = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const xml::Document& doc : corpus.docs) {
      classify::ClassificationOutcome reference = plain.Classify(doc);
      ExpectSameOutcome(fast.Classify(doc), reference, "shared-root fast");
      classify::ClassificationOutcome prune_outcome = pruned.Classify(doc);
      ExpectSameOutcome(prune_outcome, reference, "shared-root prune-only");
      for (const classify::ScoreEntry& entry : prune_outcome.scores) {
        if (entry.pruned) ++pruned_entries;
      }
    }
  }
  // docs[2] (an exact article-v3 match whose vocabulary overhangs v1/v2)
  // must let the cutoff fire on non-zero bounds.
  EXPECT_GT(pruned_entries, 0u);
}

// --- Score bound admissibility ----------------------------------------------

TEST(FastPathTest, ScoreBoundDominatesExactSimilarity) {
  Corpus corpus = MakeCorpus(17, 15);
  classify::Classifier classifier(0.5, {}, PlainOptions());
  for (size_t i = 0; i < corpus.dtds.size(); ++i) {
    classifier.AddDtd(corpus.names[i], &corpus.dtds[i]);
  }
  // Extra drift beyond what the scenarios produce, so bounds are probed
  // on badly damaged documents too.
  workload::MutationOptions mutation;
  mutation.drop_probability = 0.3;
  mutation.insert_probability = 0.3;
  mutation.duplicate_probability = 0.2;
  mutation.new_tags = {"alien", "intruder"};
  workload::Mutator mutator(mutation, 99);

  size_t checked = 0;
  for (xml::Document& doc : corpus.docs) {
    mutator.Mutate(doc);
    for (const std::string& name : corpus.names) {
      std::optional<double> bound = classifier.ScoreBound(doc, name);
      std::optional<double> exact = classifier.Similarity(doc, name);
      ASSERT_TRUE(bound.has_value());
      ASSERT_TRUE(exact.has_value());
      EXPECT_GE(*bound + 1e-12, *exact)
          << name << ": bound " << *bound << " < exact " << *exact;
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST(FastPathTest, NegativeWeightsDisableTheBound) {
  // E is not monotone for negative weights, so the bound must degrade to
  // the trivial 1.0 (prune nothing) instead of guessing.
  dtd::Dtd dtd = MakeDtd("<!ELEMENT a (b)> <!ELEMENT b (#PCDATA)>");
  similarity::SimilarityOptions options;
  options.weights.plus_weight = -1.0;
  classify::Classifier classifier(0.5, options, PlainOptions());
  classifier.AddDtd("a", &dtd);
  xml::Document doc = MakeDoc("<a><x/><y/></a>");
  EXPECT_DOUBLE_EQ(classifier.ScoreBound(doc, "a").value(), 1.0);
}

// --- Cache behaviour ---------------------------------------------------------

TEST(FastPathTest, InvalidateOrphansStaleCacheEntries) {
  dtd::Dtd dtd = MakeDtd(R"(
    <!ELEMENT mail (from, to, body)>
    <!ELEMENT from (#PCDATA)> <!ELEMENT to (#PCDATA)>
    <!ELEMENT body (#PCDATA)>
  )");
  classify::Classifier classifier(0.5);
  classifier.AddDtd("mail", &dtd);
  xml::Document extended = MakeDoc(
      "<mail><from>a</from><to>b</to><cc>c</cc><body>x</body></mail>");
  const double before = classifier.Classify(extended).similarity;
  EXPECT_LT(before, 1.0);

  // Evolve the DTD in place, then Invalidate: the rebuilt evaluator draws
  // a fresh epoch, so the warm cache entries keyed by the old epoch must
  // be unreachable — the evolved score must be exact, not a stale hit.
  StatusOr<dtd::ContentModel::Ptr> model =
      dtd::ParseContentModel("(from, to, cc, body)");
  ASSERT_TRUE(model.ok());
  dtd.SetContent("mail", std::move(model).value());
  dtd.DeclareElement("cc", dtd::ContentModel::Pcdata());
  const uint64_t old_evaluator = classifier.evaluator_epoch("mail");
  const uint64_t old_set = classifier.set_epoch();
  ASSERT_NE(classifier.score_cache(), nullptr);
  ASSERT_NE(classifier.classification_memo(), nullptr);
  EXPECT_GT(classifier.score_cache()->EntriesOfEpoch(old_evaluator), 0u);
  EXPECT_GT(classifier.classification_memo()->EntriesOfEpoch(old_set), 0u);
  classifier.Invalidate("mail");
  // The superseded epochs are freed at once, not left to age out.
  EXPECT_EQ(classifier.score_cache()->EntriesOfEpoch(old_evaluator), 0u);
  EXPECT_EQ(classifier.classification_memo()->EntriesOfEpoch(old_set), 0u);
  EXPECT_EQ(classifier.score_cache()->GetStats().entries, 0u);
  EXPECT_DOUBLE_EQ(classifier.Classify(extended).similarity, 1.0);
  // And repeatedly, now against the new evaluator's warm entries.
  EXPECT_DOUBLE_EQ(classifier.Classify(extended).similarity, 1.0);

  // Every epoch-superseding call frees exactly what it supersedes — the
  // memo entries of the old set-epoch and the cache entries of each
  // replaced evaluator — and nothing else, on a shared memo and cache;
  // outcomes stay those of a classifier without either.
  Corpus corpus = MakeCorpus(29, 15);
  similarity::SubtreeScoreCache cache;
  classify::ClassificationMemo memo;
  classify::ClassifierOptions shared;
  shared.shared_cache = &cache;
  shared.shared_memo = &memo;
  classify::ClassifierOptions bare = PlainOptions();
  bare.enable_classification_memo = false;
  auto fast = std::make_unique<classify::Classifier>(
      0.5, similarity::SimilarityOptions{}, shared);
  classify::Classifier plain(0.5, {}, bare);
  for (size_t i = 0; i + 1 < corpus.dtds.size(); ++i) {
    fast->AddDtd(corpus.names[i], &corpus.dtds[i]);
    plain.AddDtd(corpus.names[i], &corpus.dtds[i]);
  }
  const std::string& last = corpus.names.back();
  dtd::Dtd* last_dtd = &corpus.dtds.back();
  struct Step {
    const char* name;
    std::function<void(classify::Classifier&)> apply;
    std::vector<std::string> replaced;
  };
  const std::vector<Step> steps = {
      {"AddDtd",
       [&](classify::Classifier& c) { c.AddDtd(last, last_dtd); },
       {}},
      {"Invalidate",
       [&](classify::Classifier& c) { c.Invalidate(corpus.names[0]); },
       {corpus.names[0]}},
      {"set_sigma", [](classify::Classifier& c) { c.set_sigma(0.55); }, {}},
      {"AddDtd (re-register)",
       [&](classify::Classifier& c) {
         c.AddDtd(corpus.names[1], &corpus.dtds[1]);
       },
       {corpus.names[1]}},
      {"InvalidateAll", [](classify::Classifier& c) { c.InvalidateAll(); },
       corpus.names},
      {"RemoveDtd", [&](classify::Classifier& c) { c.RemoveDtd(last); },
       {last}},
  };
  uint64_t replaced_entries = 0;
  for (const Step& step : steps) {
    for (const xml::Document& doc : corpus.docs) {
      ExpectSameOutcome(fast->Classify(doc), plain.Classify(doc), step.name);
    }
    const uint64_t set_before = fast->set_epoch();
    EXPECT_GT(memo.EntriesOfEpoch(set_before), 0u) << step.name;
    std::map<std::string, std::pair<uint64_t, uint64_t>> before;
    for (const std::string& name : fast->DtdNames()) {
      const uint64_t epoch = fast->evaluator_epoch(name);
      before[name] = {epoch, cache.EntriesOfEpoch(epoch)};
    }
    step.apply(*fast);
    step.apply(plain);
    EXPECT_NE(fast->set_epoch(), set_before) << step.name;
    EXPECT_EQ(memo.EntriesOfEpoch(set_before), 0u) << step.name;
    EXPECT_EQ(memo.GetStats().entries, 0u) << step.name;
    for (const auto& [name, epoch_entries] : before) {
      const auto [epoch, entries] = epoch_entries;
      const bool replaced =
          std::find(step.replaced.begin(), step.replaced.end(), name) !=
          step.replaced.end();
      if (replaced) {
        EXPECT_NE(fast->evaluator_epoch(name), epoch) << step.name;
        EXPECT_EQ(cache.EntriesOfEpoch(epoch), 0u)
            << step.name << " " << name;
        replaced_entries += entries;
      } else {
        EXPECT_EQ(fast->evaluator_epoch(name), epoch) << step.name;
        EXPECT_EQ(cache.EntriesOfEpoch(epoch), entries)
            << step.name << " " << name;
      }
    }
  }
  EXPECT_GT(replaced_entries, 0u);
  for (const xml::Document& doc : corpus.docs) {
    ExpectSameOutcome(fast->Classify(doc), plain.Classify(doc), "final");
  }
  EXPECT_GT(cache.GetStats().entries, 0u);
  fast.reset();
  EXPECT_EQ(memo.GetStats().entries, 0u);
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(FastPathTest, SourceHoldsOnlyLiveEpochsAcrossEvolutions) {
  // A drifting stream evolves its DTDs many times. Each evolution frees
  // the superseded memo epoch at once, so the shared memo never holds
  // more than the documents classified since the last epoch change, and
  // the outcomes equal a source with no memo and no cache.
  similarity::SubtreeScoreCache cache;
  classify::ClassificationMemo memo;
  core::SourceOptions fast_options;
  fast_options.tau = 0.1;
  fast_options.classifier.shared_cache = &cache;
  fast_options.classifier.shared_memo = &memo;
  core::SourceOptions plain_options;
  plain_options.tau = 0.1;
  plain_options.classifier = PlainOptions();
  plain_options.classifier.enable_classification_memo = false;
  auto fast = std::make_unique<core::XmlSource>(fast_options);
  core::XmlSource plain(plain_options);
  std::vector<workload::ScenarioStream> scenarios =
      workload::MakeAllScenarios(31, 25);
  for (workload::ScenarioStream& scenario : scenarios) {
    ASSERT_TRUE(fast->AddDtd(scenario.name(), scenario.InitialDtd()).ok());
    ASSERT_TRUE(plain.AddDtd(scenario.name(), scenario.InitialDtd()).ok());
  }
  xml::WriteOptions compact;
  compact.indent = false;
  size_t since_change = 0;
  size_t evolutions = 0;
  bool more = true;
  while (more) {
    more = false;
    for (workload::ScenarioStream& scenario : scenarios) {
      if (scenario.Done()) continue;
      more = true;
      const std::string text = xml::WriteDocument(scenario.Next(), compact);
      StatusOr<core::XmlSource::ProcessOutcome> a = fast->ProcessText(text);
      StatusOr<core::XmlSource::ProcessOutcome> b = plain.ProcessText(text);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a->classified, b->classified);
      EXPECT_EQ(a->dtd_name, b->dtd_name);
      EXPECT_EQ(a->similarity, b->similarity);
      EXPECT_EQ(a->evolved, b->evolved);
      EXPECT_EQ(a->reclassified, b->reclassified);
      if (a->evolved) {
        ++evolutions;
        since_change = 0;
        EXPECT_EQ(memo.GetStats().entries, 0u);
      } else {
        ++since_change;
        EXPECT_LE(memo.GetStats().entries, since_change);
      }
    }
  }
  EXPECT_GT(evolutions, 3u);
  EXPECT_GT(memo.GetStats().released, 0u);
  EXPECT_GT(cache.GetStats().released, 0u);
  fast.reset();
  EXPECT_EQ(memo.GetStats().entries, 0u);
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(FastPathTest, TinyCapacityEvictsButStaysCorrect) {
  Corpus corpus = MakeCorpus(19, 20);
  classify::ClassifierOptions tiny;
  tiny.enable_pruning = true;
  tiny.enable_score_cache = true;
  tiny.score_cache_bytes = 1;  // one entry per shard: constant churn
  classify::Classifier small(0.5, {}, tiny);
  classify::Classifier plain(0.5, {}, PlainOptions());
  for (size_t i = 0; i < corpus.dtds.size(); ++i) {
    small.AddDtd(corpus.names[i], &corpus.dtds[i]);
    plain.AddDtd(corpus.names[i], &corpus.dtds[i]);
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (const xml::Document& doc : corpus.docs) {
      ExpectSameOutcome(small.Classify(doc), plain.Classify(doc),
                        "tiny capacity");
    }
  }
  ASSERT_NE(small.score_cache(), nullptr);
  const similarity::SubtreeScoreCache::Stats stats =
      small.score_cache()->GetStats();
  EXPECT_GT(stats.evictions, 0u);
}

TEST(SubtreeScoreCacheTest, LookupInsertEvictClear) {
  similarity::SubtreeScoreCache::Config config;
  config.capacity_bytes = 16 * 160;  // exactly one entry per shard
  similarity::SubtreeScoreCache cache(config);

  similarity::SubtreeScoreCache::Key key{1, 0xAB, 0xCD, 7};
  similarity::Triple triple;
  EXPECT_FALSE(cache.Lookup(key, &triple));
  similarity::Triple stored;
  stored.common = 3.0;
  cache.Insert(key, stored);
  ASSERT_TRUE(cache.Lookup(key, &triple));
  EXPECT_DOUBLE_EQ(triple.common, 3.0);

  // Same shard (same fp_lo/label), different fingerprint: evicts the
  // first entry under the one-entry capacity.
  similarity::SubtreeScoreCache::Key other{1, 0xEF, 0xCD, 7};
  cache.Insert(other, stored);
  EXPECT_TRUE(cache.Lookup(other, &triple));
  EXPECT_FALSE(cache.Lookup(key, &triple));

  const similarity::SubtreeScoreCache::Stats stats = cache.GetStats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);

  cache.Clear();
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_FALSE(cache.Lookup(other, &triple));
}

TEST(SubtreeFingerprintsTest, StructureDeterminesFingerprint) {
  xml::Document a = MakeDoc("<r><x><y>t</y><z/></x><x><y>u</y><z/></x></r>");
  similarity::SubtreeFingerprints fps(a.root());
  const xml::Element& first = a.root().children()[0]->AsElement();
  const xml::Element& second = a.root().children()[1]->AsElement();
  const similarity::SubtreeStats* s1 = fps.Find(&first);
  const similarity::SubtreeStats* s2 = fps.Find(&second);
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s2, nullptr);
  // Same structure (text values don't matter), same fingerprint…
  EXPECT_EQ(s1->fp_hi, s2->fp_hi);
  EXPECT_EQ(s1->fp_lo, s2->fp_lo);
  EXPECT_EQ(s1->element_count, s2->element_count);
  // …different structure, different fingerprint.
  xml::Document b = MakeDoc("<r><x><y>t</y></x></r>");
  similarity::SubtreeFingerprints other(b.root());
  const similarity::SubtreeStats* s3 =
      other.Find(&b.root().children()[0]->AsElement());
  ASSERT_NE(s3, nullptr);
  EXPECT_FALSE(s3->fp_hi == s1->fp_hi && s3->fp_lo == s1->fp_lo);
}

// --- Symbol interning overflow -----------------------------------------------

/// Freezes the global symbol table (no new bounded ids) for one test and
/// restores the default capacity on scope exit, pass or fail.
struct FrozenSymbolsGuard {
  FrozenSymbolsGuard() { util::GlobalSymbols().set_capacity(0, 0); }
  ~FrozenSymbolsGuard() {
    util::GlobalSymbols().set_capacity(util::SymbolTable::kDefaultMaxEntries,
                                       util::SymbolTable::kDefaultMaxBytes);
  }
};

TEST(FastPathTest, OverflowTagsClassifyByStringFallback) {
  // A hostile stream of endless distinct tags eventually fills the
  // bounded table; from then on fresh tags share the kNoSymbol sentinel
  // and classification must degrade to string comparison, not confuse
  // distinct tags whose sentinel ids compare equal.
  dtd::Dtd dtd = MakeDtd(R"(
    <!ELEMENT mail (from, body)>
    <!ELEMENT from (#PCDATA)> <!ELEMENT body (#PCDATA)>
  )");
  classify::Classifier fast(0.5);
  classify::Classifier plain(0.5, {}, PlainOptions());
  fast.AddDtd("mail", &dtd);
  plain.AddDtd("mail", &dtd);

  FrozenSymbolsGuard frozen;
  // DTD labels were interned (unbounded) before the freeze: a conforming
  // document still resolves every tag and scores exactly 1.0.
  xml::Document conforming =
      MakeDoc("<mail><from>a</from><body>b</body></mail>");
  EXPECT_DOUBLE_EQ(fast.Classify(conforming).similarity, 1.0);

  // Novel tags overflow to the sentinel…
  xml::Document drifted = MakeDoc(
      "<mail><from>a</from><ovfl-alpha/><body>b</body></mail>");
  ASSERT_EQ(drifted.root().ChildElements()[1]->tag_id(),
            util::SymbolTable::kNoSymbol);
  // …and the fast path still agrees with the plain string-truth path,
  // scoring the overflow child as undeclared drift.
  for (int pass = 0; pass < 2; ++pass) {
    classify::ClassificationOutcome outcome = fast.Classify(drifted);
    ExpectSameOutcome(outcome, plain.Classify(drifted), "overflow drift");
    EXPECT_LT(outcome.similarity, 1.0);
    EXPECT_GT(outcome.similarity, 0.0);
  }

  // Two documents differing only in their overflow tag are distinct
  // inputs; sentinel-id equality must not make one borrow the other's
  // cached or compared identity.
  xml::Document other = MakeDoc(
      "<mail><from>a</from><ovfl-beta/><body>b</body></mail>");
  ExpectSameOutcome(fast.Classify(other), plain.Classify(other),
                    "overflow variant");

  // An overflow *root* shares no tag with the DTD root: score 0.
  xml::Document alien_root = MakeDoc("<ovfl-root><from>a</from></ovfl-root>");
  ASSERT_EQ(alien_root.root().tag_id(), util::SymbolTable::kNoSymbol);
  classify::ClassificationOutcome alien = fast.Classify(alien_root);
  EXPECT_DOUBLE_EQ(alien.similarity, 0.0);
  EXPECT_FALSE(alien.classified);
}

TEST(SubtreeFingerprintsTest, OverflowTagsKeepDistinctFingerprints) {
  // Sentinel ids alone would fingerprint structurally different subtrees
  // identically and alias their cached triples; overflow tags must hash
  // by string instead.
  FrozenSymbolsGuard frozen;
  xml::Document a = MakeDoc("<r><ovfp-one/></r>");
  xml::Document b = MakeDoc("<r><ovfp-two/></r>");
  const xml::Element& child_a = a.root().children()[0]->AsElement();
  const xml::Element& child_b = b.root().children()[0]->AsElement();
  ASSERT_EQ(child_a.tag_id(), util::SymbolTable::kNoSymbol);
  ASSERT_EQ(child_b.tag_id(), util::SymbolTable::kNoSymbol);
  similarity::SubtreeFingerprints fps_a(a.root());
  similarity::SubtreeFingerprints fps_b(b.root());
  const similarity::SubtreeStats* sa = fps_a.Find(&child_a);
  const similarity::SubtreeStats* sb = fps_b.Find(&child_b);
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sb, nullptr);
  EXPECT_FALSE(sa->fp_hi == sb->fp_hi && sa->fp_lo == sb->fp_lo);
  // Same overflow tag, same structure: fingerprints still agree, so the
  // cross-document cache keeps working for overflow subtrees.
  xml::Document c = MakeDoc("<r><ovfp-one/></r>");
  similarity::SubtreeFingerprints fps_c(c.root());
  const similarity::SubtreeStats* sc =
      fps_c.Find(&c.root().children()[0]->AsElement());
  ASSERT_NE(sc, nullptr);
  EXPECT_EQ(sa->fp_hi, sc->fp_hi);
  EXPECT_EQ(sa->fp_lo, sc->fp_lo);
}

// --- Concurrency -------------------------------------------------------------

TEST(FastPathTest, ConcurrentBatchesShareTheCacheSafely) {
  Corpus corpus = MakeCorpus(23, 25);
  classify::Classifier fast(0.5);
  for (size_t i = 0; i < corpus.dtds.size(); ++i) {
    fast.AddDtd(corpus.names[i], &corpus.dtds[i]);
  }
  // Sequential reference first (also warms the cache — the concurrent
  // batches then mix hits, misses and evictions).
  std::vector<classify::ClassificationOutcome> reference;
  reference.reserve(corpus.docs.size());
  for (const xml::Document& doc : corpus.docs) {
    reference.push_back(fast.Classify(doc));
  }
  // Several concurrent batch rounds over the same shared cache.
  for (int round = 0; round < 3; ++round) {
    std::vector<classify::ClassificationOutcome> batch =
        fast.ClassifyBatch(corpus.docs, 4);
    ASSERT_EQ(batch.size(), reference.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].classified, reference[i].classified);
      EXPECT_EQ(batch[i].dtd_name, reference[i].dtd_name);
      EXPECT_EQ(batch[i].similarity, reference[i].similarity);
      EXPECT_EQ(batch[i].scores, reference[i].scores);
    }
  }
  ASSERT_NE(fast.score_cache(), nullptr);
  EXPECT_GT(fast.score_cache()->GetStats().hits, 0u);
}

TEST(FastPathTest, ReleasingOneClassifierSparesASharedNeighbour) {
  // One classifier supersedes its epochs over and over while another,
  // sharing the memo and the cache, scores batches on other threads:
  // the releases free only the churning classifier's entries, and the
  // neighbour's outcomes stay exact.
  Corpus corpus = MakeCorpus(37, 15);
  similarity::SubtreeScoreCache cache;
  classify::ClassificationMemo memo;
  classify::ClassifierOptions shared;
  shared.shared_cache = &cache;
  shared.shared_memo = &memo;
  classify::ClassifierOptions bare = PlainOptions();
  bare.enable_classification_memo = false;
  classify::Classifier churn(0.5, {}, shared);
  classify::Classifier steady(0.5, {}, shared);
  classify::Classifier plain(0.5, {}, bare);
  for (size_t i = 0; i < corpus.dtds.size(); ++i) {
    churn.AddDtd(corpus.names[i], &corpus.dtds[i]);
    steady.AddDtd(corpus.names[i], &corpus.dtds[i]);
    plain.AddDtd(corpus.names[i], &corpus.dtds[i]);
  }
  std::vector<classify::ClassificationOutcome> reference;
  for (const xml::Document& doc : corpus.docs) {
    reference.push_back(plain.Classify(doc));
  }
  std::thread churner([&] {
    for (int round = 0; round < 8; ++round) {
      for (const xml::Document& doc : corpus.docs) (void)churn.Classify(doc);
      if (round % 2 == 0) {
        churn.InvalidateAll();
      } else {
        churn.Invalidate(corpus.names[round % corpus.names.size()]);
      }
    }
  });
  for (int round = 0; round < 3; ++round) {
    std::vector<classify::ClassificationOutcome> batch =
        steady.ClassifyBatch(corpus.docs, 4);
    ASSERT_EQ(batch.size(), reference.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      ExpectSameOutcome(batch[i], reference[i], "steady batch");
    }
  }
  churner.join();
  // The churning classifier's last epoch change came after its last
  // classification, so everything left belongs to the neighbour.
  EXPECT_EQ(memo.EntriesOfEpoch(churn.set_epoch()), 0u);
  EXPECT_GT(memo.EntriesOfEpoch(steady.set_epoch()), 0u);
  EXPECT_EQ(memo.GetStats().entries, memo.EntriesOfEpoch(steady.set_epoch()));
  EXPECT_GT(memo.GetStats().released, 0u);
}

// --- Hardened alignment ------------------------------------------------------

TEST(AlignSymbolElementsTest, ToleratesMismatchedSymbolSequences) {
  xml::Document doc = MakeDoc("<r><a/><b/></r>");
  const int32_t a = util::InternSymbol("a");
  const int32_t b = util::InternSymbol("b");
  const int32_t c = util::InternSymbol("c");

  // More symbols than element children: defensive nullptr padding, never
  // an out-of-bounds read — this used to be guarded only by an assert.
  std::vector<const xml::Element*> aligned =
      similarity::AlignSymbolElements(doc.root(), {a, b, c, c});
  ASSERT_EQ(aligned.size(), 4u);
  EXPECT_NE(aligned[0], nullptr);
  EXPECT_NE(aligned[1], nullptr);
  EXPECT_EQ(aligned[2], nullptr);
  EXPECT_EQ(aligned[3], nullptr);

  // Fewer symbols than children: surplus children are left unaligned.
  aligned = similarity::AlignSymbolElements(doc.root(), {a});
  ASSERT_EQ(aligned.size(), 1u);
  EXPECT_NE(aligned[0], nullptr);

  aligned = similarity::AlignSymbolElements(doc.root(), {});
  EXPECT_TRUE(aligned.empty());
}

}  // namespace
}  // namespace dtdevolve
