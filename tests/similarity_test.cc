#include <gtest/gtest.h>

#include "dtd/dtd_parser.h"
#include "similarity/score_cache.h"
#include "similarity/similarity.h"
#include "validate/validator.h"
#include "xml/parser.h"
#include "xml/stream_reader.h"

namespace dtdevolve::similarity {
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

// Figure 2 of the paper: document <a><b>5</b><c>7</c></a> against
// DTD a:(b,c), b:(#PCDATA), c:(d), d:(#PCDATA).
const char* kFig2Dtd = R"(
  <!ELEMENT a (b, c)>
  <!ELEMENT b (#PCDATA)>
  <!ELEMENT c (d)>
  <!ELEMENT d (#PCDATA)>
)";
const char* kFig2Doc = "<a><b>5</b><c>7</c></a>";

TEST(SimilarityTest, ValidDocumentHasFullGlobalSimilarity) {
  dtd::Dtd dtd = MakeDtd(kFig2Dtd);
  SimilarityEvaluator evaluator(dtd);
  xml::Document doc = MakeDoc("<a><b>5</b><c><d>7</d></c></a>");
  EXPECT_DOUBLE_EQ(evaluator.DocumentSimilarity(doc), 1.0);
}

TEST(SimilarityTest, Example1LocalFullGlobalNotFull) {
  // The paper's Example 1: local similarity of `a` is full (subelements
  // b, c match the declaration), but global similarity is not, because
  // `c` has data content where the DTD requires a `d` element.
  dtd::Dtd dtd = MakeDtd(kFig2Dtd);
  SimilarityEvaluator evaluator(dtd);
  xml::Document doc = MakeDoc(kFig2Doc);

  Triple local = evaluator.LocalTriple(doc.root(), "a");
  EXPECT_TRUE(IsFull(local)) << local.ToString();
  EXPECT_DOUBLE_EQ(evaluator.LocalSimilarity(doc.root(), "a"), 1.0);

  double global = evaluator.GlobalSimilarity(doc.root(), "a");
  EXPECT_LT(global, 1.0);
  EXPECT_GT(global, 0.0);
  EXPECT_LT(evaluator.DocumentSimilarity(doc), 1.0);
}

TEST(SimilarityTest, Example1ElementCNotLocallySimilar) {
  dtd::Dtd dtd = MakeDtd(kFig2Dtd);
  SimilarityEvaluator evaluator(dtd);
  xml::Document doc = MakeDoc(kFig2Doc);
  const xml::Element* c = doc.root().ChildElements()[1];
  // c contains #PCDATA where the declaration requires d: plus 1, minus 1.
  Triple local = evaluator.LocalTriple(*c, "c");
  EXPECT_EQ(local.plus, 1.0);
  EXPECT_EQ(local.minus, 1.0);
  EXPECT_EQ(local.common, 0.0);
  EXPECT_DOUBLE_EQ(evaluator.LocalSimilarity(*c, "c"), 0.0);
}

TEST(SimilarityTest, MissingElementLowersSimilarity) {
  dtd::Dtd dtd = MakeDtd(kFig2Dtd);
  SimilarityEvaluator evaluator(dtd);
  xml::Document doc = MakeDoc("<a><b>5</b></a>");
  Triple triple = evaluator.GlobalTriple(doc.root(), "a");
  EXPECT_EQ(triple.minus, 1.0);
  EXPECT_EQ(triple.common, 1.0);
  EXPECT_DOUBLE_EQ(evaluator.DocumentSimilarity(doc), 0.5);
}

TEST(SimilarityTest, ExtraElementLowersSimilarity) {
  dtd::Dtd dtd = MakeDtd(kFig2Dtd);
  SimilarityEvaluator evaluator(dtd);
  xml::Document doc = MakeDoc("<a><b>5</b><c><d>x</d></c><z/></a>");
  Triple triple = evaluator.GlobalTriple(doc.root(), "a");
  EXPECT_EQ(triple.plus, 1.0);
  EXPECT_EQ(triple.common, 2.0);
  EXPECT_DOUBLE_EQ(evaluator.DocumentSimilarity(doc), 2.0 / 3.0);
}

TEST(SimilarityTest, WrongRootGivesZero) {
  dtd::Dtd dtd = MakeDtd(kFig2Dtd);
  SimilarityEvaluator evaluator(dtd);
  EXPECT_EQ(evaluator.DocumentSimilarity(MakeDoc("<z><b>5</b></z>")), 0.0);
}

TEST(SimilarityTest, DeepDeviationDiscountsProportionally) {
  dtd::Dtd dtd = MakeDtd(R"(
    <!ELEMENT r (s, t)>
    <!ELEMENT s (u)>
    <!ELEMENT t (#PCDATA)>
    <!ELEMENT u (#PCDATA)>
  )");
  SimilarityEvaluator evaluator(dtd);
  // Perfect document: similarity 1.
  EXPECT_DOUBLE_EQ(evaluator.DocumentSimilarity(
                       MakeDoc("<r><s><u>x</u></s><t>y</t></r>")),
                   1.0);
  // A deviation inside s (u missing) hurts, but less than s missing.
  double deep = evaluator.DocumentSimilarity(MakeDoc("<r><s/><t>y</t></r>"));
  double shallow = evaluator.DocumentSimilarity(MakeDoc("<r><t>y</t></r>"));
  EXPECT_LT(deep, 1.0);
  EXPECT_LT(shallow, deep);
}

TEST(SimilarityTest, GlobalSimilarityMonotoneInDamage) {
  dtd::Dtd dtd = MakeDtd(R"(
    <!ELEMENT mail (from, to, subject, body)>
    <!ELEMENT from (#PCDATA)>
    <!ELEMENT to (#PCDATA)>
    <!ELEMENT subject (#PCDATA)>
    <!ELEMENT body (#PCDATA)>
  )");
  SimilarityEvaluator evaluator(dtd);
  double s0 = evaluator.DocumentSimilarity(MakeDoc(
      "<mail><from>a</from><to>b</to><subject>s</subject><body>t</body>"
      "</mail>"));
  double s1 = evaluator.DocumentSimilarity(MakeDoc(
      "<mail><from>a</from><to>b</to><body>t</body></mail>"));
  double s2 = evaluator.DocumentSimilarity(
      MakeDoc("<mail><from>a</from></mail>"));
  EXPECT_DOUBLE_EQ(s0, 1.0);
  EXPECT_GT(s1, s2);
  EXPECT_GT(s0, s1);
}

TEST(SimilarityTest, EvaluateElementsReportsWholeTree) {
  dtd::Dtd dtd = MakeDtd(kFig2Dtd);
  SimilarityEvaluator evaluator(dtd);
  xml::Document doc = MakeDoc(kFig2Doc);
  std::vector<ElementReport> reports = evaluator.EvaluateElements(doc.root());
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].element->tag(), "a");
  EXPECT_TRUE(reports[0].declared);
  EXPECT_DOUBLE_EQ(reports[0].local_similarity, 1.0);
  EXPECT_LT(reports[0].global_similarity, 1.0);
  EXPECT_EQ(reports[1].element->tag(), "b");
  EXPECT_DOUBLE_EQ(reports[1].global_similarity, 1.0);
  EXPECT_EQ(reports[2].element->tag(), "c");
  EXPECT_DOUBLE_EQ(reports[2].local_similarity, 0.0);
}

TEST(SimilarityTest, UndeclaredElementsInReports) {
  dtd::Dtd dtd = MakeDtd(kFig2Dtd);
  SimilarityEvaluator evaluator(dtd);
  xml::Document doc = MakeDoc("<a><b>5</b><zz/></a>");
  std::vector<ElementReport> reports = evaluator.EvaluateElements(doc.root());
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_FALSE(reports[2].declared);
}

TEST(SimilarityTest, WeightsShiftTheScore) {
  dtd::Dtd dtd = MakeDtd(kFig2Dtd);
  SimilarityOptions lenient;
  lenient.weights.plus_weight = 0.1;  // extra elements barely matter
  SimilarityEvaluator strict(dtd);
  SimilarityEvaluator evaluator(dtd, lenient);
  xml::Document doc = MakeDoc("<a><b>5</b><c><d>x</d></c><z/></a>");
  EXPECT_GT(evaluator.DocumentSimilarity(doc),
            strict.DocumentSimilarity(doc));
}

TEST(SimilarityTest, ThesaurusEnablesTagSimilarity) {
  dtd::Dtd dtd = MakeDtd(R"(
    <!ELEMENT book (title, writer)>
    <!ELEMENT title (#PCDATA)>
    <!ELEMENT writer (#PCDATA)>
  )");
  Thesaurus thesaurus;
  thesaurus.AddSynonym("writer", "author", 0.9);
  SimilarityOptions options;
  options.thesaurus = &thesaurus;
  SimilarityEvaluator with(dtd, options);
  SimilarityEvaluator without(dtd);
  xml::Document doc =
      MakeDoc("<book><title>t</title><author>a</author></book>");
  EXPECT_GT(with.DocumentSimilarity(doc), without.DocumentSimilarity(doc));
  EXPECT_LT(with.DocumentSimilarity(doc), 1.0);
}

TEST(ThesaurusTest, ScoreSemantics) {
  Thesaurus thesaurus;
  EXPECT_EQ(thesaurus.Score("a", "a"), 1.0);
  EXPECT_EQ(thesaurus.Score("a", "b"), 0.0);
  thesaurus.AddSynonym("a", "b", 0.7);
  EXPECT_EQ(thesaurus.Score("a", "b"), 0.7);
  EXPECT_EQ(thesaurus.Score("b", "a"), 0.7);  // symmetric
  thesaurus.AddSynonym("a", "b", 0.4);        // overwrite
  EXPECT_EQ(thesaurus.Score("a", "b"), 0.4);
  thesaurus.AddSynonym("x", "y", 7.0);  // clamped
  EXPECT_EQ(thesaurus.Score("x", "y"), 1.0);
}

/// Property over the weight space: for any (plus, minus) weighting, a
/// valid document scores 1, a damaged one scores strictly less, and
/// raising the penalty of the deviation kind present lowers the score.
class WeightSweep : public ::testing::TestWithParam<double> {};

TEST_P(WeightSweep, WeightsActDirectionally) {
  dtd::Dtd dtd = MakeDtd(kFig2Dtd);
  const double w = GetParam();

  SimilarityOptions penalize_plus;
  penalize_plus.weights.plus_weight = w;
  SimilarityOptions penalize_minus;
  penalize_minus.weights.minus_weight = w;

  SimilarityEvaluator plus_heavy(dtd, penalize_plus);
  SimilarityEvaluator minus_heavy(dtd, penalize_minus);
  SimilarityEvaluator neutral(dtd);

  xml::Document valid = MakeDoc("<a><b>5</b><c><d>7</d></c></a>");
  EXPECT_DOUBLE_EQ(plus_heavy.DocumentSimilarity(valid), 1.0);
  EXPECT_DOUBLE_EQ(minus_heavy.DocumentSimilarity(valid), 1.0);

  xml::Document with_extra = MakeDoc("<a><b>5</b><c><d>7</d></c><z/></a>");
  xml::Document with_missing = MakeDoc("<a><b>5</b></a>");
  if (w > 1.0) {
    EXPECT_LT(plus_heavy.DocumentSimilarity(with_extra),
              neutral.DocumentSimilarity(with_extra));
    EXPECT_LT(minus_heavy.DocumentSimilarity(with_missing),
              neutral.DocumentSimilarity(with_missing));
  } else if (w < 1.0) {
    EXPECT_GT(plus_heavy.DocumentSimilarity(with_extra),
              neutral.DocumentSimilarity(with_extra));
    EXPECT_GT(minus_heavy.DocumentSimilarity(with_missing),
              neutral.DocumentSimilarity(with_missing));
  }
  // Bounds hold everywhere.
  for (const SimilarityEvaluator* evaluator :
       {&plus_heavy, &minus_heavy, &neutral}) {
    double extra = evaluator->DocumentSimilarity(with_extra);
    double missing = evaluator->DocumentSimilarity(with_missing);
    EXPECT_GT(extra, 0.0);
    EXPECT_LT(extra, 1.0);
    EXPECT_GT(missing, 0.0);
    EXPECT_LT(missing, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Weights, WeightSweep,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0, 4.0));

TEST(SimilarityTest, AnyDeclarationGivesFullCredit) {
  dtd::Dtd dtd = MakeDtd("<!ELEMENT box ANY><!ELEMENT x (#PCDATA)>");
  SimilarityEvaluator evaluator(dtd);
  xml::Document doc = MakeDoc("<box><x>1</x><x>2</x>text</box>");
  EXPECT_DOUBLE_EQ(evaluator.DocumentSimilarity(doc), 1.0);
}

TEST(SimilarityTest, ArenaAndDomScoreIdentically) {
  // One recursion, two tree types: the arena instantiation must score
  // every document bit-identically to the DOM one, bound included, with
  // and without a thesaurus and with the shared subtree cache (keyed off
  // the arena element's own fingerprint vs the DOM fingerprint index).
  dtd::Dtd dtd = MakeDtd(R"(
    <!ELEMENT library (shelf+, note?)>
    <!ELEMENT shelf (book | magazine)*>
    <!ELEMENT book (title, author+, year?)>
    <!ELEMENT magazine (title, volume)>
    <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)>
    <!ELEMENT year (#PCDATA)> <!ELEMENT volume (#PCDATA)>
    <!ELEMENT note (#PCDATA | title)*>
  )");
  const std::vector<std::string> docs = {
      "<library><shelf><book><title>t</title><author>a</author></book>"
      "</shelf></library>",
      "<library><shelf><book><title>t</title><writer>w</writer><year>1"
      "</year></book><magazine><title>m</title></magazine></shelf>"
      "<note>n<title>x</title>tail</note></library>",
      "<library><shelf><book><title>a<!--c-->b</title><author><![CDATA[x]]>"
      "y</author></book></shelf><note>p<!--c-->q<![CDATA[r]]></note>"
      "</library>",
      "<library>stray text<shelf/><shelf><cd><track/></cd></shelf></library>",
      "<library><shelf><book><title>1</title><author>a</author></book>"
      "<book><title>2</title><author>a</author></book><book><title>3"
      "</title><author>a</author></book></shelf><shelf><book><title>4"
      "</title><author>a</author></book></shelf></library>",
      "<archive><shelf><book><title>t</title></book></shelf></archive>",
      "<library/>",
  };
  Thesaurus thesaurus;
  thesaurus.AddSynonym("writer", "author", 0.9);
  thesaurus.AddSynonym("archive", "library", 0.7);
  thesaurus.AddSynonym("cd", "magazine", 0.4);
  SimilarityOptions with_thesaurus;
  with_thesaurus.thesaurus = &thesaurus;
  SubtreeScoreCache cache;

  for (const SimilarityOptions& options :
       {SimilarityOptions{}, with_thesaurus}) {
    for (SubtreeScoreCache* shared : {static_cast<SubtreeScoreCache*>(nullptr),
                                      &cache}) {
      SimilarityEvaluator evaluator(dtd, options);
      evaluator.set_shared_cache(shared);
      for (const std::string& text : docs) {
        const std::string label =
            text + (options.thesaurus ? " [thesaurus]" : "") +
            (shared ? " [cache]" : "");
        StatusOr<xml::Document> dom = xml::ParseDocument(text);
        StatusOr<xml::ArenaDocument> arena = xml::ParseArenaDocument(text);
        ASSERT_TRUE(dom.ok() && arena.ok()) << label;
        // Twice: the second round reads the triples the first one cached.
        for (int round = 0; round < 2; ++round) {
          EXPECT_EQ(evaluator.DocumentSimilarity(*dom),
                    evaluator.DocumentSimilarity(*arena))
              << label;
        }
        EXPECT_EQ(evaluator.RootTagScore(dom->root()),
                  evaluator.RootTagScore(arena->root()))
            << label;
        EXPECT_EQ(
            evaluator.ScoreUpperBound(
                *dom, validate::ContentSymbolIds(dom->root())),
            evaluator.ScoreUpperBound(
                *arena, validate::ContentSymbolIds(arena->root())))
            << label;
      }
    }
  }
  EXPECT_GT(cache.GetStats().hits, 0u);
}

}  // namespace
}  // namespace dtdevolve::similarity
