// Fuzz target: the streaming pull reader, differentially against the DOM
// parser. Shares the xml seed corpus with fuzz_xml_parser:
//
//   build-fuzz/fuzz/fuzz_stream_reader tests/corpus/xml --seconds 60
//
// The two parsers must agree on accept/reject for every input; on accept
// the arena tree must convert to a structurally equal DOM, the DOCTYPE
// fields must match, and the parse-time root fingerprint must be
// bit-identical to the after-the-fact DOM fingerprint index — the
// contract the classification memo's correctness rests on. Both trees
// must also score bit-identically against one fixed DTD, with and
// without a thesaurus: a memo miss is scored on the arena tree, so the
// arena instantiation of the similarity recursion must never drift
// from the DOM one.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "dtd/dtd_parser.h"
#include "similarity/score_cache.h"
#include "similarity/similarity.h"
#include "similarity/thesaurus.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xml/stream_reader.h"

namespace {

/// The fixed scoring target. Its root and labels are the seed corpus's
/// bibliography tags; the thesaurus maps the other seed roots and a few
/// inner tags onto them, so mutated inputs reach the recursion below
/// the root-tag gate.
struct Scorers {
  dtdevolve::dtd::Dtd dtd;
  dtdevolve::similarity::Thesaurus thesaurus;
  const dtdevolve::similarity::SimilarityEvaluator* plain = nullptr;
  const dtdevolve::similarity::SimilarityEvaluator* with_thesaurus = nullptr;
};

const Scorers& GetScorers() {
  static const Scorers* scorers = [] {
    auto* s = new Scorers;
    dtdevolve::StatusOr<dtdevolve::dtd::Dtd> dtd = dtdevolve::dtd::ParseDtd(R"(
      <!ELEMENT bibliography (article | book)*>
      <!ELEMENT article (title, author+, year?, (body | note)*)>
      <!ELEMENT book (title, (author | editor)+)>
      <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)>
      <!ELEMENT editor (#PCDATA)> <!ELEMENT year (#PCDATA)>
      <!ELEMENT body (#PCDATA | em)*> <!ELEMENT em (#PCDATA)>
      <!ELEMENT note ANY>
    )");
    if (!dtd.ok()) __builtin_trap();
    s->dtd = std::move(dtd).value();
    s->thesaurus.AddSynonym("news", "bibliography", 0.6);
    s->thesaurus.AddSynonym("forum", "bibliography", 0.5);
    s->thesaurus.AddSynonym("catalog", "bibliography", 0.4);
    s->thesaurus.AddSynonym("story", "article", 0.7);
    s->thesaurus.AddSynonym("headline", "title", 0.9);
    s->thesaurus.AddSynonym("post", "article", 0.5);
    s->thesaurus.AddSynonym("name", "title", 0.3);
    dtdevolve::similarity::SimilarityOptions options;
    s->plain = new dtdevolve::similarity::SimilarityEvaluator(s->dtd);
    options.thesaurus = &s->thesaurus;
    s->with_thesaurus =
        new dtdevolve::similarity::SimilarityEvaluator(s->dtd, options);
    return s;
  }();
  return *scorers;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  dtdevolve::StatusOr<dtdevolve::xml::Document> dom =
      dtdevolve::xml::ParseDocument(input);
  dtdevolve::StatusOr<dtdevolve::xml::ArenaDocument> arena =
      dtdevolve::xml::ParseArenaDocument(input);
  if (dom.ok() != arena.ok()) __builtin_trap();
  if (!dom.ok()) return 0;
  if (dom->has_root() != arena->has_root()) __builtin_trap();
  if (dom->doctype_name() != arena->doctype_name() ||
      dom->internal_subset() != arena->internal_subset()) {
    __builtin_trap();
  }
  dtdevolve::xml::Document converted = arena->ToDocument();
  if (dom->has_root() != converted.has_root()) __builtin_trap();
  if (!dom->has_root()) return 0;
  if (!dtdevolve::xml::StructurallyEqual(dom->root(), converted.root())) {
    __builtin_trap();
  }
  dtdevolve::similarity::SubtreeFingerprints fps(dom->root());
  const dtdevolve::similarity::SubtreeStats* stats = fps.Find(&dom->root());
  const dtdevolve::xml::ArenaElement& root = arena->root();
  if (stats == nullptr || stats->fp_hi != root.fp_hi ||
      stats->fp_lo != root.fp_lo ||
      stats->element_count != root.element_count) {
    __builtin_trap();
  }
  const Scorers& scorers = GetScorers();
  for (const dtdevolve::similarity::SimilarityEvaluator* evaluator :
       {scorers.plain, scorers.with_thesaurus}) {
    if (!SameBits(evaluator->DocumentSimilarity(*dom),
                  evaluator->DocumentSimilarity(*arena))) {
      __builtin_trap();
    }
  }
  return 0;
}
