#ifndef DTDEVOLVE_CHECK_REFERENCE_PARSER_H_
#define DTDEVOLVE_CHECK_REFERENCE_PARSER_H_

#include <string_view>

#include "util/status.h"
#include "xml/document.h"

namespace dtdevolve::check {

/// The independent reference XML parser: a two-pass pull lexer plus an
/// explicit tree builder, written separately from the streaming reader
/// (`xml::ParseArenaDocument`) that the product parses every text with.
/// It exists only so the checks have a second opinion: the parse-path
/// oracle (`check --parse-path`), `tests/parsepath_test.cc`, the
/// `fuzz_stream_reader` harness and the benchmarks' reference legs
/// compare the product parser against it. Nothing on an ingest path may
/// call it.
///
/// Same document discipline as the streaming reader — comments,
/// processing instructions and the XML declaration skipped, DOCTYPE name
/// and raw internal subset recorded, whitespace-only text dropped,
/// entities decoded, one root, matching end tags, an element-depth bound
/// of 512 — with one representational difference: every text run
/// between two pieces of markup becomes its own `Text` node, so
/// `<a>t<!--c-->u</a>` yields two `Text` children where
/// `xml::ParseDocument` yields one.
StatusOr<xml::Document> ReferenceParseDocument(std::string_view input);

}  // namespace dtdevolve::check

#endif  // DTDEVOLVE_CHECK_REFERENCE_PARSER_H_
