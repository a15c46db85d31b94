#ifndef DTDEVOLVE_XML_PARSER_H_
#define DTDEVOLVE_XML_PARSER_H_

#include <string_view>

#include "util/status.h"
#include "xml/document.h"

namespace dtdevolve::xml {

/// Parses an XML document from `input` into a DOM, for callers that
/// need an owning, mutable tree (checkpoint restore, the XSD reader, the
/// CLI's single-document commands, tests). It is the streaming reader
/// (`ParseArenaDocument`) followed by `ArenaDocument::ToDocument`, so it
/// accepts and rejects exactly what every ingest path does, with the
/// same error messages.
///
/// Comments, processing instructions and the XML declaration are
/// skipped; a DOCTYPE (with its raw internal subset, if any) is recorded
/// on the returned Document. Whitespace-only text is dropped; all other
/// character data becomes Text nodes with entities decoded. Adjacent
/// non-blank text runs split only by a comment, a CDATA boundary or a
/// processing instruction come back as ONE Text child:
/// `<a>t<!--c-->u<![CDATA[v]]></a>` has the single child "tuv". Compact
/// serialization (`WriteOptions::indent = false`) — what checkpoints,
/// snapshots and the WAL-facing oracles write — is byte-identical to a
/// tree that kept the runs apart.
StatusOr<Document> ParseDocument(std::string_view input);

}  // namespace dtdevolve::xml

#endif  // DTDEVOLVE_XML_PARSER_H_
