// Fuzz target: the XML parser (`xml::ParseDocument`, the streaming
// reader plus `ToDocument`) and the recursive walks a parsed tree
// immediately undergoes in the pipeline (counting, height,
// serialization, content symbols). The parser must return a clean Status
// for every input — never crash, hang, or overflow the stack — and
// accepted documents must survive the walks and re-serialize.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "validate/validator.h"
#include "xml/parser.h"
#include "xml/writer.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  dtdevolve::StatusOr<dtdevolve::xml::Document> doc =
      dtdevolve::xml::ParseDocument(input);
  if (!doc.ok() || !doc->has_root()) return 0;
  // These walks recurse over the element tree — the reason the parser
  // enforces its depth limit.
  (void)doc->root().SubtreeElementCount();
  (void)doc->root().SubtreeHeight();
  (void)doc->root().ChildTagSet();
  (void)dtdevolve::validate::ContentSymbols(doc->root());
  std::string serialized = dtdevolve::xml::WriteDocument(*doc);
  // What the writer emits, the parser must take back.
  dtdevolve::StatusOr<dtdevolve::xml::Document> reparsed =
      dtdevolve::xml::ParseDocument(serialized);
  if (!reparsed.ok()) __builtin_trap();
  return 0;
}
