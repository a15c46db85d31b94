#include "xml/parser.h"

#include "xml/stream_reader.h"

namespace dtdevolve::xml {

StatusOr<Document> ParseDocument(std::string_view input) {
  StatusOr<ArenaDocument> arena = ParseArenaDocument(input);
  if (!arena.ok()) return arena.status();
  return arena->ToDocument();
}

}  // namespace dtdevolve::xml
