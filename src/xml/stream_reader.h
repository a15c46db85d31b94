#ifndef DTDEVOLVE_XML_STREAM_READER_H_
#define DTDEVOLVE_XML_STREAM_READER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "xml/arena.h"

namespace dtdevolve::xml {

/// One structural event of the streaming parse.
enum class StreamEventKind {
  kStartElement,  // <name attr="v" ...> — attributes() holds the list
  kEndElement,    // </name>, or synthesized after a self-closing tag
  kText,          // one non-blank character-data run (entities decoded)
  kDoctype,       // <!DOCTYPE name [subset]> before the root
  kEndDocument,   // well-formed end of input; terminal
};

struct StreamAttributeView {
  std::string_view name;
  std::string_view value;
};

struct StreamEvent {
  StreamEventKind kind = StreamEventKind::kEndDocument;
  /// Tag name (start/end element) or DOCTYPE name.
  std::string_view name;
  /// Text-run content / raw DOCTYPE internal subset.
  std::string_view text;
  /// True on the kStartElement of `<name/>`; the matching kEndElement is
  /// still delivered, so consumers always see balanced events.
  bool self_closing = false;
  /// 1-based source line of the event start.
  size_t line = 0;
};

/// Single-pass pull tokenizer + well-formedness checker over an
/// in-memory document: emits StartElement/EndElement/Text/Doctype events
/// directly from the input with no intermediate token vector, and
/// enforces the exact document discipline of the independent reference
/// parser `check::ReferenceParseDocument` (element-depth bound, one
/// root, matching end tags, no character data outside the root, DOCTYPE
/// only before content) so the event stream always describes a
/// well-formed tree. Comments and processing instructions are validated
/// and skipped; blank text runs are dropped — both exactly as the
/// reference does, which the parse-path differential suite and the fuzz
/// harness lock in. This is the product's only XML parser.
///
/// View lifetime: `name`, `text` and `attributes()` are valid until the
/// next `Next` call — names and raw runs point into the input, decoded
/// values into reader-owned scratch.
class StreamReader {
 public:
  explicit StreamReader(std::string_view input) : input_(input) {}

  StreamReader(const StreamReader&) = delete;
  StreamReader& operator=(const StreamReader&) = delete;

  /// Advances to the next event. After kEndDocument every further call
  /// returns kEndDocument again; after an error every further call
  /// returns the same error.
  Status Next(StreamEvent* event);

  /// Attributes of the most recent kStartElement, in document order.
  const std::vector<StreamAttributeView>& attributes() const {
    return attributes_;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char Advance();
  bool Consume(char expected);
  bool ConsumeWord(std::string_view word);
  void SkipWhitespace();
  Status ErrorHere(std::string message);

  /// Lexes a name as a view into the input (names never need decoding).
  Status LexNameView(std::string_view* out);
  /// Decodes `raw` into `*out`: a direct input view when it holds no
  /// entity, else an unescaped copy in `scratch`. A decoding error is
  /// reported at the current line (the end of `raw`).
  Status DecodeInto(std::string_view raw, std::string* scratch,
                    std::string_view* out);

  Status LexText(StreamEvent* event, bool* emitted);
  Status LexMarkup(StreamEvent* event, bool* emitted);
  Status LexStartTag(StreamEvent* event);
  Status LexEndTag(StreamEvent* event);
  Status LexDoctype(StreamEvent* event);

  std::string_view input_;
  size_t pos_ = 0;
  size_t line_ = 1;

  /// Open-element tag names (views into the input), innermost last.
  std::vector<std::string_view> open_;
  bool has_root_ = false;
  bool done_ = false;
  Status error_ = Status::Ok();

  /// Synthesized kEndElement pending after a self-closing start tag.
  bool pending_end_ = false;
  std::string_view pending_end_name_;

  std::vector<StreamAttributeView> attributes_;
  /// Decoded attribute values of the current start tag, behind stable
  /// heap addresses so views survive the vector growing.
  std::vector<std::unique_ptr<std::string>> attr_scratch_;
  std::string text_scratch_;
};

/// Parses `input` in one streaming pass into an arena-allocated tree:
/// tags interned during the scan, children as contiguous spans, subtree
/// fingerprints accumulated bottom-up (bit-identical to
/// `similarity::SubtreeFingerprints` over the DOM parse of the same
/// input), text presence recorded per element. Accepts and rejects
/// exactly the inputs the reference parser (`check::ReferenceParseDocument`)
/// does, with identical error messages. `xml::ParseDocument` is this
/// followed by `ArenaDocument::ToDocument`.
StatusOr<ArenaDocument> ParseArenaDocument(std::string_view input);

}  // namespace dtdevolve::xml

#endif  // DTDEVOLVE_XML_STREAM_READER_H_
