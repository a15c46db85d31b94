#include "xml/stream_reader.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <functional>

#include "util/string_util.h"
#include "util/symbol_table.h"
#include "xml/fingerprint.h"
#include "xml/text.h"

namespace dtdevolve::xml {

namespace {

/// Element-nesting bound, identical to the reference parser's: the tree
/// (arena, or the DOM `ToDocument` builds) is later walked recursively,
/// so depth must stay bounded.
constexpr size_t kMaxElementDepth = 512;

/// Small direct-mapped front cache over `util::InternSymbolBounded`:
/// the global table takes a shared lock per probe, which adds up at one
/// probe per element. Tag vocabularies are tiny and highly repetitive,
/// so nearly every probe after warm-up is a lock-free hit here. Returns
/// exactly what the global table would (including `kNoSymbol` once the
/// bounded table is full, because negative answers are not cached).
int32_t InternTagCached(std::string_view tag) {
  struct Entry {
    std::string name;
    int32_t id = util::SymbolTable::kNoSymbol;
  };
  constexpr size_t kSlots = 256;  // power of two
  thread_local std::array<Entry, kSlots> cache;
  const size_t slot = std::hash<std::string_view>{}(tag) & (kSlots - 1);
  Entry& entry = cache[slot];
  if (entry.id != util::SymbolTable::kNoSymbol && entry.name == tag) {
    return entry.id;
  }
  const int32_t id = util::InternSymbolBounded(tag);
  if (id != util::SymbolTable::kNoSymbol) {
    entry.name.assign(tag.data(), tag.size());
    entry.id = id;
  }
  return id;
}

}  // namespace

char StreamReader::Advance() {
  char c = input_[pos_++];
  if (c == '\n') ++line_;
  return c;
}

bool StreamReader::Consume(char expected) {
  if (AtEnd() || Peek() != expected) return false;
  Advance();
  return true;
}

bool StreamReader::ConsumeWord(std::string_view word) {
  if (input_.substr(pos_, word.size()) != word) return false;
  for (size_t i = 0; i < word.size(); ++i) Advance();
  return true;
}

void StreamReader::SkipWhitespace() {
  // Explicit C-locale class (space \t \n \v \f \r): the libc call
  // is an indirect table lookup per character, and this loop runs
  // between every token of every tag.
  while (!AtEnd()) {
    const char c = Peek();
    if (c != ' ' && c != '\t' && c != '\n' && c != '\v' && c != '\f' &&
        c != '\r') {
      break;
    }
    Advance();
  }
}

Status StreamReader::ErrorHere(std::string message) {
  error_ = Status::ParseError("line " + std::to_string(line_) + ": " +
                              std::move(message));
  return error_;
}

Status StreamReader::LexNameView(std::string_view* out) {
  if (AtEnd() || !IsNameStartChar(Peek())) {
    return ErrorHere("expected a name");
  }
  size_t start = pos_;
  while (!AtEnd() && IsNameChar(Peek())) ++pos_;  // names contain no '\n'
  *out = input_.substr(start, pos_ - start);
  return Status::Ok();
}

Status StreamReader::DecodeInto(std::string_view raw, std::string* scratch,
                                std::string_view* out) {
  if (raw.find('&') == std::string_view::npos) {
    *out = raw;
    return Status::Ok();
  }
  StatusOr<std::string> decoded = UnescapeText(raw);
  if (!decoded.ok()) return ErrorHere(decoded.status().message());
  *scratch = std::move(decoded).value();
  *out = *scratch;
  return Status::Ok();
}

Status StreamReader::Next(StreamEvent* event) {
  if (!error_.ok()) return error_;
  *event = StreamEvent();
  if (pending_end_) {
    pending_end_ = false;
    event->kind = StreamEventKind::kEndElement;
    event->name = pending_end_name_;
    event->line = line_;
    return Status::Ok();
  }
  if (done_) {
    event->kind = StreamEventKind::kEndDocument;
    event->line = line_;
    return Status::Ok();
  }
  while (true) {
    if (AtEnd()) {
      if (!open_.empty()) {
        error_ = Status::ParseError("unexpected end of input: <" +
                                    std::string(open_.back()) +
                                    "> is not closed");
        return error_;
      }
      if (!has_root_) {
        error_ = Status::ParseError("document has no root element");
        return error_;
      }
      done_ = true;
      event->kind = StreamEventKind::kEndDocument;
      event->line = line_;
      return Status::Ok();
    }
    bool emitted = false;
    Status st;
    if (Peek() == '<') {
      Advance();
      st = LexMarkup(event, &emitted);
    } else {
      st = LexText(event, &emitted);
    }
    if (!st.ok()) return st;
    if (emitted) return Status::Ok();
  }
}

Status StreamReader::LexText(StreamEvent* event, bool* emitted) {
  const size_t start_line = line_;
  size_t start = pos_;
  size_t lt = input_.find('<', pos_);
  size_t end = lt == std::string_view::npos ? input_.size() : lt;
  std::string_view raw = input_.substr(start, end - start);
  line_ += static_cast<size_t>(std::count(raw.begin(), raw.end(), '\n'));
  pos_ = end;
  std::string_view decoded;
  Status st = DecodeInto(raw, &text_scratch_, &decoded);
  if (!st.ok()) return st;
  if (IsBlank(decoded)) return Status::Ok();  // dropped, like the parser
  if (open_.empty()) {
    error_ = Status::ParseError("line " + std::to_string(start_line) +
                                ": character data outside root element");
    return error_;
  }
  event->kind = StreamEventKind::kText;
  event->text = decoded;
  event->line = start_line;
  *emitted = true;
  return Status::Ok();
}

Status StreamReader::LexMarkup(StreamEvent* event, bool* emitted) {
  if (AtEnd()) return ErrorHere("unexpected end of input after '<'");
  if (Peek() == '!') {
    Advance();
    if (ConsumeWord("--")) {
      while (!AtEnd()) {
        if (input_.substr(pos_, 3) == "-->") {
          Advance();
          Advance();
          Advance();
          return Status::Ok();  // comments are validated, then dropped
        }
        Advance();
      }
      return ErrorHere("unterminated comment");
    }
    if (ConsumeWord("[CDATA[")) {
      const size_t start_line = line_;
      size_t start = pos_;
      while (!AtEnd()) {
        if (input_.substr(pos_, 3) == "]]>") {
          std::string_view raw = input_.substr(start, pos_ - start);
          Advance();
          Advance();
          Advance();
          // CDATA content is literal — never unescaped, as in the reference.
          if (IsBlank(raw)) return Status::Ok();
          if (open_.empty()) {
            error_ =
                Status::ParseError("line " + std::to_string(start_line) +
                                   ": character data outside root element");
            return error_;
          }
          event->kind = StreamEventKind::kText;
          event->text = raw;
          event->line = start_line;
          *emitted = true;
          return Status::Ok();
        }
        Advance();
      }
      return ErrorHere("unterminated CDATA section");
    }
    if (ConsumeWord("DOCTYPE")) {
      Status st = LexDoctype(event);
      if (!st.ok()) return st;
      *emitted = true;
      return Status::Ok();
    }
    return ErrorHere("unrecognized markup declaration");
  }
  if (Peek() == '?') {
    Advance();
    std::string_view target;
    Status st = LexNameView(&target);
    if (!st.ok()) return st;
    while (!AtEnd()) {
      if (Peek() == '?' && pos_ + 1 < input_.size() &&
          input_[pos_ + 1] == '>') {
        Advance();
        Advance();
        return Status::Ok();  // PIs are validated, then dropped
      }
      Advance();
    }
    return ErrorHere("unterminated processing instruction");
  }
  if (Peek() == '/') {
    Advance();
    Status st = LexEndTag(event);
    if (!st.ok()) return st;
    *emitted = true;
    return Status::Ok();
  }
  Status st = LexStartTag(event);
  if (!st.ok()) return st;
  *emitted = true;
  return Status::Ok();
}

Status StreamReader::LexStartTag(StreamEvent* event) {
  const size_t start_line = line_;
  std::string_view name;
  Status st = LexNameView(&name);
  if (!st.ok()) return st;
  attributes_.clear();
  attr_scratch_.clear();
  bool self_closing = false;
  while (true) {
    SkipWhitespace();
    if (AtEnd()) return ErrorHere("unterminated start tag");
    if (Consume('>')) break;
    if (Peek() == '/') {
      Advance();
      if (!Consume('>')) return ErrorHere("expected '>' after '/'");
      self_closing = true;
      break;
    }
    std::string_view attr_name;
    st = LexNameView(&attr_name);
    if (!st.ok()) return st;
    SkipWhitespace();
    if (!Consume('=')) return ErrorHere("expected '=' after attribute name");
    SkipWhitespace();
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return ErrorHere("expected a quoted attribute value");
    }
    char quote = Advance();
    size_t value_start = pos_;
    size_t close = input_.find(quote, pos_);
    if (close == std::string_view::npos) {
      // The reference parser scans the whole remainder looking for the
      // closing quote, counting newlines as it goes; mirror that so the
      // error lands on the same line number.
      std::string_view tail = input_.substr(pos_);
      line_ += static_cast<size_t>(std::count(tail.begin(), tail.end(), '\n'));
      pos_ = input_.size();
      return ErrorHere("unterminated attribute value");
    }
    std::string_view raw = input_.substr(value_start, close - value_start);
    line_ += static_cast<size_t>(std::count(raw.begin(), raw.end(), '\n'));
    pos_ = close + 1;
    std::string_view value;
    if (raw.find('&') == std::string_view::npos) {
      value = raw;
    } else {
      StatusOr<std::string> decoded = UnescapeText(raw);
      if (!decoded.ok()) return ErrorHere(decoded.status().message());
      attr_scratch_.push_back(
          std::make_unique<std::string>(std::move(decoded).value()));
      value = *attr_scratch_.back();
    }
    attributes_.push_back({attr_name, value});
  }
  // Document discipline, checked once the whole tag has lexed — as the
  // reference parser does — so a malformed tag reports its lexical error
  // first and every rejection carries the reference's message.
  if (open_.empty() && has_root_) {
    error_ = Status::ParseError("line " + std::to_string(start_line) +
                                ": multiple root elements (second is <" +
                                std::string(name) + ">)");
    return error_;
  }
  if (open_.size() >= kMaxElementDepth) {
    error_ = Status::ParseError(
        "line " + std::to_string(start_line) + ": elements nested deeper than " +
        std::to_string(kMaxElementDepth));
    return error_;
  }
  if (open_.empty()) has_root_ = true;
  if (self_closing) {
    pending_end_ = true;
    pending_end_name_ = name;
  } else {
    open_.push_back(name);
  }
  event->kind = StreamEventKind::kStartElement;
  event->name = name;
  event->self_closing = self_closing;
  event->line = start_line;
  return Status::Ok();
}

Status StreamReader::LexEndTag(StreamEvent* event) {
  const size_t start_line = line_;
  std::string_view name;
  Status st = LexNameView(&name);
  if (!st.ok()) return st;
  SkipWhitespace();
  if (!Consume('>')) return ErrorHere("expected '>' in end tag");
  if (open_.empty()) {
    error_ = Status::ParseError("line " + std::to_string(start_line) +
                                ": unmatched end tag </" + std::string(name) +
                                ">");
    return error_;
  }
  if (open_.back() != name) {
    error_ = Status::ParseError("line " + std::to_string(start_line) +
                                ": end tag </" + std::string(name) +
                                "> does not match open <" +
                                std::string(open_.back()) + ">");
    return error_;
  }
  open_.pop_back();
  event->kind = StreamEventKind::kEndElement;
  event->name = name;
  event->line = start_line;
  return Status::Ok();
}

Status StreamReader::LexDoctype(StreamEvent* event) {
  const size_t start_line = line_;
  SkipWhitespace();
  std::string_view name;
  Status st = LexNameView(&name);
  if (!st.ok()) return st;
  // Skip external id (SYSTEM/PUBLIC with quoted literals) if present.
  SkipWhitespace();
  while (!AtEnd() && Peek() != '[' && Peek() != '>') {
    if (Peek() == '"' || Peek() == '\'') {
      char quote = Advance();
      while (!AtEnd() && Peek() != quote) Advance();
      if (!Consume(quote)) return ErrorHere("unterminated literal in DOCTYPE");
    } else {
      Advance();
    }
  }
  std::string_view subset;
  if (Consume('[')) {
    // The internal subset is captured verbatim — a contiguous slice of
    // the input, so the event can carry a direct view.
    size_t start = pos_;
    int depth = 1;
    while (!AtEnd()) {
      char c = Peek();
      if (c == '[') {
        ++depth;
      } else if (c == ']') {
        --depth;
        if (depth == 0) {
          subset = input_.substr(start, pos_ - start);
          Advance();
          break;
        }
      }
      Advance();
    }
    if (depth != 0) return ErrorHere("unterminated DOCTYPE internal subset");
    SkipWhitespace();
  }
  if (!Consume('>')) return ErrorHere("expected '>' closing DOCTYPE");
  // Checked once the declaration has lexed, as the reference does.
  if (has_root_ || !open_.empty()) {
    error_ = Status::ParseError("line " + std::to_string(start_line) +
                                ": DOCTYPE after content");
    return error_;
  }
  event->kind = StreamEventKind::kDoctype;
  event->name = name;
  event->text = subset;
  event->line = start_line;
  return Status::Ok();
}

/// Friend of `ArenaDocument`: brokers the private-state writes the tree
/// builder needs and hosts the parse driver.
class ArenaDocumentBuilder {
 public:
  static StatusOr<ArenaDocument> Parse(std::string_view input);

  static Arena& arena(ArenaDocument& doc) { return doc.arena_; }
  static void SetRoot(ArenaDocument& doc, const ArenaElement* root) {
    doc.root_ = root;
  }
  static void SetDoctype(ArenaDocument& doc, std::string_view name,
                         std::string_view subset) {
    doc.doctype_name_ = doc.arena_.CopyString(name);
    doc.internal_subset_ = doc.arena_.CopyString(subset);
  }
};

namespace {

/// Builds the arena tree from the event stream: one frame per open
/// element accumulates the fingerprint, the pending text run and the
/// child slice (on a shared stack, copied into a contiguous arena span
/// when the element closes).
class ArenaTreeBuilder {
 public:
  explicit ArenaTreeBuilder(ArenaDocument* doc) : doc_(doc) {}

  void StartElement(std::string_view tag,
                    const std::vector<StreamAttributeView>& attrs) {
    if (!frames_.empty()) FlushText(frames_.back());
    Arena& arena = ArenaDocumentBuilder::arena(*doc_);
    auto* element = new (arena.Allocate(sizeof(ArenaElement),
                                        alignof(ArenaElement))) ArenaElement();
    element->tag = arena.CopyString(tag);
    element->tag_id = InternTagCached(tag);
    if (!attrs.empty()) {
      auto* stored = arena.AllocateArray<ArenaAttribute>(attrs.size());
      for (size_t i = 0; i < attrs.size(); ++i) {
        stored[i].name = arena.CopyString(attrs[i].name);
        stored[i].value = arena.CopyString(attrs[i].value);
      }
      element->attrs = stored;
      element->attr_count = static_cast<uint32_t>(attrs.size());
    }
    frames_.push_back(Frame{
        element, child_stack_.size(),
        FingerprintAccumulator(FingerprintTagToken(element->tag_id, tag))});
  }

  void Text(std::string_view text) { pending_text_.append(text); }

  void EndElement() {
    Frame& frame = frames_.back();
    FlushText(frame);
    frame.fp.Close();
    ArenaElement* element = frame.element;
    element->fp_hi = frame.fp.hi;
    element->fp_lo = frame.fp.lo;
    element->element_count = frame.fp.element_count;
    size_t child_count = child_stack_.size() - frame.child_start;
    if (child_count > 0) {
      Arena& arena = ArenaDocumentBuilder::arena(*doc_);
      auto* children = arena.AllocateArray<ArenaChild>(child_count);
      std::copy(child_stack_.begin() + frame.child_start, child_stack_.end(),
                children);
      child_stack_.resize(frame.child_start);
      element->children = children;
      element->child_count = static_cast<uint32_t>(child_count);
    }
    frames_.pop_back();
    if (frames_.empty()) {
      ArenaDocumentBuilder::SetRoot(*doc_, element);
    } else {
      frames_.back().fp.AbsorbElement(element->fp_hi, element->fp_lo,
                                      element->element_count);
      child_stack_.push_back(ArenaChild{element, {}});
    }
  }

  void Doctype(std::string_view name, std::string_view subset) {
    ArenaDocumentBuilder::SetDoctype(*doc_, name, subset);
  }

 private:
  struct Frame {
    ArenaElement* element;
    size_t child_start;  // offset into child_stack_
    FingerprintAccumulator fp;
  };

  void FlushText(Frame& frame) {
    if (pending_text_.empty()) return;
    child_stack_.push_back(ArenaChild{
        nullptr, ArenaDocumentBuilder::arena(*doc_).CopyString(pending_text_)});
    frame.fp.AbsorbText();
    frame.element->has_text = true;
    pending_text_.clear();
  }

  ArenaDocument* doc_;
  std::vector<Frame> frames_;
  std::vector<ArenaChild> child_stack_;
  /// Merges consecutive non-blank runs (the reader never emits blank
  /// ones); always belongs to the innermost open frame and is flushed
  /// before any element starts or ends.
  std::string pending_text_;
};

}  // namespace

StatusOr<ArenaDocument> ArenaDocumentBuilder::Parse(std::string_view input) {
  ArenaDocument doc;
  ArenaTreeBuilder builder(&doc);
  StreamReader reader(input);
  StreamEvent event;
  while (true) {
    Status st = reader.Next(&event);
    if (!st.ok()) return st;
    switch (event.kind) {
      case StreamEventKind::kStartElement:
        builder.StartElement(event.name, reader.attributes());
        break;
      case StreamEventKind::kEndElement:
        builder.EndElement();
        break;
      case StreamEventKind::kText:
        builder.Text(event.text);
        break;
      case StreamEventKind::kDoctype:
        builder.Doctype(event.name, event.text);
        break;
      case StreamEventKind::kEndDocument:
        return doc;
    }
  }
}

StatusOr<ArenaDocument> ParseArenaDocument(std::string_view input) {
  return ArenaDocumentBuilder::Parse(input);
}

}  // namespace dtdevolve::xml
