#include "check/reference_parser.h"

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "util/string_util.h"
#include "xml/text.h"

namespace dtdevolve::check {

namespace {

using xml::Attribute;
using xml::Document;
using xml::Element;
using xml::IsNameChar;
using xml::IsNameStartChar;
using xml::UnescapeText;

/// One lexical event from the document stream.
struct Token {
  enum class Kind {
    kStartTag,   // <name attr="v" ...>  (self_closing true for <name/>)
    kEndTag,     // </name>
    kText,       // character data (entities decoded)
    kComment,    // <!-- ... --> (content without delimiters)
    kPi,         // <?target ...?> (content without delimiters)
    kDoctype,    // <!DOCTYPE name [subset]> — name + raw internal subset
    kEof,
  };

  Kind kind = Kind::kEof;
  std::string name;                   // tag / target / doctype name
  std::vector<Attribute> attributes;  // for kStartTag
  std::string text;                   // text / comment / PI / subset content
  bool self_closing = false;          // for kStartTag
  size_t line = 0;                    // 1-based line of the token start
};

/// Pull lexer over an in-memory XML document. Produces a stream of Tokens;
/// all errors are reported with the 1-based source line.
class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Lexer(const Lexer&) = delete;
  Lexer& operator=(const Lexer&) = delete;

  /// Returns the next token, or a ParseError status.
  StatusOr<Token> Next();

  /// 1-based line number at the current cursor.
  size_t line() const { return line_; }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char Advance();
  bool Consume(char expected);
  bool ConsumeWord(std::string_view word);
  void SkipWhitespace();
  Status ErrorHere(std::string message) const;

  StatusOr<std::string> LexName();
  StatusOr<std::string> LexQuotedValue();
  StatusOr<Token> LexMarkup();        // cursor just after '<'
  StatusOr<Token> LexBang();          // cursor just after '<!'
  StatusOr<Token> LexDoctype();       // cursor just after '<!DOCTYPE'
  StatusOr<Token> LexStartTag();      // cursor at first char of name
  StatusOr<Token> LexText();

  std::string_view input_;
  size_t pos_ = 0;
  size_t line_ = 1;
};

char Lexer::Advance() {
  char c = input_[pos_++];
  if (c == '\n') ++line_;
  return c;
}

bool Lexer::Consume(char expected) {
  if (AtEnd() || Peek() != expected) return false;
  Advance();
  return true;
}

bool Lexer::ConsumeWord(std::string_view word) {
  if (input_.substr(pos_, word.size()) != word) return false;
  for (size_t i = 0; i < word.size(); ++i) Advance();
  return true;
}

void Lexer::SkipWhitespace() {
  while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
    Advance();
  }
}

Status Lexer::ErrorHere(std::string message) const {
  return Status::ParseError("line " + std::to_string(line_) + ": " +
                            std::move(message));
}

StatusOr<std::string> Lexer::LexName() {
  if (AtEnd() || !IsNameStartChar(Peek())) {
    return ErrorHere("expected a name");
  }
  std::string name;
  while (!AtEnd() && IsNameChar(Peek())) name += Advance();
  return name;
}

StatusOr<std::string> Lexer::LexQuotedValue() {
  if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
    return ErrorHere("expected a quoted attribute value");
  }
  char quote = Advance();
  std::string raw;
  while (!AtEnd() && Peek() != quote) raw += Advance();
  if (!Consume(quote)) return ErrorHere("unterminated attribute value");
  StatusOr<std::string> decoded = UnescapeText(raw);
  if (!decoded.ok()) return ErrorHere(decoded.status().message());
  return std::move(decoded).value();
}

StatusOr<Token> Lexer::Next() {
  if (AtEnd()) {
    Token token;
    token.kind = Token::Kind::kEof;
    token.line = line_;
    return token;
  }
  if (Peek() == '<') {
    Advance();
    return LexMarkup();
  }
  return LexText();
}

StatusOr<Token> Lexer::LexText() {
  Token token;
  token.kind = Token::Kind::kText;
  token.line = line_;
  std::string raw;
  while (!AtEnd() && Peek() != '<') raw += Advance();
  StatusOr<std::string> decoded = UnescapeText(raw);
  if (!decoded.ok()) return ErrorHere(decoded.status().message());
  token.text = std::move(decoded).value();
  return token;
}

StatusOr<Token> Lexer::LexMarkup() {
  if (AtEnd()) return ErrorHere("unexpected end of input after '<'");
  if (Peek() == '!') {
    Advance();
    return LexBang();
  }
  if (Peek() == '?') {
    Advance();
    Token token;
    token.kind = Token::Kind::kPi;
    token.line = line_;
    StatusOr<std::string> name = LexName();
    if (!name.ok()) return name.status();
    token.name = std::move(name).value();
    while (!AtEnd()) {
      if (Peek() == '?' && pos_ + 1 < input_.size() &&
          input_[pos_ + 1] == '>') {
        Advance();
        Advance();
        return token;
      }
      token.text += Advance();
    }
    return ErrorHere("unterminated processing instruction");
  }
  if (Peek() == '/') {
    Advance();
    Token token;
    token.kind = Token::Kind::kEndTag;
    token.line = line_;
    StatusOr<std::string> name = LexName();
    if (!name.ok()) return name.status();
    token.name = std::move(name).value();
    SkipWhitespace();
    if (!Consume('>')) return ErrorHere("expected '>' in end tag");
    return token;
  }
  return LexStartTag();
}

StatusOr<Token> Lexer::LexBang() {
  if (ConsumeWord("--")) {
    Token token;
    token.kind = Token::Kind::kComment;
    token.line = line_;
    while (!AtEnd()) {
      if (input_.substr(pos_, 3) == "-->") {
        Advance();
        Advance();
        Advance();
        return token;
      }
      token.text += Advance();
    }
    return ErrorHere("unterminated comment");
  }
  if (ConsumeWord("[CDATA[")) {
    Token token;
    token.kind = Token::Kind::kText;
    token.line = line_;
    while (!AtEnd()) {
      if (input_.substr(pos_, 3) == "]]>") {
        Advance();
        Advance();
        Advance();
        return token;
      }
      token.text += Advance();
    }
    return ErrorHere("unterminated CDATA section");
  }
  if (ConsumeWord("DOCTYPE")) {
    return LexDoctype();
  }
  return ErrorHere("unrecognized markup declaration");
}

StatusOr<Token> Lexer::LexDoctype() {
  Token token;
  token.kind = Token::Kind::kDoctype;
  token.line = line_;
  SkipWhitespace();
  StatusOr<std::string> name = LexName();
  if (!name.ok()) return name.status();
  token.name = std::move(name).value();
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
  if (Consume('[')) {
    // Capture the internal subset verbatim; it is parsed by the DTD parser.
    int depth = 1;
    while (!AtEnd()) {
      char c = Peek();
      if (c == '[') {
        ++depth;
      } else if (c == ']') {
        --depth;
        if (depth == 0) {
          Advance();
          break;
        }
      }
      token.text += Advance();
    }
    if (depth != 0) return ErrorHere("unterminated DOCTYPE internal subset");
    SkipWhitespace();
  }
  if (!Consume('>')) return ErrorHere("expected '>' closing DOCTYPE");
  return token;
}

StatusOr<Token> Lexer::LexStartTag() {
  Token token;
  token.kind = Token::Kind::kStartTag;
  token.line = line_;
  StatusOr<std::string> name = LexName();
  if (!name.ok()) return name.status();
  token.name = std::move(name).value();
  while (true) {
    SkipWhitespace();
    if (AtEnd()) return ErrorHere("unterminated start tag");
    if (Consume('>')) return token;
    if (Peek() == '/') {
      Advance();
      if (!Consume('>')) return ErrorHere("expected '>' after '/'");
      token.self_closing = true;
      return token;
    }
    StatusOr<std::string> attr_name = LexName();
    if (!attr_name.ok()) return attr_name.status();
    SkipWhitespace();
    if (!Consume('=')) return ErrorHere("expected '=' after attribute name");
    SkipWhitespace();
    StatusOr<std::string> attr_value = LexQuotedValue();
    if (!attr_value.ok()) return attr_value.status();
    token.attributes.push_back(
        {std::move(attr_name).value(), std::move(attr_value).value()});
  }
}

/// Element-nesting bound. Tree construction itself is iterative, but the
/// tree is later walked (and destroyed) recursively, so a pathologically
/// deep document would overflow the stack long after parsing succeeded.
/// Real documents stay far below this; crafted ones get a clean error.
constexpr size_t kMaxElementDepth = 512;

/// Builds the element tree from the token stream. `open` is the stack of
/// currently open elements; the document root is set when the outermost
/// element closes.
Status BuildTree(Lexer& lexer, Document& doc) {
  std::vector<Element*> open;
  while (true) {
    StatusOr<Token> next = lexer.Next();
    if (!next.ok()) return next.status();
    Token& token = *next;
    switch (token.kind) {
      case Token::Kind::kEof:
        if (!open.empty()) {
          return Status::ParseError("unexpected end of input: <" +
                                    open.back()->tag() + "> is not closed");
        }
        if (!doc.has_root()) {
          return Status::ParseError("document has no root element");
        }
        return Status::Ok();
      case Token::Kind::kStartTag: {
        if (open.empty() && doc.has_root()) {
          return Status::ParseError(
              "line " + std::to_string(token.line) +
              ": multiple root elements (second is <" + token.name + ">)");
        }
        if (open.size() >= kMaxElementDepth) {
          return Status::ParseError(
              "line " + std::to_string(token.line) +
              ": elements nested deeper than " +
              std::to_string(kMaxElementDepth));
        }
        auto element = std::make_unique<Element>(token.name);
        for (Attribute& attr : token.attributes) {
          element->AddAttribute(std::move(attr.name), std::move(attr.value));
        }
        Element* raw = element.get();
        if (open.empty()) {
          doc.set_root(std::move(element));
        } else {
          open.back()->AddChild(std::move(element));
        }
        if (!token.self_closing) open.push_back(raw);
        break;
      }
      case Token::Kind::kEndTag: {
        if (open.empty()) {
          return Status::ParseError("line " + std::to_string(token.line) +
                                    ": unmatched end tag </" + token.name +
                                    ">");
        }
        if (open.back()->tag() != token.name) {
          return Status::ParseError("line " + std::to_string(token.line) +
                                    ": end tag </" + token.name +
                                    "> does not match open <" +
                                    open.back()->tag() + ">");
        }
        open.pop_back();
        break;
      }
      case Token::Kind::kText: {
        if (open.empty()) {
          if (!IsBlank(token.text)) {
            return Status::ParseError("line " + std::to_string(token.line) +
                                      ": character data outside root element");
          }
          break;
        }
        if (!IsBlank(token.text)) {
          open.back()->AddText(std::move(token.text));
        }
        break;
      }
      case Token::Kind::kComment:
      case Token::Kind::kPi:
        break;  // ignored
      case Token::Kind::kDoctype:
        if (doc.has_root() || !open.empty()) {
          return Status::ParseError("line " + std::to_string(token.line) +
                                    ": DOCTYPE after content");
        }
        doc.set_doctype_name(std::move(token.name));
        doc.set_internal_subset(std::move(token.text));
        break;
    }
  }
}

}  // namespace

StatusOr<xml::Document> ReferenceParseDocument(std::string_view input) {
  Lexer lexer(input);
  Document doc;
  Status st = BuildTree(lexer, doc);
  if (!st.ok()) return st;
  return doc;
}

}  // namespace dtdevolve::check
