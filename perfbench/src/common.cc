#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

const Json& Json::operator[](const std::string& key) const {
  static const Json kNull;
  auto it = fields.find(key);
  return it == fields.end() ? kNull : it->second;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool ParseDocument(Json* out) {
    if (!ParseValue(out, 0)) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          const unsigned code = static_cast<unsigned>(
              std::strtoul(std::string(text_.substr(pos_, 4)).c_str(),
                           nullptr, 16));
          pos_ += 4;
          // The server escapes only control characters this way.
          out->push_back(static_cast<char>(code & 0x7F));
          break;
        }
        default: out->push_back(esc); break;
      }
    }
    return false;
  }

  bool ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = Json::Type::kObject;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipSpace();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipSpace();
        if (!Consume(":")) return false;
        Json value;
        if (!ParseValue(&value, depth + 1)) return false;
        out->fields[key] = std::move(value);
        SkipSpace();
        if (Consume(",")) continue;
        return Consume("}");
      }
    }
    if (c == '[') {
      ++pos_;
      out->type = Json::Type::kArray;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        Json value;
        if (!ParseValue(&value, depth + 1)) return false;
        out->items.push_back(std::move(value));
        SkipSpace();
        if (Consume(",")) continue;
        return Consume("]");
      }
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return ParseString(&out->text);
    }
    if (Consume("true")) {
      out->type = Json::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (Consume("false")) {
      out->type = Json::Type::kBool;
      return true;
    }
    if (Consume("null")) return true;
    const std::string rest(text_.substr(pos_, 64));
    char* end = nullptr;
    out->number = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) return false;
    out->type = Json::Type::kNumber;
    pos_ += static_cast<size_t>(end - rest.c_str());
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseJson(std::string_view text, Json* out) {
  *out = Json();
  return JsonParser(text).ParseDocument(out);
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out += "\"";
  return out;
}

}  // namespace perfbench
