#include "ids/minijson.hpp"

#include <cctype>
#include <cstdlib>

namespace tmg::ids::minijson {

const Value* Value::get(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Value::get_string(const std::string& key,
                              std::string fallback) const {
  const Value* v = get(key);
  return v != nullptr && v->kind == Kind::String ? v->string
                                                 : std::move(fallback);
}

double Value::get_number(const std::string& key, double fallback) const {
  const Value* v = get(key);
  return v != nullptr && v->kind == Kind::Number ? v->number : fallback;
}

std::uint64_t Value::get_u64(const std::string& key,
                             std::uint64_t fallback) const {
  const Value* v = get(key);
  if (v == nullptr || v->kind != Kind::Number || v->number < 0) {
    return fallback;
  }
  return static_cast<std::uint64_t>(v->number);
}

namespace {

/// Deepest array/object nesting a document may have. The repo's deepest
/// emitted document is a depth-4 profile; the bound keeps a hostile
/// input from overflowing the recursive-descent stack.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_{text}, error_{error} {}

  std::optional<Value> run() {
    skip_ws();
    Value v;
    if (!parse_value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      return std::nullopt;
    }
    return v;
  }

 private:
  void fail(const std::string& msg) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = msg + " at byte " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(const char* word, std::size_t len) {
    if (text_.compare(pos_, len, word) != 0) {
      fail(std::string{"expected '"} + word + "'");
      return false;
    }
    pos_ += len;
    return true;
  }

  bool parse_value(Value& out) {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return false;
    }
    switch (text_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail("nesting too deep (limit " + std::to_string(kMaxDepth) + ")");
          return false;
        }
        ++depth_;
        const bool ok =
            text_[pos_] == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"':
        out.kind = Value::Kind::String;
        return parse_string(out.string);
      case 't':
        out.kind = Value::Kind::Bool;
        out.boolean = true;
        return literal("true", 4);
      case 'f':
        out.kind = Value::Kind::Bool;
        out.boolean = false;
        return literal("false", 5);
      case 'n':
        out.kind = Value::Kind::Null;
        return literal("null", 4);
      default: return parse_number(out);
    }
  }

  bool parse_object(Value& out) {
    out.kind = Value::Kind::Object;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        fail("expected ':' in object");
        return false;
      }
      ++pos_;
      skip_ws();
      Value member;
      if (!parse_value(member)) return false;
      out.object.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (pos_ >= text_.size()) {
        fail("unterminated object");
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      fail("expected ',' or '}' in object");
      return false;
    }
  }

  bool parse_array(Value& out) {
    out.kind = Value::Kind::Array;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      Value element;
      if (!parse_value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (pos_ >= text_.size()) {
        fail("unterminated array");
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      fail("expected ',' or ']' in array");
      return false;
    }
  }

  bool parse_string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      fail("expected string");
      return false;
    }
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c != '\\') {
        out.push_back(c);
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) break;
      const char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // The repo's exporters escape control bytes as \u00XX only;
          // decode the low byte and reject anything wider.
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return false;
          }
          const std::string hex = text_.substr(pos_, 4);
          char* end = nullptr;
          const unsigned long cp = std::strtoul(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4 || cp > 0xff) {
            fail("unsupported \\u escape");
            return false;
          }
          pos_ += 4;
          out.push_back(static_cast<char>(cp));
          break;
        }
        default: fail("unknown escape"); return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected value");
      return false;
    }
    const std::string lexeme = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(lexeme.c_str(), &end);
    if (end != lexeme.c_str() + lexeme.size()) {
      fail("malformed number");
      return false;
    }
    out.kind = Value::Kind::Number;
    out.number = v;
    return true;
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<Value> parse(const std::string& text, std::string* error) {
  return Parser{text, error}.run();
}

}  // namespace tmg::ids::minijson
