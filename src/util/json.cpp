#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace abg::util {

Json Json::object() { return Json(Kind::kObject); }
Json Json::array() { return Json(Kind::kArray); }

Json Json::string(std::string value) {
  Json j(Kind::kString);
  j.string_ = std::move(value);
  return j;
}

Json Json::number(double value) {
  Json j(Kind::kNumber);
  j.number_ = value;
  return j;
}

Json Json::integer(std::int64_t value) {
  Json j(Kind::kInteger);
  j.integer_ = value;
  return j;
}

Json Json::boolean(bool value) {
  Json j(Kind::kBoolean);
  j.boolean_ = value;
  return j;
}

Json Json::null() { return Json(Kind::kNull); }

std::size_t Json::size() const {
  switch (kind_) {
    case Kind::kObject:
      return members_.size();
    case Kind::kArray:
      return elements_.size();
    default:
      return 0;
  }
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : members_) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* found = find(key);
  if (found == nullptr) {
    throw std::out_of_range("Json::at: no member '" + std::string(key) + "'");
  }
  return *found;
}

const Json& Json::at(std::size_t index) const {
  if (kind_ != Kind::kArray || index >= elements_.size()) {
    throw std::out_of_range("Json::at: array index out of range");
  }
  return elements_[index];
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) {
    throw std::logic_error("Json::as_string: not a string");
  }
  return string_;
}

double Json::as_number() const {
  if (kind_ == Kind::kInteger) {
    return static_cast<double>(integer_);
  }
  if (kind_ != Kind::kNumber) {
    throw std::logic_error("Json::as_number: not a number");
  }
  return number_;
}

std::int64_t Json::as_integer() const {
  if (kind_ != Kind::kInteger) {
    throw std::logic_error("Json::as_integer: not an integer");
  }
  return integer_;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (kind_ != Kind::kObject) {
    throw std::logic_error("Json::members: not an object");
  }
  return members_;
}

const std::vector<Json>& Json::items() const {
  if (kind_ != Kind::kArray) {
    throw std::logic_error("Json::items: not an array");
  }
  return elements_;
}

Json& Json::set(std::string key, Json value) {
  if (kind_ != Kind::kObject) {
    throw std::logic_error("Json::set: not an object");
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  if (kind_ != Kind::kArray) {
    throw std::logic_error("Json::push: not an array");
  }
  elements_.push_back(std::move(value));
  return *this;
}

std::string Json::format_number(double value) {
  // JSON has no NaN/Inf; clamp to null-adjacent sentinels explicitly so
  // malformed metrics are visible rather than silently invalid.
  if (std::isnan(value) || std::isinf(value)) {
    return "null";
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) {
    throw std::runtime_error("Json::format_number: to_chars failed");
  }
  return std::string(buf, ptr);
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Json::write(std::ostream& os) const {
  switch (kind_) {
    case Kind::kObject: {
      os << '{';
      bool first = true;
      for (const auto& [key, value] : members_) {
        if (!first) {
          os << ',';
        }
        first = false;
        os << '"' << json_escape(key) << "\":";
        value.write(os);
      }
      os << '}';
      break;
    }
    case Kind::kArray: {
      os << '[';
      bool first = true;
      for (const Json& value : elements_) {
        if (!first) {
          os << ',';
        }
        first = false;
        value.write(os);
      }
      os << ']';
      break;
    }
    case Kind::kString:
      os << '"' << json_escape(string_) << '"';
      break;
    case Kind::kNumber:
      os << format_number(number_);
      break;
    case Kind::kInteger:
      os << integer_;
      break;
    case Kind::kBoolean:
      os << (boolean_ ? "true" : "false");
      break;
    case Kind::kNull:
      os << "null";
      break;
  }
}

std::string Json::dump() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

namespace {

// Strict recursive-descent parser over the document bytes.  Works through
// the public Json factories, so it cannot build a tree write() would not
// have produced (modulo number formatting).
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("Json::parse: " + what + " at byte " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return false;
    }
    pos_ += literal.size();
    return true;
  }

  Json parse_value() {
    if (depth_ > kMaxDepth) {
      fail("nesting deeper than 64 levels");
    }
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json::string(parse_string());
      case 't':
        if (consume_literal("true")) {
          return Json::boolean(true);
        }
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) {
          return Json::boolean(false);
        }
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) {
          return Json::null();
        }
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    ++depth_;
    expect('{');
    Json object = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return object;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      object.set(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') {
        break;
      }
      if (c != ',') {
        fail("expected ',' or '}' in object");
      }
    }
    --depth_;
    return object;
  }

  Json parse_array() {
    ++depth_;
    expect('[');
    Json array = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return array;
    }
    while (true) {
      array.push(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') {
        break;
      }
      if (c != ',') {
        fail("expected ',' or ']' in array");
      }
    }
    --depth_;
    return array;
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape");
    }
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return code;
  }

  void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("truncated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out += esc;
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("high surrogate without following \\u escape");
            }
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unexpected low surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    if (peek() < '0' || peek() > '9') {
      fail("invalid value");
    }
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (integral) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Json::integer(value);
      }
      // Out-of-int64-range integers fall through to double.
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      fail("malformed number");
    }
    return Json::number(value);
  }

  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace abg::util
