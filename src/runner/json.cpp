#include "runner/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace silence::runner {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_indent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

// Recursive-descent parser over a string_view. Depth-capped so a
// pathological input cannot exhaust the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after value");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("Json::parse: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return Json(nullptr);
      default: return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      // RFC 8259 leaves duplicate-key behavior implementation-defined;
      // every producer in this repo writes unique keys, so a duplicate
      // can only mean a corrupt or hand-mangled artifact — reject it
      // rather than let one of the two values win silently.
      for (const auto& [existing, value] : obj) {
        if (existing == key) fail("duplicate object key '" + key + "'");
      }
      skip_ws();
      expect(':');
      obj.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(obj));
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(arr));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_codepoint(out, parse_hex4()); break;
        default: fail("invalid escape");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return value;
  }

  void append_codepoint(std::string& out, unsigned cp) {
    // Surrogate pair: a high surrogate must be followed by \uDC00-\uDFFF.
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        fail("unpaired surrogate");
      }
      pos_ += 2;
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired surrogate");
    }
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t int_start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == int_start) fail("invalid value");
    if (text_[int_start] == '0' && pos_ - int_start > 1) {
      fail("leading zero in number");
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      const std::size_t frac = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == frac) fail("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      const std::size_t exp = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == exp) fail("digits required in exponent");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (integral) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Json(value);
      }
      // Out of int64 range: fall through to double.
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      fail("invalid number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void type_error(const char* wanted) {
  throw std::runtime_error(std::string("Json: value is not ") + wanted);
}

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).run(); }

bool Json::as_bool() const {
  if (!is_bool()) type_error("a bool");
  return std::get<bool>(value_);
}

std::int64_t Json::as_int() const {
  if (!is_int()) type_error("an integer");
  return std::get<std::int64_t>(value_);
}

double Json::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
  if (!std::holds_alternative<double>(value_)) type_error("a number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  if (!is_string()) type_error("a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  if (!is_array()) type_error("an array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  if (!is_object()) type_error("an object");
  return std::get<Object>(value_);
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  return std::string(buf, ptr);
}

Json& Json::set(std::string_view key, Json value) {
  auto& obj = std::get<Object>(value_);
  for (auto& [k, v] : obj) {
    if (k == key) {
      v = std::move(value);
      return v;
    }
  }
  obj.emplace_back(std::string(key), std::move(value));
  return obj.back().second;
}

const Json* Json::find(std::string_view key) const {
  const auto& obj = std::get<Object>(value_);
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::size_t Json::size() const {
  if (is_array()) return std::get<Array>(value_).size();
  if (is_object()) return std::get<Object>(value_).size();
  return 0;
}

void Json::write(std::string& out, int indent, int depth) const {
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::nullptr_t>) {
          out += "null";
        } else if constexpr (std::is_same_v<T, bool>) {
          out += v ? "true" : "false";
        } else if constexpr (std::is_same_v<T, std::int64_t>) {
          char buf[24];
          const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
          (void)ec;
          out.append(buf, ptr);
        } else if constexpr (std::is_same_v<T, double>) {
          out += format_double(v);
        } else if constexpr (std::is_same_v<T, std::string>) {
          append_escaped(out, v);
        } else if constexpr (std::is_same_v<T, Array>) {
          if (v.empty()) {
            out += "[]";
            return;
          }
          out += '[';
          for (std::size_t i = 0; i < v.size(); ++i) {
            if (i) out += ',';
            if (indent) append_indent(out, indent, depth + 1);
            v[i].write(out, indent, depth + 1);
          }
          if (indent) append_indent(out, indent, depth);
          out += ']';
        } else if constexpr (std::is_same_v<T, Object>) {
          if (v.empty()) {
            out += "{}";
            return;
          }
          out += '{';
          for (std::size_t i = 0; i < v.size(); ++i) {
            if (i) out += ',';
            if (indent) append_indent(out, indent, depth + 1);
            append_escaped(out, v[i].first);
            out += indent ? ": " : ":";
            v[i].second.write(out, indent, depth + 1);
          }
          if (indent) append_indent(out, indent, depth);
          out += '}';
        }
      },
      value_);
}

// Both dumps return right-sized strings: appending grows the buffer
// geometrically, so without the shrink a large document (a 1024-station
// NetResult is ~300 KB) could keep nearly its own size again in slack
// for as long as the caller holds it.
std::string Json::dump() const {
  std::string out;
  write(out, 2, 0);
  out += '\n';
  out.shrink_to_fit();
  return out;
}

std::string Json::dump_compact() const {
  std::string out;
  write(out, 0, 0);
  out.shrink_to_fit();
  return out;
}

}  // namespace silence::runner
