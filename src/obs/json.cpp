#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dynaplat::obs::json {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

Writer& Writer::key(std::string_view name) {
  next_item();
  append_escaped(out_, name);
  out_ += ": ";
  after_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  next_item();
  append_escaped(out_, s);
  return *this;
}

Writer& Writer::value(double v) {
  if (!std::isfinite(v)) return null();
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return raw({buf, static_cast<std::size_t>(end - buf)});
}

std::string Writer::take() {
  has_items_.clear();
  after_key_ = false;
  return std::move(out_);
}

Writer& Writer::open(char bracket) {
  next_item();
  out_ += bracket;
  has_items_.push_back(false);
  return *this;
}

Writer& Writer::close(char bracket) {
  const bool line_per_item = !one_line() && has_items_.back();
  has_items_.pop_back();
  if (line_per_item) newline(has_items_.size());
  out_ += bracket;
  if (has_items_.empty()) out_ += '\n';
  return *this;
}

Writer& Writer::raw(std::string_view text) {
  next_item();
  out_ += text;
  return *this;
}

void Writer::next_item() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (has_items_.empty()) return;
  if (has_items_.back()) out_ += one_line() ? ", " : ",";
  has_items_.back() = true;
  if (!one_line()) newline(has_items_.size());
}

void Writer::newline(std::size_t depth) {
  out_ += '\n';
  out_.append(2 * depth, ' ');
}

bool write_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool written =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && written;
}

const Value& Value::at(const std::string& key) const {
  static const Value kNullValue;
  if (!is_object()) return kNullValue;
  auto it = object.find(key);
  return it == object.end() ? kNullValue : it->second;
}

const Value& Value::operator[](std::size_t i) const {
  static const Value kNullValue;
  if (!is_array() || i >= array.size()) return kNullValue;
  return array[i];
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool run(Value* out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool fail(const char* message) {
    if (error_ != nullptr) {
      *error_ = std::string(message) + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value(Value* out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) return fail("nesting deeper than kMaxDepth");
        ++depth_;
        const bool ok = c == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"':
        out->kind = Value::Kind::kString;
        return parse_string(&out->string);
      case 't':
        if (!literal("true")) return fail("bad literal");
        out->kind = Value::Kind::kBool;
        out->boolean = true;
        return true;
      case 'f':
        if (!literal("false")) return fail("bad literal");
        out->kind = Value::Kind::kBool;
        out->boolean = false;
        return true;
      case 'n':
        if (!literal("null")) return fail("bad literal");
        out->kind = Value::Kind::kNull;
        return true;
      default:
        return parse_number(out);
    }
  }

  bool parse_string(std::string* out) {
    if (text_[pos_] != '"') return fail("expected string");
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("bad escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'u': {
          // Exactly four hex digits: strtol alone would stop at the first
          // non-hex character and take a sign, blanks or "0x".
          if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
          const std::string hex(text_.substr(pos_, 4));
          for (const char h : hex) {
            if (!std::isxdigit(static_cast<unsigned char>(h))) {
              return fail("bad \\u escape");
            }
          }
          pos_ += 4;
          const long code = std::strtol(hex.c_str(), nullptr, 16);
          // Non-BMP / surrogate handling is out of scope: emit UTF-8 for the
          // BMP code point as-is.
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool parse_number(Value* out) {
    const std::size_t start = pos_;
    const auto at = [this](char c) {
      return pos_ < text_.size() && text_[pos_] == c;
    };
    const auto digits = [this] {
      const std::size_t first = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      return pos_ - first;
    };
    if (at('-')) ++pos_;
    const std::size_t int_start = pos_;
    const std::size_t int_digits = digits();
    if (int_digits == 0) {
      return fail(pos_ == start ? "expected value" : "bad number");
    }
    if (int_digits > 1 && text_[int_start] == '0') return fail("bad number");
    if (at('.')) {
      ++pos_;
      if (digits() == 0) return fail("bad number");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (digits() == 0) return fail("bad number");
    }
    const std::string num(text_.substr(start, pos_ - start));
    out->number = std::strtod(num.c_str(), nullptr);
    out->kind = Value::Kind::kNumber;
    return true;
  }

  bool parse_array(Value* out) {
    out->kind = Value::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Value element;
      skip_ws();
      if (!parse_value(&element)) return false;
      out->array.push_back(std::move(element));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_object(Value* out) {
    out->kind = Value::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      if (!parse_string(&key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':'");
      }
      ++pos_;
      skip_ws();
      Value value;
      if (!parse_value(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

bool parse(std::string_view text, Value* out, std::string* error) {
  Parser parser(text, error);
  return parser.run(out);
}

}  // namespace dynaplat::obs::json
