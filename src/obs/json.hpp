// JSON for the whole repository: one streaming writer that every emitted
// document goes through (metrics and coverage snapshots, Chrome traces,
// post-mortem bundles, fuzz journals and repros, the benches' BENCH_*.json)
// and a small recursive-descent parser that reads them back. The writer owns
// the format — separators, escaping, number text, line layout — and has no
// options. The parser is deliberately not a general-purpose library: no
// streaming, no \u surrogate pairs beyond pass-through, numbers parse as
// double, nesting is bounded by kMaxDepth.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dynaplat::obs::json {

/// Containers opened at this depth or shallower (the root is depth 1) put
/// each member or element on its own line, indented two spaces per level;
/// deeper containers stay on one line. Separators are ": " and ", ".
inline constexpr std::size_t kLineDepth = 2;

/// Streaming writer. Integers print exactly; a double prints as the
/// shortest text that parses back to the same value, and a non-finite one
/// as null. Every key and string is escaped. Closing the root container
/// ends the document with a newline.
class Writer {
 public:
  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }

  Writer& key(std::string_view name);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b) { return raw(b ? "true" : "false"); }
  Writer& value(double v);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Writer& value(T v) {
    char buf[24];
    const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    return raw({buf, static_cast<std::size_t>(end - buf)});
  }
  Writer& null() { return raw("null"); }

  template <typename T>
  Writer& member(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  /// The document written so far; the writer is empty afterwards.
  std::string take();

 private:
  Writer& open(char bracket);
  Writer& close(char bracket);
  /// Appends `text` as the next value.
  Writer& raw(std::string_view text);
  /// Separator and indentation before the next member or element.
  void next_item();
  void newline(std::size_t depth);

  /// Whether the innermost open container is deeper than kLineDepth.
  bool one_line() const { return has_items_.size() > kLineDepth; }

  std::string out_;
  std::vector<bool> has_items_;  ///< per open container, innermost last
  bool after_key_ = false;
};

/// Writes `text` to `path`; false when the file cannot be opened, written
/// or closed (a failed flush counts as a failed write).
bool write_file(const std::string& path, std::string_view text);

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  bool has(const std::string& key) const {
    return is_object() && object.count(key) > 0;
  }
  /// Member access; returns a shared null value for missing keys or
  /// non-objects so chained lookups degrade gracefully.
  const Value& at(const std::string& key) const;
  const Value& operator[](std::size_t i) const;
  std::size_t size() const {
    return is_array() ? array.size() : is_object() ? object.size() : 0;
  }

  /// `number` truncated to T, as a cast would; false when it is NaN or
  /// outside T's range, where the cast would be undefined. A missing or
  /// non-number value reads as 0, like `number`.
  template <std::integral T>
  bool to_integer(T* out) const {
    constexpr double kLow = static_cast<double>(std::numeric_limits<T>::min());
    // max() + 1 is 2^digits exactly, also where max() itself rounds up.
    constexpr double kHigh =
        static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
    if (!(number >= kLow && number < kHigh)) return false;
    *out = static_cast<T>(number);
    return true;
  }
};

/// Deepest container nesting parse() accepts; deeper input is a parse
/// error rather than unbounded recursion. The deepest document the repo
/// writes (a histogram bucket in a post-mortem bundle) nests 7 levels.
inline constexpr std::size_t kMaxDepth = 64;

/// Parses `text` into `out`. Returns false (with a short message in `error`
/// when provided) on malformed input, nesting beyond kMaxDepth or trailing
/// garbage.
bool parse(std::string_view text, Value* out, std::string* error = nullptr);

}  // namespace dynaplat::obs::json
