#include "common/json.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace fairtopk {

namespace {

// Appends `s` to `out` escaped for a JSON string literal. Runs of bytes
// that need no escape are appended whole.
void AppendEscaped(std::string& out, std::string_view s) {
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
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
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xf]};
        out.append(escaped, sizeof(escaped));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

// Appends the decimal form of an integer.
template <typename Integer>
void AppendInt(std::string& out, Integer value) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out.append(buf, static_cast<size_t>(end - buf));
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(out, s);
  return out;
}

void JsonWriter::BeforeValue() {
  if (scopes_.empty()) return;
  if (scopes_.back() == Scope::kObject) {
    assert(pending_key_ && "object values require Key() first");
    pending_key_ = false;
    return;
  }
  if (has_items_.back()) out_.push_back(',');
  has_items_.back() = true;
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  scopes_.push_back(Scope::kObject);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  assert(!scopes_.empty() && scopes_.back() == Scope::kObject);
  out_.push_back('}');
  scopes_.pop_back();
  has_items_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  scopes_.push_back(Scope::kArray);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  assert(!scopes_.empty() && scopes_.back() == Scope::kArray);
  out_.push_back(']');
  scopes_.pop_back();
  has_items_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  assert(!scopes_.empty() && scopes_.back() == Scope::kObject);
  assert(!pending_key_ && "two consecutive keys");
  if (has_items_.back()) out_.push_back(',');
  has_items_.back() = true;
  out_.push_back('"');
  AppendEscaped(out_, key);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_.push_back('"');
  AppendEscaped(out_, value);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Int(long long value) {
  BeforeValue();
  AppendInt(out_, value);
  return *this;
}

JsonWriter& JsonWriter::Uint(unsigned long long value) {
  BeforeValue();
  AppendInt(out_, value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  if (std::isnan(value) || std::isinf(value)) {
    out_ += "null";  // JSON has no NaN/Inf literals
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::Raw(const std::string& json) {
  BeforeValue();
  out_ += json;
  return *this;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->number_value() : fallback;
}

std::string JsonValue::StringOr(const std::string& key,
                                std::string fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->string_value()
                                        : std::move(fallback);
}

bool JsonValue::BoolOr(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_bool() ? v->bool_value() : fallback;
}

namespace {

/// Recursive-descent JSON parser over a string_view. Depth-limited so a
/// hostile request line cannot overflow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view input) : input_(input) {}

  Result<JsonValue> Parse() {
    SkipWhitespace();
    FAIRTOPK_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != input_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char expected) {
    if (pos_ < input_.size() && input_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (input_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= input_.size()) return Error("unexpected end of input");
    switch (input_[pos_]) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        FAIRTOPK_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue::String(std::move(s));
      }
      case 't':
        if (ConsumeLiteral("true")) return JsonValue::Bool(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) return JsonValue::Bool(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) return JsonValue::Null();
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    std::map<std::string, JsonValue> members;
    SkipWhitespace();
    if (Consume('}')) return JsonValue::Object(std::move(members));
    while (true) {
      SkipWhitespace();
      if (pos_ >= input_.size() || input_[pos_] != '"') {
        return Error("expected object key");
      }
      FAIRTOPK_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWhitespace();
      FAIRTOPK_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      // Reject duplicate keys instead of the map's silent last-wins:
      // on the wire, {"sex":"M","sex":"F"} would otherwise audit F
      // with no error (and re-sent fields could smuggle past earlier
      // validation). RFC 8259 leaves the semantics open; a request
      // protocol must not.
      if (!members.emplace(std::move(key), std::move(value)).second) {
        return Error("duplicate object key");
      }
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return JsonValue::Object(std::move(members));
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (Consume(']')) return JsonValue::Array(std::move(items));
    while (true) {
      SkipWhitespace();
      FAIRTOPK_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      items.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return JsonValue::Array(std::move(items));
      return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= input_.size()) return Error("unterminated escape");
      const char esc = input_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > input_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = input_[pos_ + static_cast<size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid hex digit in \\u escape");
            }
          }
          pos_ += 4;
          // Encode the BMP code point as UTF-8 (surrogate pairs are
          // passed through as two 3-byte sequences — the protocol never
          // carries astral-plane text).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape character");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
      // Sign consumed; digits must follow.
    }
    if (pos_ >= input_.size() ||
        !(input_[pos_] >= '0' && input_[pos_] <= '9')) {
      return Error("invalid number");
    }
    while (pos_ < input_.size() && input_[pos_] >= '0' &&
           input_[pos_] <= '9') {
      ++pos_;
    }
    if (Consume('.')) {
      if (pos_ >= input_.size() ||
          !(input_[pos_] >= '0' && input_[pos_] <= '9')) {
        return Error("digits required after decimal point");
      }
      while (pos_ < input_.size() && input_[pos_] >= '0' &&
             input_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < input_.size() && (input_[pos_] == 'e' || input_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < input_.size() &&
          (input_[pos_] == '+' || input_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= input_.size() ||
          !(input_[pos_] >= '0' && input_[pos_] <= '9')) {
        return Error("digits required in exponent");
      }
      while (pos_ < input_.size() && input_[pos_] >= '0' &&
             input_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string text(input_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !std::isfinite(value)) {
      return Error("number out of range");
    }
    return JsonValue::Number(value);
  }

  std::string_view input_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view input) {
  return JsonParser(input).Parse();
}

}  // namespace fairtopk
