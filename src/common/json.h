// Minimal JSON support for the report and serving layers: a streaming
// writer for exporting detection reports and explanations, and a small
// recursive-descent parser for the JSONL request protocol of
// tools/fairtopk_serve (src/service/jsonl_service.h). Covers objects,
// arrays, strings, finite numbers, booleans, null — no comments, no
// trailing commas, \uXXXX escapes decoded as UTF-8.
#ifndef FAIRTOPK_COMMON_JSON_H_
#define FAIRTOPK_COMMON_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace fairtopk {

/// Escapes `s` for inclusion inside a JSON string literal (without the
/// surrounding quotes). JsonWriter's Key and String escape the same
/// way, straight into their output.
std::string JsonEscape(std::string_view s);

/// Streaming JSON writer with automatic comma placement. Usage:
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("k").Int(49);
///   w.Key("groups").BeginArray();
///   ...
///   w.EndArray();
///   w.EndObject();
///   std::string out = w.str();
/// Begin/End calls must balance; Key() is required before values
/// inside objects and rejected inside arrays (checked with asserts in
/// debug builds).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits an object key; must be followed by exactly one value.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(long long value);
  JsonWriter& Uint(unsigned long long value);
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  /// Splices `json` — an already-serialized JSON value — in as one
  /// value. Lets the serving layer embed documents produced by the
  /// report serializers without re-parsing them. The caller is
  /// responsible for `json` being well formed.
  JsonWriter& Raw(const std::string& json);

  /// The serialized document so far.
  const std::string& str() const { return out_; }

 private:
  enum class Scope { kObject, kArray };

  void BeforeValue();

  std::string out_;
  std::vector<Scope> scopes_;
  std::vector<bool> has_items_;
  bool pending_key_ = false;
};

/// A parsed JSON document. Numbers are stored as double (the protocol
/// only carries row ids, k values, and scores — all exactly
/// representable); object member order is not preserved.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b) {
    JsonValue v;
    v.type_ = Type::kBool;
    v.bool_ = b;
    return v;
  }
  static JsonValue Number(double d) {
    JsonValue v;
    v.type_ = Type::kNumber;
    v.number_ = d;
    return v;
  }
  static JsonValue String(std::string s) {
    JsonValue v;
    v.type_ = Type::kString;
    v.string_ = std::move(s);
    return v;
  }
  static JsonValue Array(std::vector<JsonValue> items = {}) {
    JsonValue v;
    v.type_ = Type::kArray;
    v.array_ = std::move(items);
    return v;
  }
  static JsonValue Object(std::map<std::string, JsonValue> members = {}) {
    JsonValue v;
    v.type_ = Type::kObject;
    v.object_ = std::move(members);
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; requires the matching type.
  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  const std::map<std::string, JsonValue>& object_members() const {
    return object_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Convenience lookups with defaults, used by the request decoder.
  double NumberOr(const std::string& key, double fallback) const;
  std::string StringOr(const std::string& key, std::string fallback) const;
  bool BoolOr(const std::string& key, bool fallback) const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses exactly one JSON document from `input` (surrounding
/// whitespace allowed, trailing garbage rejected). Errors carry a byte
/// offset.
Result<JsonValue> ParseJson(std::string_view input);

}  // namespace fairtopk

#endif  // FAIRTOPK_COMMON_JSON_H_
