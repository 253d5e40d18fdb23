#include "common/json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

namespace fairtopk {
namespace {

TEST(JsonEscapeTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriterTest, EmptyObjectAndArray) {
  {
    JsonWriter w;
    w.BeginObject().EndObject();
    EXPECT_EQ(w.str(), "{}");
  }
  {
    JsonWriter w;
    w.BeginArray().EndArray();
    EXPECT_EQ(w.str(), "[]");
  }
}

TEST(JsonWriterTest, ObjectWithMixedValues) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").String("x");
  w.Key("i").Int(-3);
  w.Key("u").Uint(7);
  w.Key("d").Double(2.5);
  w.Key("b").Bool(true);
  w.Key("n").Null();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"x\",\"i\":-3,\"u\":7,\"d\":2.5,\"b\":true,"
            "\"n\":null}");
}

TEST(JsonWriterTest, NestedStructures) {
  JsonWriter w;
  w.BeginObject();
  w.Key("list").BeginArray();
  w.Int(1);
  w.BeginObject().Key("k").String("v").EndObject();
  w.BeginArray().Int(2).Int(3).EndArray();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"list\":[1,{\"k\":\"v\"},[2,3]]}");
}

TEST(JsonWriterTest, ArrayCommaPlacement) {
  JsonWriter w;
  w.BeginArray().Int(1).Int(2).Int(3).EndArray();
  EXPECT_EQ(w.str(), "[1,2,3]");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.Double(1.0);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,1]");
}

TEST(JsonWriterTest, EscapedKeys) {
  JsonWriter w;
  w.BeginObject().Key("we\"ird").Int(1).EndObject();
  EXPECT_EQ(w.str(), "{\"we\\\"ird\":1}");
}

// The escape of one byte as the serving protocol has always written it:
// the five short escapes, \u00xx (lowercase hex) for the remaining
// control bytes, and every other byte verbatim.
std::string ReferenceEscape(unsigned char c) {
  switch (c) {
    case '"':
      return "\\\"";
    case '\\':
      return "\\\\";
    case '\n':
      return "\\n";
    case '\r':
      return "\\r";
    case '\t':
      return "\\t";
    default:
      break;
  }
  if (c < 0x20) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
    return buf;
  }
  return std::string(1, static_cast<char>(c));
}

TEST(JsonWriterTest, KeyAndStringEscapeEveryByteLikeJsonEscape) {
  std::string all_bytes;
  std::string all_escaped;
  for (int b = 0; b < 256; ++b) {
    const unsigned char c = static_cast<unsigned char>(b);
    // Surrounded by plain bytes, so the escape sits inside a run.
    const std::string s = "a" + std::string(1, static_cast<char>(c)) + "z";
    const std::string escaped = JsonEscape(s);
    ASSERT_EQ(escaped, "a" + ReferenceEscape(c) + "z") << "byte " << b;
    JsonWriter w;
    w.BeginObject().Key(s).String(s).EndObject();
    EXPECT_EQ(w.str(), "{\"" + escaped + "\":\"" + escaped + "\"}")
        << "byte " << b;
    all_bytes.push_back(static_cast<char>(c));
    all_escaped += ReferenceEscape(c);
  }
  JsonWriter w;
  w.BeginArray().String(all_bytes).EndArray();
  EXPECT_EQ(w.str(), "[\"" + all_escaped + "\"]");
  EXPECT_EQ(JsonEscape(all_bytes), all_escaped);
}

TEST(JsonWriterTest, IntegerExtremes) {
  JsonWriter w;
  w.BeginArray();
  w.Int(0).Int(-1).Int(std::numeric_limits<long long>::min());
  w.Int(std::numeric_limits<long long>::max());
  w.Uint(0).Uint(std::numeric_limits<unsigned long long>::max());
  w.EndArray();
  EXPECT_EQ(w.str(),
            "[0,-1,-9223372036854775808,9223372036854775807,0,"
            "18446744073709551615]");
}

}  // namespace
}  // namespace fairtopk
