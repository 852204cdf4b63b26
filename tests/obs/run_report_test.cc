#include "obs/run_report.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "temp_path.h"

namespace opim {
namespace {

// --- Minimal JSON parser (test-only) -----------------------------------
// Just enough to round-trip what JsonWriter emits: objects, arrays,
// strings with the escapes Escape() produces, numbers, true/false/null.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    EXPECT_NE(it, object.end()) << "missing key: " << key;
    static const JsonValue kMissing;
    return it == object.end() ? kMissing : it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue Parse() {
    JsonValue v = ParseValue();
    SkipWs();
    EXPECT_EQ(pos_, text_.size()) << "trailing garbage";
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char Peek() {
    SkipWs();
    EXPECT_LT(pos_, text_.size()) << "unexpected end of JSON";
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void Expect(char c) {
    EXPECT_EQ(Peek(), c) << "at offset " << pos_;
    ++pos_;
  }

  JsonValue ParseValue() {
    switch (Peek()) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
      case 'f':
        return ParseBool();
      case 'n':
        pos_ += 4;
        return JsonValue{};
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseObject() {
    JsonValue v;
    v.kind = JsonValue::kObject;
    Expect('{');
    if (Peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      JsonValue key = ParseString();
      Expect(':');
      v.object.emplace(key.str, ParseValue());
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return v;
    }
  }

  JsonValue ParseArray() {
    JsonValue v;
    v.kind = JsonValue::kArray;
    Expect('[');
    if (Peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(ParseValue());
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return v;
    }
  }

  JsonValue ParseString() {
    JsonValue v;
    v.kind = JsonValue::kString;
    Expect('"');
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        v.str += c;
        continue;
      }
      EXPECT_LT(pos_, text_.size());
      char esc = text_[pos_++];
      switch (esc) {
        case 'n': v.str += '\n'; break;
        case 't': v.str += '\t'; break;
        case 'r': v.str += '\r'; break;
        case 'b': v.str += '\b'; break;
        case 'f': v.str += '\f'; break;
        case 'u': {
          unsigned code = 0;
          std::sscanf(text_.substr(pos_, 4).c_str(), "%4x", &code);
          pos_ += 4;
          v.str += static_cast<char>(code);
          break;
        }
        default: v.str += esc;
      }
    }
    Expect('"');
    return v;
  }

  JsonValue ParseBool() {
    JsonValue v;
    v.kind = JsonValue::kBool;
    if (text_[pos_] == 't') {
      v.boolean = true;
      pos_ += 4;
    } else {
      pos_ += 5;
    }
    return v;
  }

  JsonValue ParseNumber() {
    JsonValue v;
    v.kind = JsonValue::kNumber;
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    v.number = std::stod(text_.substr(start, pos_ - start));
    return v;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// -----------------------------------------------------------------------

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonWriter::Escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::Escape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonWriter::Escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonWriterTest, NestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").Value("text");
  w.Key("i").Value(uint64_t{42});
  w.Key("d").Value(2.5);
  w.Key("b").Value(true);
  w.Key("arr").BeginArray();
  w.Value(uint64_t{1});
  w.Value(uint64_t{2});
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"text\",\"i\":42,\"d\":2.5,\"b\":true,\"arr\":[1,2]}");
}

TEST(RunReportTest, JsonRoundTrip) {
  RunReport report;
  report.AddInfo("algorithm", "opim-c+");
  report.AddInfo("quoted", "needs \"escaping\"\n");
  report.AddResult("alpha", 0.632);
  report.AddResult("rr_sets", 4096);
  report.AddIteration()
      .Set("iteration", 1)
      .Set("alpha", 0.25)
      .Set("generate_seconds", 0.125);
  report.AddIteration()
      .Set("iteration", 2)
      .Set("alpha", 0.75)
      .Set("generate_seconds", 0.5);

  MetricsRegistry registry;
  registry.FindOrCreateCounter("opim.rrset.sets_generated")->Add(4096);
  registry.FindOrCreateHistogram("opim.select.greedy_us")->Record(300);
  report.SetMetrics(registry.Snapshot());

  JsonValue root = JsonParser(report.ToJson()).Parse();
  EXPECT_EQ(root.at("schema").str, "opim.run_report.v1");
  EXPECT_EQ(root.at("info").at("algorithm").str, "opim-c+");
  EXPECT_EQ(root.at("info").at("quoted").str, "needs \"escaping\"\n");
  EXPECT_DOUBLE_EQ(root.at("results").at("alpha").number, 0.632);
  EXPECT_DOUBLE_EQ(root.at("results").at("rr_sets").number, 4096.0);

  const JsonValue& iterations = root.at("iterations");
  ASSERT_EQ(iterations.array.size(), 2u);
  EXPECT_DOUBLE_EQ(iterations.array[0].at("alpha").number, 0.25);
  EXPECT_DOUBLE_EQ(iterations.array[1].at("generate_seconds").number, 0.5);

  const JsonValue& metrics = root.at("metrics");
  EXPECT_DOUBLE_EQ(
      metrics.at("counters").at("opim.rrset.sets_generated").number, 4096.0);
  const JsonValue& hist =
      metrics.at("histograms").at("opim.select.greedy_us");
  EXPECT_DOUBLE_EQ(hist.at("count").number, 1.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").number, 300.0);
  ASSERT_EQ(hist.at("buckets").array.size(), 1u);
  EXPECT_DOUBLE_EQ(hist.at("buckets").array[0].at("count").number, 1.0);
}

TEST(RunReportTest, EmptyReportIsValidJson) {
  RunReport report;
  JsonValue root = JsonParser(report.ToJson()).Parse();
  EXPECT_EQ(root.at("schema").str, "opim.run_report.v1");
  EXPECT_TRUE(root.at("info").object.empty());
  EXPECT_TRUE(root.at("iterations").array.empty());
  EXPECT_TRUE(root.has("metrics"));
}

TEST(RunReportTest, IterationsToCsv) {
  RunReport report;
  report.AddIteration().Set("iteration", 1).Set("alpha", 0.5);
  report.AddIteration().Set("iteration", 2).Set("alpha", 0.75);
  const std::string csv = report.IterationsToCsv();
  EXPECT_EQ(csv, "iteration,alpha\n1,0.5\n2,0.75\n");
  EXPECT_TRUE(RunReport().IterationsToCsv().empty());
}

TEST(RunReportTest, CsvEscapeQuotesOnlyWhenNeeded) {
  // Plain fields pass through unquoted.
  EXPECT_EQ(RunReport::CsvEscape("alpha"), "alpha");
  EXPECT_EQ(RunReport::CsvEscape(""), "");
  // RFC 4180: fields containing separators, quotes, or line breaks are
  // quoted, with embedded quotes doubled.
  EXPECT_EQ(RunReport::CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(RunReport::CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(RunReport::CsvEscape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(RunReport::CsvEscape("cr\rhere"), "\"cr\rhere\"");
}

TEST(RunReportTest, CsvHeaderEscapesHostileColumnNames) {
  RunReport report;
  report.AddIteration()
      .Set("time, seconds", 1.5)
      .Set("theta \"lower\"", 128);
  const std::string csv = report.IterationsToCsv();
  // Strict-CSV round-trip: the header line must stay one record with two
  // fields, so the comma and quotes in the names are escaped.
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_EQ(header, "\"time, seconds\",\"theta \"\"lower\"\"\"");
  EXPECT_EQ(csv.substr(csv.find('\n') + 1), "1.5,128\n");
}

TEST(RunReportTest, WriteJsonToFile) {
  RunReport report;
  report.AddInfo("k", "v");
  std::string path = TestTempPath("opim_run_report_test.json");
  ASSERT_TRUE(report.WriteJson(path).ok());
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  size_t len = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  std::remove(path.c_str());
  JsonValue root = JsonParser(std::string(buf, len)).Parse();
  EXPECT_EQ(root.at("info").at("k").str, "v");
}

TEST(RunReportTest, WriteJsonBadPathFails) {
  RunReport report;
  EXPECT_FALSE(report.WriteJson("/nonexistent-dir/x/y.json").ok());
}

}  // namespace
}  // namespace opim
