// The published JSON Schema (docs/schema/search_events.schema.json) and the
// field table (obs/schema.hpp) declare the same event format: per kind, the
// same required keys, the same keys, and per key the same type and the
// same minimum / enum / pattern. The reader is also checked on a stream
// whose every line parses but breaks one of those constraints.
#include "obs/schema.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/stream.hpp"

namespace tango::obs {
namespace {

const JsonValue& doc() {
  static const JsonValue schema = [] {
    std::ifstream file(TANGO_EVENT_SCHEMA, std::ios::binary);
    std::stringstream text;
    text << file.rdbuf();
    return parse_json(text.str());
  }();
  return schema;
}

std::vector<EventKind> all_kinds() {
  std::vector<EventKind> kinds;
  for (int k = 0; k <= static_cast<int>(EventKind::Verdict); ++k) {
    kinds.push_back(static_cast<EventKind>(k));
  }
  return kinds;
}

/// The `then` branch the schema applies to events of `kind`.
const JsonValue& branch_for(EventKind kind) {
  const std::string name(to_string(kind));
  for (const JsonValue& branch : doc().find("allOf")->array) {
    const JsonValue* when = branch.find("if")->find("properties")->find("kind");
    const JsonValue* only = when->find("const");
    bool match = only != nullptr && only->string == name;
    if (const JsonValue* any = when->find("enum")) {
      for (const JsonValue& n : any->array) match = match || n.string == name;
    }
    if (match) return *branch.find("then");
  }
  ADD_FAILURE() << "no schema branch for kind " << name;
  static const JsonValue none;
  return none;
}

/// Follows a "#/$defs/<name>" reference.
const JsonValue& resolve(const JsonValue& property) {
  const JsonValue* ref = property.find("$ref");
  if (ref == nullptr) return property;
  const std::string prefix = "#/$defs/";
  EXPECT_EQ(ref->string.rfind(prefix, 0), 0u) << ref->string;
  const JsonValue* def =
      doc().find("$defs")->find(ref->string.substr(prefix.size()));
  EXPECT_NE(def, nullptr) << ref->string;
  return def != nullptr ? *def : property;
}

std::set<std::string> member_names(const JsonValue& object) {
  std::set<std::string> names;
  for (const auto& [key, value] : object.object) names.insert(key);
  return names;
}

TEST(EventSchemaDoc, KindEnumListsEveryKindInOrder) {
  const JsonValue* kinds = doc().find("properties")->find("kind")->find("enum");
  ASSERT_NE(kinds, nullptr);
  std::vector<std::string> got;
  for (const JsonValue& k : kinds->array) got.push_back(k.string);
  std::vector<std::string> want;
  for (EventKind k : all_kinds()) want.emplace_back(to_string(k));
  EXPECT_EQ(got, want);
}

TEST(EventSchemaDoc, RequiredKeysMatchTheTable) {
  for (EventKind kind : all_kinds()) {
    std::set<std::string> want = {"kind"};
    for (const Field& f : fields(kind)) {
      if (f.presence == Presence::Required) want.emplace(f.key);
    }
    std::set<std::string> got;
    for (const JsonValue& key : branch_for(kind).find("required")->array) {
      got.insert(key.string);
    }
    EXPECT_EQ(got, want) << to_string(kind);
  }
}

TEST(EventSchemaDoc, PropertiesMatchTheTable) {
  for (EventKind kind : all_kinds()) {
    const JsonValue& branch = branch_for(kind);
    const JsonValue* extra = branch.find("additionalProperties");
    ASSERT_NE(extra, nullptr) << to_string(kind);
    EXPECT_FALSE(extra->boolean) << to_string(kind);
    const JsonValue& properties = *branch.find("properties");
    std::set<std::string> want = {"kind"};
    for (const Field& f : fields(kind)) want.emplace(f.key);
    EXPECT_EQ(member_names(properties), want) << to_string(kind);

    for (const Field& f : fields(kind)) {
      SCOPED_TRACE(std::string(to_string(kind)) + "." + std::string(f.key));
      const JsonValue* raw = properties.find(f.key);
      ASSERT_NE(raw, nullptr);
      const JsonValue& p = resolve(*raw);
      const JsonValue* type = p.find("type");
      const JsonValue* minimum = p.find("minimum");
      const JsonValue* one_of = p.find("enum");
      const JsonValue* pattern = p.find("pattern");
      const JsonValue* only = p.find("const");

      const char* want_type = "";
      switch (f.type) {
        case FieldType::Int: want_type = "integer"; break;
        case FieldType::Bool: want_type = "boolean"; break;
        case FieldType::Str: want_type = "string"; break;
        case FieldType::Hash: want_type = "string"; break;
        case FieldType::Obj: want_type = "object"; break;
      }
      if (f.one_of.empty()) {
        ASSERT_NE(type, nullptr);
        EXPECT_EQ(type->string, want_type);
        EXPECT_EQ(one_of, nullptr);
      } else {
        // An enum of strings needs no separate type.
        if (type != nullptr) {
          EXPECT_EQ(type->string, want_type);
        }
        ASSERT_NE(one_of, nullptr);
        std::vector<std::string_view> got;
        for (const JsonValue& v : one_of->array) got.emplace_back(v.string);
        EXPECT_EQ(got, std::vector<std::string_view>(f.one_of.begin(),
                                                     f.one_of.end()));
      }
      if (f.minimum == kNoMinimum) {
        EXPECT_EQ(minimum, nullptr);
      } else {
        ASSERT_NE(minimum, nullptr);
        EXPECT_EQ(minimum->integer, f.minimum);
      }
      if (f.type == FieldType::Hash) {
        ASSERT_NE(pattern, nullptr);
        EXPECT_EQ(pattern->string, "^[0-9a-f]{16}$");
      } else {
        EXPECT_EQ(pattern, nullptr);
      }
      // The one constant is the header's version, which read_events
      // checks as a stream rule.
      if (only != nullptr) {
        EXPECT_EQ(f.key, "version");
        EXPECT_EQ(only->integer,
                  static_cast<std::int64_t>(kEventSchemaVersion));
      }
    }
  }
}

TEST(EventSchemaDoc, ReaderRejectsWhatTheSchemaRejects) {
  // Each line parses and has every key its kind needs; three values break
  // constraints the published schema states. One error per value.
  const std::string stream =
      R"({"kind":"run","version":2,"engine":"bogus","spec":"abp",)"
      R"("spec_ref":"builtin:abp","trace_ref":"","order":"IO","flags":{}})"
      "\n"
      R"({"kind":"enter","id":1,"worker":-7,"init":0,"start_state":0,)"
      R"("applied":true,"ok":true,"all_done":false,)"
      R"("state_hash":"AC018212BB5DB479"})"
      "\n"
      R"({"kind":"verdict","parent":1,"verdict":"valid","stats":{}})"
      "\n";
  const ReadResult rr = read_events(stream);
  ASSERT_EQ(rr.errors.size(), 3u);
  EXPECT_EQ(rr.errors[0].line, 1u);
  EXPECT_NE(rr.errors[0].message.find("'engine'"), std::string::npos);
  EXPECT_EQ(rr.errors[1].line, 2u);
  EXPECT_NE(rr.errors[1].message.find("'worker'"), std::string::npos);
  EXPECT_EQ(rr.errors[2].line, 2u);
  EXPECT_NE(rr.errors[2].message.find("'state_hash'"), std::string::npos);
}

}  // namespace
}  // namespace tango::obs
