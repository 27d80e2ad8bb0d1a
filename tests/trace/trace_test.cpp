#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "specs/builtin_specs.hpp"
#include "trace/dynamic_source.hpp"
#include "../support/temp_path.hpp"

namespace tango::tr {
namespace {

est::Spec make_spec() {
  return est::compile_spec(R"(
specification s;
channel CH(A, B);
  by A: m; d(v: integer; flag: boolean);
  by B: r(v: integer); rec(p: Pt); arr(xs: Vec); col(c: Color);
module M systemprocess; ip P: CH(B); Q: CH(B); end;
body MB for M;
  type Pt = record x, y: integer; end;
       Vec = array [1 .. 2] of integer;
       Color = (red, green, blue);
  state z;
  initialize to z begin end;
end;
end.
)");
}

TEST(Trace, AppendAssignsSeqAndIndexes) {
  est::Spec spec = make_spec();
  Trace t(static_cast<int>(spec.ips.size()));
  TraceEvent a;
  a.dir = Dir::In;
  a.ip = 0;
  a.interaction = spec.input_id(0, "m");
  TraceEvent b = a;
  b.ip = 1;
  b.interaction = spec.input_id(1, "m");
  TraceEvent c;
  c.dir = Dir::Out;
  c.ip = 0;
  c.interaction = spec.output_id(0, "r");
  c.params.push_back(rt::Value::make_int(1));
  t.append(a);
  t.append(b);
  t.append(c);
  EXPECT_EQ(t.events()[0].seq, 0u);
  EXPECT_EQ(t.events()[2].seq, 2u);
  EXPECT_EQ(t.list(0, Dir::In), std::vector<std::uint32_t>{0});
  EXPECT_EQ(t.list(1, Dir::In), std::vector<std::uint32_t>{1});
  EXPECT_EQ(t.list(0, Dir::Out), std::vector<std::uint32_t>{2});
  EXPECT_TRUE(t.list(1, Dir::Out).empty());
}

TEST(TraceIo, ParseSimpleEvents) {
  est::Spec spec = make_spec();
  Trace t = parse_trace(spec, R"(
# a comment line

in  P.m
in  Q.d(7, true)
out P.r(42)
)");
  ASSERT_EQ(t.events().size(), 3u);
  EXPECT_TRUE(t.eof());  // assume_eof default
  EXPECT_EQ(t.events()[1].params[0].scalar(), 7);
  EXPECT_EQ(t.events()[1].params[1].as_bool(), true);
  EXPECT_EQ(t.events()[2].dir, Dir::Out);
}

TEST(TraceIo, EofMarkerHandling) {
  est::Spec spec = make_spec();
  Trace t = parse_trace(spec, "in P.m\n", /*assume_eof=*/false);
  EXPECT_FALSE(t.eof());
  Trace t2 = parse_trace(spec, "in P.m\neof\n", /*assume_eof=*/false);
  EXPECT_TRUE(t2.eof());
  EXPECT_THROW(parse_trace(spec, "eof\nin P.m\n"), CompileError);
}

TEST(TraceIo, StructuredValues) {
  est::Spec spec = make_spec();
  Trace t = parse_trace(spec,
                        "out P.rec((3, 4))\n"
                        "out P.arr([10, 20])\n"
                        "out P.col(green)\n");
  ASSERT_EQ(t.events().size(), 3u);
  const rt::Value& rec = t.events()[0].params[0];
  ASSERT_EQ(rec.kind(), rt::Value::Kind::Record);
  EXPECT_EQ(rec.elems()[1].scalar(), 4);
  const rt::Value& arr = t.events()[1].params[0];
  ASSERT_EQ(arr.kind(), rt::Value::Kind::Array);
  EXPECT_EQ(arr.elems()[0].scalar(), 10);
  EXPECT_EQ(t.events()[2].params[0].to_string(), "green");
}

TEST(TraceIo, UndefinedPlaceholder) {
  est::Spec spec = make_spec();
  Trace t = parse_trace(spec, "in Q.d(_, true)\n");
  EXPECT_TRUE(t.events()[0].params[0].is_undefined());
}

TEST(TraceIo, NegativeIntegers) {
  est::Spec spec = make_spec();
  Trace t = parse_trace(spec, "out P.r(-5)\n");
  EXPECT_EQ(t.events()[0].params[0].scalar(), -5);
}

TEST(TraceIo, RoundTripThroughText) {
  est::Spec spec = make_spec();
  // Names are canonicalized to lower case, so the round trip is exact only
  // for lower-case input.
  const std::string original =
      "in  p.m\n"
      "in  q.d(7, false)\n"
      "out p.rec((1, 2))\n"
      "out p.arr([3, 4])\n"
      "out p.col(blue)\n"
      "eof\n";
  Trace t = parse_trace(spec, original, /*assume_eof=*/false);
  EXPECT_EQ(to_text(spec, t), original);
}

TEST(TraceIo, RejectsUnknownIpAndInteraction) {
  est::Spec spec = make_spec();
  EXPECT_THROW(parse_trace(spec, "in X.m\n"), CompileError);
  EXPECT_THROW(parse_trace(spec, "in P.nosuch\n"), CompileError);
  // r is an output of P, not an input.
  EXPECT_THROW(parse_trace(spec, "in P.r(1)\n"), CompileError);
}

TEST(TraceIo, RejectsArityAndTypeErrors) {
  est::Spec spec = make_spec();
  EXPECT_THROW(parse_trace(spec, "in Q.d(7)\n"), CompileError);
  EXPECT_THROW(parse_trace(spec, "in Q.d(7, 8)\n"), CompileError);
  EXPECT_THROW(parse_trace(spec, "in Q.d\n"), CompileError);
  EXPECT_THROW(parse_trace(spec, "out P.col(mauve)\n"), CompileError);
  EXPECT_THROW(parse_trace(spec, "out P.r(1) trailing\n"), CompileError);
}

TEST(MemoryFeed, DeliversPushedEventsOnPoll) {
  est::Spec spec = make_spec();
  MemoryFeed feed(spec);
  Trace t(static_cast<int>(spec.ips.size()));
  EXPECT_FALSE(feed.poll(t));
  feed.push_line("in P.m");
  feed.push_line("# comment");
  feed.push_line("out P.r(3)");
  EXPECT_TRUE(feed.poll(t));
  EXPECT_EQ(t.events().size(), 2u);
  EXPECT_FALSE(feed.poll(t));
  feed.push_line("eof");
  EXPECT_TRUE(feed.poll(t));
  EXPECT_TRUE(t.eof());
  EXPECT_FALSE(feed.poll(t));
}

TEST(FileFollower, ReadsIncrementally) {
  est::Spec spec = make_spec();
  const std::string path =
      testing_support::private_temp_path("tango_follow_test", ".tr");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "in P.m\n";
  }
  FileFollower follower(spec, path);
  Trace t(static_cast<int>(spec.ips.size()));
  EXPECT_TRUE(follower.poll(t));
  EXPECT_EQ(t.events().size(), 1u);
  EXPECT_FALSE(follower.poll(t));
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "out P.r(1)\nin P.";  // second line incomplete
  }
  EXPECT_TRUE(follower.poll(t));
  EXPECT_EQ(t.events().size(), 2u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "m\neof\n";  // completes the carried line, then eof
  }
  EXPECT_TRUE(follower.poll(t));
  EXPECT_EQ(t.events().size(), 3u);
  // eof arrives on a later poll because the parser stops at the marker.
  if (!t.eof()) follower.poll(t);
  EXPECT_TRUE(t.eof());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tango::tr
