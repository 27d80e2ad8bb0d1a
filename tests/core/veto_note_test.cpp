// VetoNote: the rule that picks the one note a search reports for an
// Invalid verdict, and its merge of per-task notes in lineage order.
#include "core/veto_note.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace tango::core {
namespace {

/// True if the note's kept text is parameter-class: a parameter note
/// offered now does not replace it.
bool kept_parameter_class(const VetoNote& note) {
  VetoNote probe = note;
  probe.offer("parameter probe", true);
  return !note.text().empty() && probe.text() == note.text();
}

TEST(VetoNote, FirstNoteIsKept) {
  VetoNote note;
  EXPECT_TRUE(note.text().empty());
  EXPECT_TRUE(note.wants(false));
  EXPECT_TRUE(note.wants(true));
  note.offer("output ordering: first", false);
  note.offer("IP relative order: second", false);
  EXPECT_EQ(note.text(), "output ordering: first");
  EXPECT_FALSE(kept_parameter_class(note));
  EXPECT_FALSE(note.wants(false));
}

TEST(VetoNote, EmptyTextIsIgnored) {
  VetoNote note;
  note.offer("", true);
  note.offer_fault("");
  EXPECT_TRUE(note.text().empty());
  note.offer("kept", false);
  note.offer("", true);
  EXPECT_EQ(note.text(), "kept");
}

TEST(VetoNote, ParameterNoteReplacesANonParameterNoteOnce) {
  VetoNote note;
  note.offer("produced 'a' at ip 'p' but the trace expects 'b'", false);
  EXPECT_TRUE(note.wants(true));
  note.offer("parameter 1 of 'a' is 2 but the trace has 3", true);
  EXPECT_EQ(note.text(), "parameter 1 of 'a' is 2 but the trace has 3");
  EXPECT_TRUE(kept_parameter_class(note));
  // Nothing replaces it afterwards.
  EXPECT_FALSE(note.wants(false));
  EXPECT_FALSE(note.wants(true));
  note.offer("output ordering: later", false);
  EXPECT_EQ(note.text(), "parameter 1 of 'a' is 2 but the trace has 3");
}

TEST(VetoNote, SecondParameterNoteDoesNotReplaceTheFirst) {
  VetoNote note;
  note.offer("parameter 1 of 'a' is 2 but the trace has 3", true);
  note.offer("parameter 2 of 'b' is 4 but the trace has 5", true);
  EXPECT_EQ(note.text(), "parameter 1 of 'a' is 2 but the trace has 3");

  VetoNote after_other;
  after_other.offer("IP relative order: first", false);
  after_other.offer("parameter 1 of 'a' is 2 but the trace has 3", true);
  after_other.offer("parameter 2 of 'b' is 4 but the trace has 5", true);
  EXPECT_EQ(after_other.text(),
            "parameter 1 of 'a' is 2 but the trace has 3");
}

TEST(VetoNote, FaultTextIsClassedByItsContent) {
  VetoNote note;
  note.offer("IP relative order: first", false);
  note.offer_fault("division by zero");
  EXPECT_EQ(note.text(), "IP relative order: first");
  note.offer_fault("output parameter 1 of 'r' is undefined (strict mode)");
  EXPECT_EQ(note.text(),
            "output parameter 1 of 'r' is undefined (strict mode)");
  EXPECT_TRUE(kept_parameter_class(note));

  VetoNote fault_first;
  fault_first.offer_fault("division by zero");
  EXPECT_FALSE(kept_parameter_class(fault_first));
  fault_first.offer("parameter 1 of 'a' is 2 but the trace has 3", true);
  EXPECT_TRUE(kept_parameter_class(fault_first));
}

/// One note of a sequence: its text and how it is offered.
struct Offer {
  std::string text;
  bool fault = false;            // offered with offer_fault
  bool parameter_class = false;  // for offer
};

void apply(VetoNote& note, const Offer& o) {
  if (o.fault) {
    note.offer_fault(o.text);
  } else {
    note.offer(o.text, o.parameter_class);
  }
}

TEST(VetoNote, MergeInLineageOrderEqualsOfferingOneByOne) {
  // Every sequence of up to five notes of four kinds, cut into contiguous
  // runs (the tasks, in lineage order) in every way: merging the runs'
  // notes keeps what offering the whole sequence one by one keeps.
  constexpr int kKinds = 4;
  constexpr int kMaxLen = 5;
  int checked = 0;
  for (int len = 0; len <= kMaxLen; ++len) {
    int sequences = 1;
    for (int i = 0; i < len; ++i) sequences *= kKinds;
    for (int code = 0; code < sequences; ++code) {
      std::vector<Offer> seq;
      for (int i = 0, c = code; i < len; ++i, c /= kKinds) {
        const std::string n = std::to_string(i);
        switch (c % kKinds) {
          case 0: seq.push_back({"ordering " + n, false, false}); break;
          case 1: seq.push_back({"parameter " + n, false, true}); break;
          case 2: seq.push_back({"fault " + n, true, false}); break;
          default: seq.push_back({"fault parameter " + n, true, false});
        }
      }
      VetoNote one_by_one;
      for (const Offer& o : seq) apply(one_by_one, o);

      const int cuts = len == 0 ? 1 : 1 << (len - 1);
      for (int cut = 0; cut < cuts; ++cut) {
        VetoNote merged;
        VetoNote run;
        for (int i = 0; i < len; ++i) {
          apply(run, seq[static_cast<std::size_t>(i)]);
          if (i == len - 1 || (cut >> i & 1) != 0) {
            merged.merge(run);
            run = VetoNote{};
          }
        }
        ASSERT_EQ(merged.text(), one_by_one.text()) << code << "/" << cut;
        ASSERT_EQ(kept_parameter_class(merged),
                  kept_parameter_class(one_by_one));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

}  // namespace
}  // namespace tango::core
