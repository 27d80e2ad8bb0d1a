// Unit tests for the checkpointers' commit point: a trail log only reaches
// back to the oldest live mark. With no mark live the trail mode logs
// nothing, forgetting the last mark drops both logs, and logging resumes
// at the next save — restore still lands exactly on the saved state.
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

namespace tango::core {
namespace {

SearchState small_state() {
  SearchState st;
  st.machine.fsm_state = 1;
  st.cursors = CursorSet(1);
  return st;
}

/// One logged mutation of each log: the FSM ordinal and an input cursor.
void mutate_logged(Checkpointer& ckpt, SearchState& st, int fsm) {
  ASSERT_NE(ckpt.trail(), nullptr);
  ckpt.trail()->log_fsm(st.machine.fsm_state);
  st.machine.fsm_state = fsm;
  ckpt.log_cursor_advance(tr::Dir::In, 0);
  st.cursors.advance(tr::Dir::In, 0);
}

TEST(TrailCheckpointer, NoLiveMarkLogsNothing) {
  Stats stats;
  SearchState st = small_state();
  {
    TrailCheckpointer ckpt(stats);
    EXPECT_EQ(ckpt.trail(), nullptr);
    ckpt.log_cursor_advance(tr::Dir::In, 0);
    st.cursors.advance(tr::Dir::In, 0);
    EXPECT_EQ(ckpt.live_bytes(), 0u);

    // A later mark must not rewind the unlogged advance.
    const std::size_t mark = ckpt.save(st);
    ckpt.restore(mark, st);
    EXPECT_EQ(st.cursors.cursor(tr::Dir::In, 0), 1u);
    ckpt.forget(mark);
  }
  EXPECT_EQ(stats.trail_entries, 0u);
}

TEST(TrailCheckpointer, ForgettingTheLastMarkEmptiesBothLogs) {
  Stats stats;
  SearchState st = small_state();
  TrailCheckpointer ckpt(stats);
  const std::size_t outer = ckpt.save(st);
  mutate_logged(ckpt, st, 2);
  const std::uint64_t outer_bytes = ckpt.live_bytes();
  EXPECT_GT(outer_bytes, 0u);

  // Forgetting a mark while an older one is live keeps its entries: the
  // older mark's restore still rewinds them.
  const std::size_t inner = ckpt.save(st);
  mutate_logged(ckpt, st, 3);
  ckpt.forget(inner);
  EXPECT_GT(ckpt.live_bytes(), outer_bytes);
  ckpt.restore(outer, st);
  EXPECT_EQ(st.machine.fsm_state, 1);
  EXPECT_EQ(st.cursors.cursor(tr::Dir::In, 0), 0u);
  EXPECT_EQ(ckpt.live_bytes(), 0u);

  mutate_logged(ckpt, st, 4);
  EXPECT_GT(ckpt.live_bytes(), 0u);
  ckpt.forget(outer);
  EXPECT_EQ(ckpt.live_bytes(), 0u);
  EXPECT_EQ(ckpt.trail(), nullptr);
}

TEST(TrailCheckpointer, LoggingResumesAtTheNextSave) {
  Stats stats;
  SearchState st = small_state();
  {
    TrailCheckpointer ckpt(stats);
    const std::size_t first = ckpt.save(st);
    mutate_logged(ckpt, st, 2);  // 2 entries
    ckpt.forget(first);

    // Committed and unlogged: the state moves on with no mark live.
    st.machine.fsm_state = 5;
    ckpt.log_cursor_advance(tr::Dir::In, 0);
    st.cursors.advance(tr::Dir::In, 0);

    const std::size_t second = ckpt.save(st);
    mutate_logged(ckpt, st, 6);  // 2 entries
    ckpt.restore(second, st);
    EXPECT_EQ(st.machine.fsm_state, 5);
    EXPECT_EQ(st.cursors.cursor(tr::Dir::In, 0), 2u);
    ckpt.forget(second);
  }
  EXPECT_EQ(stats.trail_entries, 4u);
}

TEST(CopyCheckpointer, LiveBytesTrackLiveSnapshots) {
  Stats stats;
  SearchState st = small_state();
  CopyCheckpointer ckpt(stats);
  EXPECT_EQ(ckpt.trail(), nullptr);
  const std::size_t outer = ckpt.save(st);
  const std::uint64_t one = ckpt.live_bytes();
  EXPECT_GT(one, 0u);
  const std::size_t inner = ckpt.save(st);
  EXPECT_EQ(ckpt.live_bytes(), 2 * one);
  ckpt.forget(inner);
  EXPECT_EQ(ckpt.live_bytes(), one);
  ckpt.forget(outer);
  EXPECT_EQ(ckpt.live_bytes(), 0u);
  // The cost ledger is cumulative; only the live charge falls.
  EXPECT_EQ(stats.checkpoint_bytes, 2 * one);
}

}  // namespace
}  // namespace tango::core
