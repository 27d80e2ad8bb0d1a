#include "runtime/trail.hpp"

#include <cassert>
#include <limits>

#include "runtime/heap.hpp"

namespace tango::rt {

void Trail::log_fsm(int old_state) {
  // -1 before the initialize transition; undo casts it back.
  push(Kind::Fsm).index = static_cast<std::uint32_t>(old_state);
}

void Trail::log_write(Root root, std::uint32_t index,
                      std::span<const std::uint32_t> path,
                      const Value& old_value, CompCache prior) {
  assert(path.size() <= std::numeric_limits<std::uint16_t>::max());
  Entry& e = push(Kind::Write);
  e.root = root;
  e.path_len = static_cast<std::uint16_t>(path.size());
  e.index = index;
  e.old = old_value;
  e.cache = prior;
  path_.insert(path_.end(), path.begin(), path.end());
}

void Trail::log_heap_alloc(std::uint32_t addr, CompCache prior) {
  Entry& e = push(Kind::HeapAlloc);
  e.index = addr;
  e.cache = prior;
}

void Trail::log_heap_release(std::uint32_t addr, Value old_value,
                             CompCache prior) {
  Entry& e = push(Kind::HeapRelease);
  e.index = addr;
  e.old = std::move(old_value);
  e.cache = prior;
}

void Trail::undo_to(Mark m, MachineState& state) {
  affinity_.bind_or_check();
  // Each revert reinstates the hash-cache entry its mutation clobbered;
  // undone newest-first, the oldest entry's snapshot lands last, which is
  // exactly the cache as of the mark — restore stays hash-free.
  while (entries_.size() > m) {
    Entry& e = entries_.back();
    switch (e.kind) {
      case Kind::Fsm:
        state.fsm_state = static_cast<int>(e.index);
        break;
      case Kind::Write: {
        const bool var = e.root == Root::Var;
        Value* node = var ? &state.vars[e.index] : state.heap.cell(e.index);
        // The root must be live: an alloc/release of the same address
        // logged *after* this write has already been undone.
        assert(node != nullptr && "trail write entry on a dead heap cell");
        const std::size_t first = path_.size() - e.path_len;
        for (std::size_t i = first; i < path_.size(); ++i) {
          // A non-aggregate on the path means a write the trail never saw
          // replaced an ancestor after this entry: an assignment through a
          // var parameter, whose binding logged that ancestor in an older
          // entry. Undoing that entry restores the whole subtree, this
          // write included, so there is nothing to do here.
          if (node->is_scalar()) {
            node = nullptr;
            break;
          }
          node = &node->elems()[path_[i]];
        }
        if (node != nullptr) *node = std::move(e.old);
        path_.resize(first);
        if (var) {
          state.restore_var_cache(static_cast<int>(e.index), e.cache);
        } else {
          state.restore_heap_cache(e.cache);
        }
        break;
      }
      case Kind::HeapAlloc:
        state.heap.revert_allocate(e.index);
        state.restore_heap_cache(e.cache);
        break;
      case Kind::HeapRelease:
        state.heap.revert_release(e.index, std::move(e.old));
        state.restore_heap_cache(e.cache);
        break;
    }
    entries_.pop_back();
  }
}

}  // namespace tango::rt
