#include "runtime/interp.hpp"

#include <span>
#include <type_traits>
#include <utility>

namespace tango::rt {

namespace {

using est::BinOp;
using est::Builtin;
using est::Expr;
using est::ExprKind;
using est::NameRef;
using est::Stmt;
using est::StmtKind;
using est::Type;
using est::TypeKind;
using est::UnOp;

/// Thrown only when the sink vetoes an output inside a function called
/// from an expression, which has no status to return through. A veto at
/// statement level returns false from Exec::exec instead (no exception).
struct PathAbort {};

/// What Exec::place resolves to: a location to write, or storage to read.
template <bool Write>
using PlacePtr = std::conditional_t<Write, Value*, const Value*>;

/// True if evaluating `e` may call a user routine, which can reassign any
/// variable or dispose any cell.
bool calls_routine(const Expr& e) {
  if (e.kind == ExprKind::Call && e.builtin == Builtin::None) return true;
  if (e.kind == ExprKind::Name && e.ref == NameRef::Call0) return true;
  for (const est::ExprPtr& c : e.children) {
    if (calls_routine(*c)) return true;
  }
  return false;
}

/// The locals of a transition block, initializer or routine call. The
/// n-th live frame uses the Interp's n-th slot buffer, not a vector of its
/// own; frames nest (RAII), so buffers are taken and given back LIFO. A
/// function called while a callee's arguments are being bound is live
/// alongside that callee, so the index is the live count, not the call
/// depth. The buffer is cleared on exit: locals still die at return.
class Frame {
 public:
  Frame(detail::ExecStorage& st, int size) : st_(st), slots_(buffer(st)) {
    slots_.resize(static_cast<std::size_t>(size));  // may throw: not live yet
    ++st_.live_frames;
  }
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;
  ~Frame() {
    slots_.clear();
    --st_.live_frames;
  }

  detail::FrameSlot& slot(int i) {
    return slots_[static_cast<std::size_t>(i)];
  }
  Value& slot_value(int i) {
    detail::FrameSlot& s = slot(i);
    return s.ref != nullptr ? *s.ref : s.v;
  }

  const std::vector<Value>* when_params = nullptr;

 private:
  static std::vector<detail::FrameSlot>& buffer(detail::ExecStorage& st) {
    if (st.live_frames == st.frames.size()) st.frames.emplace_back();
    return st.frames[st.live_frames];
  }

  detail::ExecStorage& st_;
  std::vector<detail::FrameSlot>& slots_;
};

class Exec {
 public:
  Exec(const est::Spec& spec, MachineState& m, EvalMode mode,
       const InterpLimits& limits, detail::ExecStorage& storage,
       OutputSink* sink, bool read_only, Trail* trail = nullptr)
      : spec_(spec),
        m_(m),
        mode_(mode),
        limits_(limits),
        storage_(storage),
        sink_(sink),
        read_only_(read_only),
        trail_(trail),
        budget_(limits.max_statements) {}

  void init_locals(Frame& f, const std::vector<est::VarDecl>& decls) {
    for (const est::VarDecl& d : decls) {
      for (std::size_t i = 0; i < d.names.size(); ++i) {
        f.slot(d.first_slot + static_cast<int>(i)).v =
            default_value(d.type->resolved);
      }
    }
  }

  // -----------------------------------------------------------------
  // Statements
  // -----------------------------------------------------------------

  /// Runs `s`. Returns false as soon as the sink vetoes an output: every
  /// enclosing statement stops at that point and returns false too, up to
  /// fire()/run_initializer(), so nothing after the output runs.
  [[nodiscard]] bool exec(const Stmt& s, Frame& f) {
    if (budget_ == 0) {
      throw RuntimeFault(s.loc,
                         "statement budget exceeded: possible infinite loop "
                         "in a transition block (non-progress within update)");
    }
    --budget_;
    switch (s.kind) {
      case StmtKind::Empty:
        return true;
      case StmtKind::Compound:
        return exec_all(s.body, f);
      case StmtKind::Assign: {
        Value v = eval(*s.e1, f);
        Value* dst = lvalue(*s.e0, f);
        range_check(s.e0->type, v, s.loc);
        *dst = std::move(v);
        return true;
      }
      case StmtKind::If:
        if (need_bool(eval(*s.e0, f), s.e0->loc)) return exec(*s.s0, f);
        return !s.s1 || exec(*s.s1, f);
      case StmtKind::While:
        while (need_bool(eval(*s.e0, f), s.e0->loc)) {
          if (budget_ == 0) {
            throw RuntimeFault(s.loc, "statement budget exceeded in while");
          }
          --budget_;
          if (!exec(*s.s0, f)) return false;
        }
        return true;
      case StmtKind::Repeat:
        do {
          if (!exec_all(s.body, f)) return false;
          if (budget_ == 0) {
            throw RuntimeFault(s.loc, "statement budget exceeded in repeat");
          }
          --budget_;
        } while (!need_bool(eval(*s.e0, f), s.e0->loc));
        return true;
      case StmtKind::For: {
        const std::int64_t from = need_scalar(eval(*s.e1, f), s.e1->loc);
        const std::int64_t to = need_scalar(eval(*s.args[0], f),
                                            s.args[0]->loc);
        Value* var = lvalue(*s.e0, f);
        if (s.downto) {
          for (std::int64_t i = from; i >= to; --i) {
            *var = Value::make_int(i);
            if (!exec(*s.s0, f)) return false;
          }
        } else {
          for (std::int64_t i = from; i <= to; ++i) {
            *var = Value::make_int(i);
            if (!exec(*s.s0, f)) return false;
          }
        }
        return true;
      }
      case StmtKind::Case: {
        const std::int64_t sel = need_scalar(eval(*s.e0, f), s.e0->loc);
        for (const est::CaseArm& arm : s.arms) {
          for (std::int64_t label : arm.label_values) {
            if (label == sel) return exec(*arm.body, f);
          }
        }
        if (s.has_otherwise) return exec_all(s.otherwise, f);
        throw RuntimeFault(s.loc, "case selector matches no label");
      }
      case StmtKind::Call:
        return exec_call(s, f);
      case StmtKind::Output:
        return exec_output(s, f);
    }
    return true;
  }

  // -----------------------------------------------------------------
  // Expressions
  // -----------------------------------------------------------------
  Value eval(const Expr& e, Frame& f) {
    switch (e.kind) {
      case ExprKind::IntLit:
        return Value::make_int(e.int_value);
      case ExprKind::BoolLit:
        return Value::make_bool(e.int_value != 0);
      case ExprKind::CharLit:
        return Value::make_char(static_cast<char>(e.int_value));
      case ExprKind::NilLit:
        return Value::nil();
      case ExprKind::Name:
      case ExprKind::Field:
      case ExprKind::Index:
      case ExprKind::Deref: {
        // Descend in place; copy only the leaf.
        Value tmp;
        const Value* v = place<false>(e, f, tmp);
        return v == &tmp ? std::move(tmp) : *v;
      }
      case ExprKind::Unary: {
        Value v = eval(*e.children[0], f);
        switch (e.un_op) {
          case UnOp::Plus:
            return v;
          case UnOp::Neg:
            if (v.is_undefined()) return undef_or_fault(e.loc);
            return Value::make_int(-v.scalar());
          case UnOp::Not:
            if (v.is_undefined()) return undef_or_fault(e.loc);
            return Value::make_bool(!v.as_bool());
        }
        break;
      }
      case ExprKind::Binary:
        return eval_binary(e, f);
      case ExprKind::Call:
        return eval_call(e, f);
    }
    throw RuntimeFault(e.loc, "internal: unhandled expression");
  }

  Value* lvalue(const Expr& e, Frame& f) {
    Value unused;
    return place<true>(e, f, unused);
  }

 private:
  /// The one descent for Name, Field, Index and Deref, shared by reads and
  /// writes. Read mode resolves to the storage a value lives in (module
  /// variable, frame slot, when-parameter or heap cell), so a read copies
  /// only its leaf; a value that lives nowhere (a constant, a function
  /// result) is materialised in `tmp`, and an undefined aggregate in
  /// partial mode resolves to `undefined_`. Write mode resolves an
  /// assignable location, logging its root for the trail first, and faults
  /// on every undefined aggregate.
  template <bool Write>
  PlacePtr<Write> place(const Expr& e, Frame& f, Value& tmp) {
    switch (e.kind) {
      case ExprKind::Name:
        switch (e.ref) {
          case NameRef::ModuleVar: {
            Value* root = &m_.vars[static_cast<std::size_t>(e.slot)];
            if constexpr (Write) {
              check_writable(e.loc, "module variable");
              // Log the whole root slot: a field/index lvalue resolves
              // through here first, and a slot index stays valid however
              // the value is later reassigned (interior pointers would
              // not).
              if (trail_ != nullptr) {
                trail_->log_var(e.slot, *root, m_.var_cache_entry(e.slot));
              }
              m_.note_var_write(e.slot);
            }
            return root;
          }
          case NameRef::Local:
            return &f.slot_value(e.slot);
          case NameRef::WhenParam:
            if constexpr (!Write) {
              if (f.when_params == nullptr) {
                throw RuntimeFault(e.loc, "internal: when-parameter outside "
                                          "transition scope");
              }
              return &(*f.when_params)[static_cast<std::size_t>(e.slot)];
            }
            break;
          default:
            break;
        }
        if constexpr (Write) {
          throw RuntimeFault(e.loc, "'" + e.name + "' is not assignable");
        } else {
          tmp = eval_name(e, f);
          return &tmp;
        }
      case ExprKind::Field: {
        PlacePtr<Write> base = place<Write>(*e.children[0], f, tmp);
        if (base->is_undefined()) {
          if constexpr (!Write) {
            if (mode_ == EvalMode::Partial) return &undefined_;
          }
          throw RuntimeFault(e.loc, "field access on undefined record");
        }
        return &base->elems().at(static_cast<std::size_t>(e.field_index));
      }
      case ExprKind::Index: {
        const Expr& base_expr = *e.children[0];
        const Expr& sub = *e.children[1];
        // A subscript that calls a routine may reassign the array an
        // interior pointer points into, or dispose its cell. Reads then
        // keep copy semantics by indexing a snapshot of the base taken
        // before the call; writes evaluate such a subscript before
        // descending a base that is not a root variable (a root's slot
        // outlives any reassignment).
        const bool calls = calls_routine(sub);
        PlacePtr<Write> base = nullptr;
        std::int64_t ix = 0;
        if (Write && calls && base_expr.kind != ExprKind::Name) {
          ix = need_scalar(eval(sub, f), sub.loc);
          base = place<Write>(base_expr, f, tmp);
        } else {
          base = place<Write>(base_expr, f, tmp);
          if constexpr (!Write) {
            if (calls) {
              Value snapshot = *base;  // `base` may point into `tmp`
              tmp = std::move(snapshot);
              base = &tmp;
            }
          }
          ix = need_scalar(eval(sub, f), sub.loc);
        }
        const Type* at = base_expr.type;
        if (ix < at->lo || ix > at->hi) {
          throw RuntimeFault(e.loc, "array index " + std::to_string(ix) +
                                        " out of bounds " +
                                        std::to_string(at->lo) + ".." +
                                        std::to_string(at->hi));
        }
        if (base->is_undefined()) {
          if constexpr (!Write) {
            if (mode_ == EvalMode::Partial) return &undefined_;
          }
          throw RuntimeFault(e.loc, "indexing an undefined array");
        }
        return &base->elems().at(static_cast<std::size_t>(ix - at->lo));
      }
      case ExprKind::Deref: {
        if constexpr (Write) check_writable(e.loc, "dynamic memory");
        const Value p = eval(*e.children[0], f);
        if (p.is_undefined()) {
          if constexpr (!Write) {
            if (mode_ == EvalMode::Partial) return &undefined_;
          }
          throw RuntimeFault(e.loc, "dereference of undefined pointer");
        }
        if constexpr (Write) {
          // Capture the cache entry before the lookup: the non-const cell
          // lookup bumps the heap epoch for the write about to happen.
          const CompCache heap_prior = m_.heap_cache_entry();
          Value* c = cell<true>(p, e.loc);
          if (trail_ != nullptr) {
            trail_->log_heap_write(p.address(), *c, heap_prior);
          }
          return c;
        } else {
          return cell<false>(p, e.loc);
        }
      }
      default:
        if constexpr (Write) {
          throw RuntimeFault(e.loc, "expression is not assignable");
        } else {
          tmp = eval(e, f);
          return &tmp;
        }
    }
  }

  Value undef_or_fault(SourceLoc loc) {
    if (mode_ == EvalMode::Partial) return Value{};
    throw RuntimeFault(loc, "use of an undefined value (strict mode)");
  }

  /// Extracts a defined scalar payload; undefined faults in BOTH modes —
  /// callers are the contexts where the paper says partial analysis cannot
  /// proceed (branch conditions, array indexes, loop bounds; §5.3–§5.4).
  std::int64_t need_scalar(const Value& v, SourceLoc loc) {
    if (v.is_undefined()) {
      if (mode_ == EvalMode::Partial) {
        throw RuntimeFault(
            loc,
            "an undefined value controls a branch, loop or index; apply the "
            "normal-form transformation first (paper §5.3)");
      }
      throw RuntimeFault(loc, "use of an undefined value (strict mode)");
    }
    return v.scalar();
  }

  bool need_bool(const Value& v, SourceLoc loc) {
    return need_scalar(v, loc) != 0;
  }

  /// The heap cell `p` points to. A write lookup counts as a heap
  /// mutation (it bumps the epoch); a read goes through the const lookup so
  /// that evaluating `p^` does not dirty the incremental hash's heap
  /// component.
  template <bool Write>
  PlacePtr<Write> cell(const Value& p, SourceLoc loc) {
    if (p.address() == 0) {
      throw RuntimeFault(loc, "nil pointer dereference");
    }
    using HeapRef = std::conditional_t<Write, Heap&, const Heap&>;
    HeapRef heap = m_.heap;
    PlacePtr<Write> c = heap.cell(p.address());
    if (c == nullptr) {
      throw RuntimeFault(loc, "dangling pointer (cell was disposed)");
    }
    return c;
  }

  void check_writable(SourceLoc loc, const char* what) {
    if (read_only_) {
      throw RuntimeFault(loc, std::string("provided clauses must be "
                                          "side-effect free: attempted to "
                                          "modify ") +
                                  what);
    }
  }

  void range_check(const Type* target, const Value& v, SourceLoc loc) {
    if (target != nullptr && target->kind == TypeKind::Subrange &&
        !v.is_undefined() && (v.scalar() < target->lo ||
                              v.scalar() > target->hi)) {
      throw RuntimeFault(loc, "value " + std::to_string(v.scalar()) +
                                  " outside subrange " +
                                  std::to_string(target->lo) + ".." +
                                  std::to_string(target->hi));
    }
  }

  /// Value of a name that denotes no storage (place() resolves the rest):
  /// a constant or a call of a parameterless function.
  Value eval_name(const Expr& e, Frame& f) {
    switch (e.ref) {
      case NameRef::ConstInt:
        return Value::make_int(e.int_value);
      case NameRef::ConstBool:
        return Value::make_bool(e.int_value != 0);
      case NameRef::ConstChar:
        return Value::make_char(static_cast<char>(e.int_value));
      case NameRef::EnumConst:
        return Value::make_enum(e.type, e.int_value);
      case NameRef::Call0:
        return call_function(routine(e.slot), {}, f, e.loc);
      case NameRef::ModuleVar:
      case NameRef::Local:
      case NameRef::WhenParam:
      case NameRef::Unresolved:
        break;
    }
    throw RuntimeFault(e.loc, "internal: unresolved name '" + e.name + "'");
  }

  Value eval_binary(const Expr& e, Frame& f) {
    Value a = eval(*e.children[0], f);

    // Kleene three-valued logic for and/or so that partial mode gets the
    // paper's "assume true" behaviour without losing definite answers.
    if (e.bin_op == BinOp::And || e.bin_op == BinOp::Or) {
      Value b = eval(*e.children[1], f);
      const bool is_or = e.bin_op == BinOp::Or;
      if (!a.is_undefined() && a.as_bool() == is_or) {
        return Value::make_bool(is_or);
      }
      if (!b.is_undefined() && b.as_bool() == is_or) {
        return Value::make_bool(is_or);
      }
      if (a.is_undefined() || b.is_undefined()) return undef_or_fault(e.loc);
      return Value::make_bool(is_or ? (a.as_bool() || b.as_bool())
                                    : (a.as_bool() && b.as_bool()));
    }

    Value b = eval(*e.children[1], f);
    if (a.is_undefined() || b.is_undefined()) return undef_or_fault(e.loc);

    const std::int64_t x = a.scalar();
    const std::int64_t y = b.scalar();
    switch (e.bin_op) {
      case BinOp::Add: return Value::make_int(x + y);
      case BinOp::Sub: return Value::make_int(x - y);
      case BinOp::Mul: return Value::make_int(x * y);
      case BinOp::IntDiv:
        if (y == 0) throw RuntimeFault(e.loc, "division by zero");
        return Value::make_int(x / y);
      case BinOp::Mod:
        if (y == 0) throw RuntimeFault(e.loc, "mod by zero");
        return Value::make_int(((x % y) + y) % y);
      case BinOp::Eq: return Value::make_bool(x == y);
      case BinOp::Neq: return Value::make_bool(x != y);
      case BinOp::Lt: return Value::make_bool(x < y);
      case BinOp::Leq: return Value::make_bool(x <= y);
      case BinOp::Gt: return Value::make_bool(x > y);
      case BinOp::Geq: return Value::make_bool(x >= y);
      case BinOp::And:
      case BinOp::Or:
        break;  // handled above
    }
    throw RuntimeFault(e.loc, "internal: unhandled operator");
  }

  Value eval_call(const Expr& e, Frame& f) {
    if (e.builtin != Builtin::None) {
      Value v = eval(*e.children[0], f);
      if (v.is_undefined()) return undef_or_fault(e.loc);
      switch (e.builtin) {
        case Builtin::Ord: return Value::make_int(v.scalar());
        case Builtin::Chr:
          return Value::make_char(static_cast<char>(v.scalar()));
        case Builtin::Abs:
          return Value::make_int(v.scalar() < 0 ? -v.scalar() : v.scalar());
        case Builtin::Odd:
          return Value::make_bool((v.scalar() & 1) != 0);
        case Builtin::Succ:
        case Builtin::Pred: {
          const std::int64_t d = e.builtin == Builtin::Succ ? 1 : -1;
          const std::int64_t nv = v.scalar() + d;
          if (v.kind() == Value::Kind::Enum) {
            const auto limit = static_cast<std::int64_t>(
                v.enum_type()->enum_values.size());
            if (nv < 0 || nv >= limit) {
              throw RuntimeFault(e.loc, "succ/pred out of enum range");
            }
            return Value::make_enum(v.enum_type(), nv);
          }
          if (v.kind() == Value::Kind::Char) {
            return Value::make_char(static_cast<char>(nv));
          }
          if (v.kind() == Value::Kind::Bool) {
            if (nv < 0 || nv > 1) {
              throw RuntimeFault(e.loc, "succ/pred out of boolean range");
            }
            return Value::make_bool(nv != 0);
          }
          return Value::make_int(nv);
        }
        default:
          throw RuntimeFault(e.loc, "internal: bad builtin in expression");
      }
    }
    return call_function(routine(e.routine_index), e.children, f, e.loc);
  }

  const est::Routine& routine(int index) const {
    return spec_.body().routines[static_cast<std::size_t>(index)];
  }

  /// Binds `args` into `f`, a fresh frame for `r`, and runs the body.
  /// Returns false when an output in the body was vetoed. An argument may
  /// call a function, whose frame is then live above `f`.
  [[nodiscard]] bool run_routine(const est::Routine& r,
                                 const std::vector<est::ExprPtr>& args,
                                 Frame& caller, SourceLoc loc, Frame& f) {
    if (depth_ >= limits_.max_call_depth) {
      throw RuntimeFault(loc, "call depth limit exceeded (runaway recursion "
                              "in '" + r.name + "')");
    }
    for (std::size_t i = 0; i < args.size(); ++i) {
      detail::FrameSlot& slot = f.slot(static_cast<int>(i));
      if (r.param_by_ref[i]) {
        slot.ref = lvalue(*args[i], caller);
      } else {
        slot.v = eval(*args[i], caller);
        range_check(r.param_types[i], slot.v, args[i]->loc);
      }
    }
    init_locals(f, r.locals);
    ++depth_;
    const bool ok = exec(*r.body, f);
    --depth_;
    return ok;
  }

  /// A function called from an expression. An expression has no status to
  /// return, so a veto inside the body unwinds the firing with PathAbort
  /// (sema accepts outputs in functions; no built-in spec has one).
  Value call_function(const est::Routine& r,
                      const std::vector<est::ExprPtr>& args, Frame& caller,
                      SourceLoc loc) {
    Frame f(storage_, r.frame_size);
    if (!run_routine(r, args, caller, loc, f)) throw PathAbort{};
    return std::move(f.slot(r.result_slot).v);
  }

  [[nodiscard]] bool exec_all(const std::vector<est::StmtPtr>& body,
                              Frame& f) {
    for (const est::StmtPtr& c : body) {
      if (!exec(*c, f)) return false;
    }
    return true;
  }

  [[nodiscard]] bool exec_call(const Stmt& s, Frame& f) {
    if (s.builtin == Builtin::New) {
      check_writable(s.loc, "dynamic memory");
      Value* p = lvalue(*s.args[0], f);
      const Type* pt = s.args[0]->type;  // pointer type
      const CompCache heap_prior = m_.heap_cache_entry();  // pre-alloc
      const std::uint32_t addr = m_.heap.allocate(default_value(pt->pointee));
      if (trail_ != nullptr) trail_->log_heap_alloc(addr, heap_prior);
      *p = Value::make_pointer(addr);
      return true;
    }
    if (s.builtin == Builtin::Dispose) {
      check_writable(s.loc, "dynamic memory");
      Value* p = lvalue(*s.args[0], f);
      if (p->is_undefined()) {
        throw RuntimeFault(s.loc, "dispose of an undefined pointer");
      }
      if (p->address() == 0) {
        throw RuntimeFault(s.loc, "dispose of nil");
      }
      const std::uint32_t addr = p->address();
      const CompCache heap_prior = m_.heap_cache_entry();  // pre-release
      Value* cell = m_.heap.cell(addr);
      if (cell == nullptr) {
        // The analyzer surfaces this fault as an Invalid verdict with the
        // note attached — a spec bug in the dynamic-memory discipline, not
        // a mismatch between trace and behaviour.
        throw RuntimeFault(s.loc,
                           "double dispose: cell ^" + std::to_string(addr) +
                               " was already released (dispose of a dangling "
                               "pointer)");
      }
      if (trail_ != nullptr) {
        trail_->log_heap_release(addr, std::move(*cell), heap_prior);
      }
      m_.heap.release(addr);
      *p = Value{};  // Pascal leaves the pointer undefined
      return true;
    }
    const est::Routine& r = routine(s.routine_index);
    Frame callee(storage_, r.frame_size);
    return run_routine(r, s.args, f, s.loc, callee);
  }

  /// False when the sink vetoes the output. The arguments are evaluated
  /// onto the Interp's argument stack above its size at entry; an output
  /// in a function an argument calls stacks above them and pops before
  /// this output's span is taken.
  [[nodiscard]] bool exec_output(const Stmt& s, Frame& f) {
    if (read_only_ || sink_ == nullptr) {
      throw RuntimeFault(s.loc,
                         "output statement not allowed in this context");
    }
    std::vector<Value>& stack = storage_.out_args;
    // Pops this output's arguments on every exit, a throw included.
    struct Pop {
      std::vector<Value>& stack;
      std::size_t base;
      ~Pop() { stack.resize(base); }
    } pop{stack, stack.size()};
    for (const est::ExprPtr& a : s.args) {
      Value v = eval(*a, f);
      stack.push_back(std::move(v));
    }
    return sink_->on_output(s.ip_index, s.interaction_id,
                            std::span<const Value>(stack).subspan(pop.base),
                            s.loc);
  }

  const est::Spec& spec_;
  MachineState& m_;
  EvalMode mode_;
  const InterpLimits& limits_;
  detail::ExecStorage& storage_;
  OutputSink* sink_;
  bool read_only_;
  Trail* trail_;
  std::uint64_t budget_;
  int depth_ = 0;
  const Value undefined_;  // what a partial-mode read of an undefined
                           // record, array or pointer resolves to
};

}  // namespace

Interp::Interp(const est::Spec& spec, EvalMode mode, InterpLimits limits)
    : spec_(spec), mode_(mode), limits_(limits) {}

bool Interp::run_initializer(MachineState& m, const est::Initializer& init,
                             OutputSink& sink, Trail* trail) {
  Exec exec(spec_, m, mode_, limits_, storage_, &sink, /*read_only=*/false,
            trail);
  Frame f(storage_, init.frame_size);
  exec.init_locals(f, init.locals);
  try {
    if (init.block && !exec.exec(*init.block, f)) return false;
  } catch (const PathAbort&) {
    return false;
  }
  if (trail != nullptr) trail->log_fsm(m.fsm_state);
  m.fsm_state = init.to_ordinal;
  return true;
}

bool Interp::fire(MachineState& m, const est::Transition& tr,
                  const std::vector<Value>& when_args, OutputSink& sink,
                  Trail* trail) {
  Exec exec(spec_, m, mode_, limits_, storage_, &sink, /*read_only=*/false,
            trail);
  Frame f(storage_, tr.frame_size);
  f.when_params = &when_args;
  exec.init_locals(f, tr.locals);
  try {
    if (!exec.exec(*tr.block, f)) return false;
  } catch (const PathAbort&) {
    return false;
  }
  if (tr.to_ordinal >= 0) {
    if (trail != nullptr) trail->log_fsm(m.fsm_state);
    m.fsm_state = tr.to_ordinal;
  }
  return true;
}

bool Interp::provided_holds(MachineState& m, const est::Transition& tr,
                            const std::vector<Value>& when_args) {
  if (!tr.provided) return true;
  Exec exec(spec_, m, mode_, limits_, storage_, nullptr, /*read_only=*/true);
  Frame f(storage_, tr.frame_size);
  f.when_params = &when_args;
  Value v = exec.eval(*tr.provided, f);
  if (v.is_undefined()) {
    if (mode_ == EvalMode::Partial) return true;  // paper §5.1
    throw RuntimeFault(tr.provided->loc,
                       "provided clause evaluates to an undefined value "
                       "(strict mode)");
  }
  return v.as_bool();
}

bool Interp::provided_holds(MachineState& m, const est::Initializer& init) {
  if (!init.provided) return true;
  Exec exec(spec_, m, mode_, limits_, storage_, nullptr, /*read_only=*/true);
  Frame f(storage_, init.frame_size);
  Value v = exec.eval(*init.provided, f);
  if (v.is_undefined()) {
    if (mode_ == EvalMode::Partial) return true;
    throw RuntimeFault(init.provided->loc,
                       "initialize provided clause evaluates to an undefined "
                       "value (strict mode)");
  }
  return v.as_bool();
}

}  // namespace tango::rt
