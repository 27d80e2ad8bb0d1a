#include "runtime/interp.hpp"

#include <dlfcn.h>
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <span>

#include "estelle/spec.hpp"

namespace {
std::atomic<long> g_exceptions{0};
}  // namespace

// Counts the C++ exceptions this process throws, so the veto tests can
// check that a statement-level veto unwinds without one: every throw
// allocates its exception object through this C++ ABI entry point. The
// definition interposes on the runtime library's and forwards to it.
extern "C" void* __cxa_allocate_exception(std::size_t size) noexcept {
  using Alloc = void* (*)(std::size_t) noexcept;
  static const auto next =
      reinterpret_cast<Alloc>(dlsym(RTLD_NEXT, "__cxa_allocate_exception"));
  g_exceptions.fetch_add(1, std::memory_order_relaxed);
  return next(size);
}

namespace tango::rt {
namespace {

/// Exceptions thrown (caught or not) while `fn` runs.
template <typename Fn>
long exceptions_during(Fn&& fn) {
  const long before = g_exceptions.load();
  fn();
  return g_exceptions.load() - before;
}

struct Fired {
  int ip;
  int id;
  std::vector<Value> params;
};

class CollectSink final : public OutputSink {
 public:
  bool on_output(int ip, int id, std::span<const Value> params,
                 SourceLoc) override {
    fired.push_back(Fired{ip, id, {params.begin(), params.end()}});
    return true;
  }
  std::vector<Fired> fired;
};

/// Compiles a body around the shared header, runs the initializer and then
/// fires the transition named `t` once per element of `inputs`.
struct Harness {
  explicit Harness(std::string_view body_src,
                   EvalMode mode = EvalMode::Strict,
                   std::string_view inputs = "go; d(v: integer);",
                   std::string_view outputs = "r(v: integer);")
      : spec(est::compile_spec(
            "specification s;\n"
            "channel CH(A, B);\n"
            "  by A: " + std::string(inputs) + "\n"
            "  by B: " + std::string(outputs) + "\n"
            "module M systemprocess; ip P: CH(B); end;\n"
            "body MB for M;\n" +
            std::string(body_src) + "\nend;\nend.\n")),
        interp(spec, mode),
        machine(make_initial_machine(spec)) {
    EXPECT_TRUE(
        interp.run_initializer(machine, spec.body().initializers[0], sink));
  }

  const est::Transition& transition(std::string_view name) {
    for (const est::Transition& t : spec.body().transitions) {
      if (t.name == name) return t;
    }
    throw std::runtime_error("no transition " + std::string(name));
  }

  bool fire(std::string_view name, std::vector<Value> when_args = {}) {
    return interp.fire(machine, transition(name), when_args, sink);
  }

  const Value& var(std::string_view name) {
    for (std::size_t i = 0; i < spec.module_vars.size(); ++i) {
      if (spec.module_vars[i].name == name) return machine.vars[i];
    }
    throw std::runtime_error("no var " + std::string(name));
  }

  est::Spec spec;
  Interp interp;
  MachineState machine;
  CollectSink sink;
};

TEST(Interp, InitializerSetsStateAndVars) {
  Harness h(R"(
    var x: integer;
    state a, b;
    initialize to b begin x := 41; end;
)");
  EXPECT_EQ(h.machine.fsm_state, 1);
  EXPECT_EQ(h.var("x").scalar(), 41);
}

TEST(Interp, ArithmeticAndComparison) {
  Harness h(R"(
    var x, y: integer; t: boolean;
    state z;
    initialize to z begin
      x := (3 + 4) * 2 - 5;   { 9 }
      y := x div 2 + x mod 2; { 4 + 1 }
      t := (x > y) and not (x = y);
    end;
)");
  EXPECT_EQ(h.var("x").scalar(), 9);
  EXPECT_EQ(h.var("y").scalar(), 5);
  EXPECT_EQ(h.var("t").as_bool(), true);
}

TEST(Interp, PascalModIsNonNegative) {
  Harness h(R"(
    var a: integer;
    state z;
    initialize to z begin a := (0 - 7) mod 3; end;
)");
  EXPECT_EQ(h.var("a").scalar(), 2);
}

TEST(Interp, WhileRepeatForLoops) {
  Harness h(R"(
    var s, i: integer;
    state z;
    initialize to z begin
      s := 0; i := 0;
      while i < 5 do begin s := s + i; i := i + 1; end; { 0+1+2+3+4 = 10 }
      repeat s := s + 1 until s >= 12;                  { 12 }
      for i := 1 to 3 do s := s + i;                    { 18 }
      for i := 3 downto 1 do s := s - 1;                { 15 }
      for i := 5 to 4 do s := s + 100;                  { empty range }
    end;
)");
  EXPECT_EQ(h.var("s").scalar(), 15);
}

TEST(Interp, CaseSelectsArmAndOtherwise) {
  Harness h(R"(
    var x, y: integer;
    state z;
    initialize to z begin
      x := 2;
      case x of 1: y := 10; 2, 3: y := 20 end;
      case x + 10 of 1: y := 0 otherwise y := y + 1 end;
    end;
)");
  EXPECT_EQ(h.var("y").scalar(), 21);
}

TEST(Interp, CaseWithoutMatchingLabelFaults) {
  EXPECT_THROW(Harness(R"(
    var x, y: integer;
    state z;
    initialize to z begin x := 9; case x of 1: y := 1 end; end;
)"),
               RuntimeFault);
}

TEST(Interp, RecordsArraysAndWholeAssignment) {
  Harness h(R"(
    type Pt = record x, y: integer; end;
    var a, b: Pt; v: array [1 .. 3] of integer; s: integer;
    state z;
    initialize to z begin
      a.x := 3; a.y := 4;
      b := a;
      b.x := 10;
      v[1] := a.x; v[2] := b.x; v[3] := a.y;
      s := v[1] + v[2] + v[3];
    end;
)");
  EXPECT_EQ(h.var("s").scalar(), 17);
  EXPECT_EQ(h.var("a").elems()[0].scalar(), 3);  // deep copy, not aliasing
}

TEST(Interp, ArrayIndexOutOfBoundsFaults) {
  EXPECT_THROW(Harness(R"(
    var v: array [1 .. 3] of integer; i: integer;
    state z;
    initialize to z begin i := 4; v[i] := 1; end;
)"),
               RuntimeFault);
}

TEST(Interp, SubrangeAssignmentRangeChecked) {
  EXPECT_THROW(Harness(R"(
    var s: 0 .. 9;
    state z;
    initialize to z begin s := 10; end;
)"),
               RuntimeFault);
}

TEST(Interp, FunctionsProceduresVarParamsRecursion) {
  Harness h(R"(
    function fact(n: integer): integer;
    begin
      if n <= 1 then fact := 1 else fact := n * fact(n - 1);
    end;
    procedure swap(var a: integer; var b: integer);
    var t: integer;
    begin t := a; a := b; b := t; end;
    var x, y, f: integer;
    state z;
    initialize to z begin
      x := 1; y := 2;
      swap(x, y);
      f := fact(5);
    end;
)");
  EXPECT_EQ(h.var("x").scalar(), 2);
  EXPECT_EQ(h.var("y").scalar(), 1);
  EXPECT_EQ(h.var("f").scalar(), 120);
}

TEST(Interp, RunawayRecursionFaults) {
  EXPECT_THROW(Harness(R"(
    function boom(n: integer): integer;
    begin boom := boom(n + 1); end;
    var x: integer;
    state z;
    initialize to z begin x := boom(0); end;
)"),
               RuntimeFault);
}

TEST(Interp, BuiltinFunctions) {
  Harness h(R"(
    type Color = (red, green, blue);
    var a, b: integer; c: char; col: Color; o: boolean;
    state z;
    initialize to z begin
      a := abs(0 - 5) + ord('A');         { 5 + 65 }
      c := chr(66);
      col := succ(red);
      b := ord(col) + ord(pred(blue));    { 1 + 1 }
      o := odd(a);
    end;
)");
  EXPECT_EQ(h.var("a").scalar(), 70);
  EXPECT_EQ(h.var("c").to_string(), "'B'");
  EXPECT_EQ(h.var("col").to_string(), "green");
  EXPECT_EQ(h.var("b").scalar(), 2);
  EXPECT_EQ(h.var("o").as_bool(), false);
}

TEST(Interp, DynamicMemoryLinkedList) {
  Harness h(R"(
    type L = ^N;
         N = record v: integer; next: L; end;
    var head: L; sum: integer;
    procedure push(x: integer);
    var c: L;
    begin new(c); c^.v := x; c^.next := head; head := c; end;
    state z;
    initialize to z begin
      head := nil;
      push(1); push(2); push(3);
      sum := 0;
      while head <> nil do begin
        sum := sum * 10 + head^.v;
        head := head^.next;
      end;
    end;
)");
  EXPECT_EQ(h.var("sum").scalar(), 321);
  // The loop dropped the cells without dispose: they stay live on the heap.
  EXPECT_EQ(h.machine.heap.live_cells(), 3u);
}

TEST(Interp, DisposeReleasesAndNilFaults) {
  Harness h(R"(
    type P = ^integer;
    var p: P;
    state z;
    initialize to z begin new(p); p^ := 5; dispose(p); end;
)");
  EXPECT_EQ(h.machine.heap.live_cells(), 0u);
  EXPECT_THROW(Harness(R"(
    type P = ^integer;
    var p, q: P; x: integer;
    state z;
    initialize to z begin p := nil; x := p^; end;
)"),
               RuntimeFault);
}

TEST(Interp, DanglingPointerFaults) {
  EXPECT_THROW(Harness(R"(
    type P = ^integer;
    var p, q: P; x: integer;
    state z;
    initialize to z begin new(p); q := p; dispose(p); x := q^; end;
)"),
               RuntimeFault);
}

TEST(Interp, DoubleDisposeFaultsWithDiagnosticMessage) {
  // Releasing through an alias after the cell is gone is a spec error the
  // analyzer must surface, not a silent no-op at the heap layer.
  try {
    Harness h(R"(
    type P = ^integer;
    var p, q: P;
    state z;
    initialize to z begin new(p); q := p; dispose(p); dispose(q); end;
)");
    FAIL() << "double dispose did not fault";
  } catch (const RuntimeFault& fault) {
    EXPECT_NE(std::string(fault.what()).find("double dispose"),
              std::string::npos)
        << fault.what();
  }
}

TEST(Interp, OutputsAreDeliveredInOrder) {
  Harness h(R"(
    state z;
    initialize to z begin output P.r(1); output P.r(2); end;
)");
  ASSERT_EQ(h.sink.fired.size(), 2u);
  EXPECT_EQ(h.sink.fired[0].params[0].scalar(), 1);
  EXPECT_EQ(h.sink.fired[1].params[0].scalar(), 2);
}

TEST(Interp, WhenParamsBindByPosition) {
  Harness h(R"(
    var got: integer;
    state z;
    initialize to z begin got := 0; end;
    trans from z to z when P.d name t: begin got := v; output P.r(v * 2); end;
)");
  ASSERT_TRUE(h.fire("t", {Value::make_int(21)}));
  EXPECT_EQ(h.var("got").scalar(), 21);
  EXPECT_EQ(h.sink.fired.back().params[0].scalar(), 42);
}

TEST(Interp, TransitionChangesFsmState) {
  Harness h(R"(
    state a, b;
    initialize to a begin end;
    trans from a to b when P.go name t: begin end;
          from b to same when P.go name stay: begin end;
)");
  EXPECT_EQ(h.machine.fsm_state, 0);
  ASSERT_TRUE(h.fire("t"));
  EXPECT_EQ(h.machine.fsm_state, 1);
  ASSERT_TRUE(h.fire("stay"));
  EXPECT_EQ(h.machine.fsm_state, 1);  // `to same`
}

TEST(Interp, SinkVetoAbortsFiring) {
  class Veto final : public OutputSink {
   public:
    bool on_output(int, int, std::span<const Value>, SourceLoc) override {
      return false;
    }
  };
  Harness h(R"(
    var x: integer;
    state a, b;
    initialize to a begin x := 0; end;
    trans from a to b when P.go name t: begin x := 1; output P.r(9); end;
)");
  Veto veto;
  EXPECT_FALSE(
      h.interp.fire(h.machine, h.transition("t"), {}, veto));
  // The machine is left dirty (x already assigned) and the FSM state is NOT
  // advanced — callers restore from their saved copy, as the analyzer does.
  EXPECT_EQ(h.machine.fsm_state, 0);
  EXPECT_EQ(h.var("x").scalar(), 1);
}

TEST(Interp, ProvidedEvaluation) {
  Harness h(R"(
    var x: integer;
    state z;
    initialize to z begin x := 5; end;
    trans
      from z to z when P.go provided x > 3 name yes: begin end;
      from z to z when P.go provided x > 9 name no: begin end;
)");
  EXPECT_TRUE(h.interp.provided_holds(h.machine, h.transition("yes"), {}));
  EXPECT_FALSE(h.interp.provided_holds(h.machine, h.transition("no"), {}));
}

TEST(Interp, ProvidedMustBeSideEffectFree) {
  Harness h(R"(
    var x: integer;
    function sneaky: integer;
    begin x := x + 1; sneaky := x; end;
    state z;
    initialize to z begin x := 0; end;
    trans from z to z when P.go provided sneaky > 0 name t: begin end;
)");
  EXPECT_THROW(h.interp.provided_holds(h.machine, h.transition("t"), {}),
               RuntimeFault);
}

TEST(Interp, StrictModeFaultsOnUndefinedUse) {
  EXPECT_THROW(Harness(R"(
    var x, y: integer;
    state z;
    initialize to z begin y := x + 1; end;
)"),
               RuntimeFault);
}

TEST(Interp, PartialModePropagatesUndefined) {
  Harness h(R"(
    var x, y: integer; b: boolean;
    state z;
    initialize to z begin y := x + 1; b := x > 0; end;
)",
            EvalMode::Partial);
  EXPECT_TRUE(h.var("y").is_undefined());
  EXPECT_TRUE(h.var("b").is_undefined());
}

TEST(Interp, PartialModeKleeneLogic) {
  Harness h(R"(
    var u: boolean; a, b, c, d: boolean;
    state z;
    initialize to z begin
      a := u and false;  { definite false }
      b := u or true;    { definite true }
      c := u and true;   { undefined }
      d := not u;        { undefined }
    end;
)",
            EvalMode::Partial);
  EXPECT_EQ(h.var("a").as_bool(), false);
  EXPECT_EQ(h.var("b").as_bool(), true);
  EXPECT_TRUE(h.var("c").is_undefined());
  EXPECT_TRUE(h.var("d").is_undefined());
}

TEST(Interp, PartialModeUndefinedProvidedIsTrue) {
  Harness h(R"(
    var u: integer;
    state z;
    initialize to z begin end;
    trans from z to z when P.go provided u > 5 name t: begin end;
)",
            EvalMode::Partial);
  // Paper §5.1: provided clauses over undefined values are assumed true.
  EXPECT_TRUE(h.interp.provided_holds(h.machine, h.transition("t"), {}));
}

TEST(Interp, PartialModeUndefinedBranchFaultsWithAdvice) {
  try {
    Harness h(R"(
      var u: integer; y: integer;
      state z;
      initialize to z begin if u > 0 then y := 1 else y := 2; end;
)",
              EvalMode::Partial);
    FAIL() << "expected RuntimeFault";
  } catch (const RuntimeFault& e) {
    EXPECT_NE(std::string(e.what()).find("normal-form"), std::string::npos);
  }
}

TEST(Interp, StatementBudgetStopsInfiniteLoops) {
  EXPECT_THROW(Harness(R"(
    var x: integer;
    state z;
    initialize to z begin x := 0; while true do x := x + 1; end;
)"),
               RuntimeFault);
}

TEST(Interp, DivisionByZeroFaults) {
  EXPECT_THROW(Harness(R"(
    var x, y: integer;
    state z;
    initialize to z begin y := 0; x := 1 div y; end;
)"),
               RuntimeFault);
}

/// Accepts outputs up to the `veto_at`-th, which it vetoes.
class VetoAt final : public OutputSink {
 public:
  explicit VetoAt(int veto_at) : veto_at_(veto_at) {}
  bool on_output(int, int, std::span<const Value>, SourceLoc) override {
    return ++seen < veto_at_;
  }
  int seen = 0;

 private:
  int veto_at_;
};

TEST(InterpVeto, ExceptionCounterSeesThrows) {
  // The no-exception checks below are only meaningful if the counter
  // really sees throws in this binary.
  EXPECT_EQ(exceptions_during([] {
              try {
                throw RuntimeFault(SourceLoc{}, "probe");
              } catch (const RuntimeFault&) {
              }
            }),
            1);
}

/// One transition per construct; each emits outputs in a loop, a case arm,
/// a procedure or a function, counts every output the sink accepted in
/// `after`, and sets `tail` once the construct is done.
constexpr const char* kVetoSpec = R"(
    var i, n, after, tail: integer;
    procedure emit(k: integer);
    begin output P.r(k); after := after + 1; end;
    function emitf(k: integer): integer;
    begin output P.r(k); after := after + 1; emitf := k; end;
    state a, b;
    initialize to a begin i := 0; n := 0; after := 0; tail := 0; end;
    trans
      from a to b when P.go name wh: begin
        while i < 5 do begin i := i + 1; output P.r(i); after := after + 1; end;
        tail := 1;
      end;
      from a to b when P.go name fo: begin
        for i := 1 to 5 do begin output P.r(i); after := after + 1; end;
        tail := 1;
      end;
      from a to b when P.go name re: begin
        repeat i := i + 1; output P.r(i); after := after + 1 until i >= 5;
        tail := 1;
      end;
      from a to b when P.go name ca: begin
        output P.r(0); after := after + 1;
        case after of
          1: begin output P.r(1); after := after + 1; end
        otherwise tail := 2
        end;
        tail := 1;
      end;
      from a to b when P.go name pr: begin
        emit(1); emit(2); emit(3); tail := 1;
      end;
      from a to b when P.go name fn: begin
        n := emitf(1) + emitf(2) + emitf(3); tail := 1;
      end;
)";

TEST(InterpVeto, VetoStopsTheBlockAtTheOutput) {
  // The sink vetoes each transition's second output. Exactly the statement
  // after the first output ran; nothing after the vetoed one did, in the
  // construct or after it, and the FSM state did not advance.
  for (const char* name : {"wh", "fo", "re", "ca", "pr", "fn"}) {
    SCOPED_TRACE(name);
    Harness h(kVetoSpec);
    VetoAt veto(2);
    bool fired = true;
    const long thrown = exceptions_during([&] {
      fired = h.interp.fire(h.machine, h.transition(name), {}, veto);
    });
    EXPECT_FALSE(fired);
    EXPECT_EQ(veto.seen, 2);
    EXPECT_EQ(h.var("after").scalar(), 1);
    EXPECT_EQ(h.var("tail").scalar(), 0);
    EXPECT_EQ(h.var("n").scalar(), 0);
    EXPECT_EQ(h.machine.fsm_state, 0);
    if (std::string(name) == "wh" || std::string(name) == "fo" ||
        std::string(name) == "re") {
      EXPECT_EQ(h.var("i").scalar(), 2);
    }
    // An output inside a function called from an expression may unwind
    // with an exception; every statement-level veto returns a status.
    if (std::string(name) != "fn") {
      EXPECT_EQ(thrown, 0);
    }
  }
}

TEST(InterpVeto, VetoedInitializerDoesNotEnterItsState) {
  const est::Spec spec = est::compile_spec(
      "specification s;\n"
      "channel CH(A, B);\n"
      "  by A: go;\n"
      "  by B: r(v: integer);\n"
      "module M systemprocess; ip P: CH(B); end;\n"
      "body MB for M;\n"
      "  var x: integer;\n"
      "  state a, b;\n"
      "  initialize to b begin x := 1; output P.r(x); x := 2; end;\n"
      "end;\nend.\n");
  Interp interp(spec);
  MachineState m = make_initial_machine(spec);
  VetoAt veto(1);
  bool ran = true;
  EXPECT_EQ(exceptions_during([&] {
              ran = interp.run_initializer(m, spec.body().initializers[0],
                                           veto);
            }),
            0);
  EXPECT_FALSE(ran);
  EXPECT_EQ(m.fsm_state, -1);
  EXPECT_EQ(m.vars[0].scalar(), 1);
}

TEST(InterpVeto, TrailRestoreAfterVetoGivesThePreFireHash) {
  Harness h(R"(
    type C = ^integer;
    var x: integer; v: array [1 .. 3] of integer; p: C;
    state a, b;
    initialize to a begin
      x := 0; v[1] := 1; v[2] := 2; v[3] := 3; new(p); p^ := 7;
    end;
    trans from a to b when P.go name t: begin
      x := 5; v[2] := 9; p^ := 8; new(p); p^ := 1;
      while x < 10 do begin
        x := x + 1;
        if x = 7 then output P.r(x);
      end;
      v[3] := 0;
    end;
)");
  const std::uint64_t pre = h.machine.hash();
  ASSERT_EQ(h.machine.hash_cached(), pre);  // builds the incremental cache
  Trail trail;
  const Trail::Mark mark = trail.mark();
  VetoAt veto(1);
  bool fired = true;
  EXPECT_EQ(exceptions_during([&] {
              fired = h.interp.fire(h.machine, h.transition("t"), {}, veto,
                                    &trail);
            }),
            0);
  EXPECT_FALSE(fired);
  // The vetoed block left the state dirty; the caller's restore cleans it.
  EXPECT_EQ(h.var("x").scalar(), 7);
  EXPECT_EQ(h.var("v").elems()[2].scalar(), 3);
  EXPECT_EQ(h.machine.heap.live_cells(), 2u);
  EXPECT_NE(h.machine.hash(), pre);
  trail.undo_to(mark, h.machine);
  EXPECT_EQ(h.machine.fsm_state, 0);
  EXPECT_EQ(h.machine.heap.live_cells(), 1u);
  EXPECT_EQ(h.machine.hash(), pre);
  EXPECT_EQ(h.machine.hash_cached(), pre);
}

TEST(InterpRead, FieldsElementsCellsAndVarParamAliases) {
  Harness h(R"(
    type R = record a: integer; b: array [1 .. 3] of integer; end;
         P = ^R;
    var r: R; arr: array [0 .. 2] of R; p: P;
        x1, x2, x3, x4, x5, x6: integer;
    procedure peek(var q: R; var out: integer);
    begin out := q.b[2] + q.a; end;
    state z;
    initialize to z begin
      r.a := 1; r.b[1] := 2; r.b[2] := 3; r.b[3] := 4;
      arr[1] := r; arr[1].b[2] := 30;
      new(p); p^ := r; p^.a := 100;
      x1 := r.a;
      x2 := arr[1].b[2];
      x3 := p^.a + p^.b[3];
      peek(arr[1], x4);
      x5 := r.b[2];
    end;
    trans from z to z when P.d name t: begin x6 := v + p^.b[1]; end;
)");
  EXPECT_EQ(h.var("x1").scalar(), 1);
  EXPECT_EQ(h.var("x2").scalar(), 30);
  EXPECT_EQ(h.var("x3").scalar(), 104);
  EXPECT_EQ(h.var("x4").scalar(), 31);
  EXPECT_EQ(h.var("x5").scalar(), 3);  // arr[1] := r copied, not aliased
  // A read of p^ goes through the const cell lookup: it is not a heap
  // mutation, so the heap epoch (and its hash component) stays put.
  const std::uint64_t epoch = h.machine.heap.epoch();
  ASSERT_TRUE(h.fire("t", {Value::make_int(40)}));
  EXPECT_EQ(h.var("x6").scalar(), 42);
  EXPECT_EQ(h.machine.heap.epoch(), epoch);
}

/// Fires `t`, which copies an undefined record and array (a partial
/// trace's `_` for a structured parameter) into `r` and `arr`, then runs
/// `stmt`; `p` is a never-assigned pointer. Returns the fault, or "" and
/// the value of `x` in `*x`.
std::string undefined_access(const std::string& stmt, EvalMode mode,
                             Value* x = nullptr) {
  Harness h(R"(
    type R = record a: integer; end;
         Arr = array [1 .. 2] of integer;
         P = ^integer;
    var r: R; arr: Arr; p: P; x: integer;
    state z;
    initialize to z begin end;
    trans from z to z when P.s name t: begin r := q; arr := xs; )" +
                stmt + " end;\n",
            mode, "s(q: R; xs: Arr);");
  try {
    EXPECT_TRUE(h.fire("t", {Value{}, Value{}}));
  } catch (const RuntimeFault& fault) {
    return fault.what();
  }
  if (x != nullptr) *x = h.var("x");
  return "";
}

TEST(InterpRead, UndefinedAggregatesReadUndefinedInPartialModeOnly) {
  struct Case {
    const char* read;
    const char* write;
    const char* fault;
  };
  for (const Case& c :
       {Case{"x := r.a;", "r.a := 1;", "field access on undefined record"},
        Case{"x := arr[1];", "arr[1] := 1;", "indexing an undefined array"},
        Case{"x := p^;", "p^ := 1;", "dereference of undefined pointer"}}) {
    SCOPED_TRACE(c.read);
    Value x = Value::make_int(0);
    EXPECT_EQ(undefined_access(c.read, EvalMode::Partial, &x), "");
    EXPECT_TRUE(x.is_undefined());
    EXPECT_NE(undefined_access(c.read, EvalMode::Strict).find(c.fault),
              std::string::npos);
    // Writing through an undefined aggregate faults in both modes.
    for (const EvalMode mode : {EvalMode::Strict, EvalMode::Partial}) {
      EXPECT_NE(undefined_access(c.write, mode).find(c.fault),
                std::string::npos);
    }
  }
}

std::string fault_of(const std::string& src) {
  try {
    Harness h(src);
  } catch (const RuntimeFault& fault) {
    return fault.what();
  }
  return "no fault";
}

TEST(InterpRead, OutOfRangeSubscriptReportsTheRangeOnBothPaths) {
  for (const char* stmt : {"x := v[i];", "v[i] := 1;"}) {
    SCOPED_TRACE(stmt);
    const std::string what = fault_of(std::string(R"(
    var v: array [1 .. 3] of integer; i, x: integer;
    state z;
    initialize to z begin i := 4; )") + stmt + " end;\n");
    EXPECT_NE(what.find("array index 4 out of bounds 1..3"),
              std::string::npos)
        << what;
  }
}

TEST(InterpRead, SubscriptCallReassigningTheArrayKeepsCopySemantics) {
  // bump reassigns m (freeing the storage an in-place read of m[1] would
  // point into) and drop disposes the cell q points to. Reads index the
  // base as it was before the subscript's call; writes evaluate such a
  // subscript first and store into the array as the call left it.
  Harness h(R"(
    type Row = array [1 .. 3] of integer;
         P = ^Row;
    var m, n: array [1 .. 2] of Row; v, w: Row; p, q: P;
        x, y, z1, z2: integer;
    function bump: integer; begin m := n; bump := 2; end;
    function swap: integer; begin v := w; swap := 3; end;
    function drop: integer; begin dispose(p); drop := 1; end;
    state z;
    initialize to z begin
      m[1][1] := 10; m[1][2] := 20; m[1][3] := 30; m[2] := m[1];
      n[1][1] := 1; n[1][2] := 2; n[1][3] := 3; n[2] := n[1];
      x := m[1][bump];
      y := m[1][2];
      m := n; n[1][2] := 7;
      m[1][bump] := 99;
      v[1] := 10; v[2] := 20; v[3] := 30; w := n[1];
      z1 := v[swap];
      v[1] := 10; v[2] := 20; v[3] := 30;
      v[swap] := 5;
      new(p); p^ := v; q := p;
      z2 := q^[drop];
    end;
)");
  EXPECT_EQ(h.var("x").scalar(), 20);  // m before bump
  EXPECT_EQ(h.var("y").scalar(), 2);   // bump did reassign m
  // The store landed in the n that bump copied into m.
  EXPECT_EQ(h.var("m").elems()[0].elems()[1].scalar(), 99);
  EXPECT_EQ(h.var("m").elems()[0].elems()[0].scalar(), 1);
  EXPECT_EQ(h.var("z1").scalar(), 30);  // v before swap
  // Root-variable base: the store goes into v as swap left it (w = n[1]).
  EXPECT_EQ(h.var("v").elems()[0].scalar(), 1);
  EXPECT_EQ(h.var("v").elems()[1].scalar(), 7);
  EXPECT_EQ(h.var("v").elems()[2].scalar(), 5);
  EXPECT_EQ(h.var("z2").scalar(), 1);  // the cell's value before dispose
  EXPECT_EQ(h.machine.heap.live_cells(), 0u);
  // A write through a cell the subscript disposes faults, not corrupts.
  const std::string what = fault_of(R"(
    type Row = array [1 .. 3] of integer;
         P = ^Row;
    var p, q: P;
    function drop: integer; begin dispose(p); drop := 1; end;
    state z;
    initialize to z begin new(p); q := p; q^[drop] := 5; end;
)");
  EXPECT_NE(what.find("dangling pointer"), std::string::npos) << what;
}

// ---------------------------------------------------------------------
// Reused storage: frames take the Interp's slot buffers by live count and
// outputs evaluate onto its argument stack. These cases fail when a frame
// shares a buffer with another live frame, or when a buffer or the stack
// is not given back on every exit.
// ---------------------------------------------------------------------

TEST(InterpStorage, ArgumentsCallFunctionsWithLocals) {
  // p's frame is live while its arguments call f and g (and g calls f):
  // each needs a buffer of its own, though none is deeper than p.
  Harness h(R"(
    var a, b, c: integer;
    function f(k: integer): integer;
    var t, u: integer;
    begin t := k * 10; u := t + 1; f := u; end;
    function g(k: integer): integer;
    var t: integer;
    begin t := k * 100; g := t + f(k); end;
    procedure p(x, y: integer);
    var l: integer;
    begin l := x + y; a := x; b := y; c := l; end;
    state z;
    initialize to z begin p(f(1), g(2)); end;
    trans from z to z when P.go name t: begin p(f(3), g(4)); end;
)");
  EXPECT_EQ(h.var("a").scalar(), 11);
  EXPECT_EQ(h.var("b").scalar(), 221);
  EXPECT_EQ(h.var("c").scalar(), 232);
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(h.fire("t"));
    EXPECT_EQ(h.var("a").scalar(), 31);
    EXPECT_EQ(h.var("b").scalar(), 441);
    EXPECT_EQ(h.var("c").scalar(), 472);
  }
}

TEST(InterpStorage, RecursionWithLocals) {
  // Each activation's locals survive the deeper calls made after they
  // were set; fib's `l` survives the whole second recursive call.
  Harness h(R"(
    var s, r: integer;
    function sum(n: integer): integer;
    var here, rest: integer;
    begin
      here := n;
      if n = 0 then rest := 0 else rest := sum(n - 1);
      sum := here + rest;
    end;
    function fib(n: integer): integer;
    var l, m: integer;
    begin
      if n < 2 then fib := n
      else begin l := fib(n - 1); m := fib(n - 2); fib := l + m; end;
    end;
    state z;
    initialize to z begin s := sum(10); r := fib(12); end;
    trans from z to z when P.go name t: begin s := sum(20); r := fib(10); end;
)");
  EXPECT_EQ(h.var("s").scalar(), 55);
  EXPECT_EQ(h.var("r").scalar(), 144);
  ASSERT_TRUE(h.fire("t"));
  EXPECT_EQ(h.var("s").scalar(), 210);
  EXPECT_EQ(h.var("r").scalar(), 55);
}

TEST(InterpStorage, VarParamAliasIntoCallerLocalSurvivesDeeperCalls) {
  // inc's `x` aliases outer's local `loc`. The alias is bound before the
  // second argument calls deep, and inc calls deep again before its last
  // write through the alias: neither may move or clear outer's slots.
  Harness h(R"(
    var r, s: integer;
    function deep(n: integer): integer;
    var t, u: integer;
    begin
      t := n; u := n * 2;
      if n > 0 then deep := deep(n - 1) + t + u else deep := 0;
    end;
    procedure inc(var x: integer; k: integer);
    begin x := x + k; x := x + deep(1); end;
    procedure outer(k: integer);
    var loc, pad: integer;
    begin loc := k; pad := 7; inc(loc, deep(2)); r := loc; s := pad; end;
    state z;
    initialize to z begin outer(5); end;
)");
  EXPECT_EQ(h.var("r").scalar(), 5 + 9 + 3);  // deep(2) = 9, deep(1) = 3
  EXPECT_EQ(h.var("s").scalar(), 7);
}

TEST(InterpStorage, OutputArgumentCallsAFunctionThatOutputs) {
  // noisy's outputs stack above pair's first argument and pop before
  // pair's span is taken: the sink sees both inner outputs, then pair.
  Harness h(R"(
    var n: integer;
    function noisy(k: integer): integer;
    var t: integer;
    begin t := k + 1; output P.r(t); noisy := t * 10; end;
    state z;
    initialize to z begin n := 0; end;
    trans from z to z when P.go name t: begin
      output P.pair(noisy(1), noisy(2) + 1);
      output P.r(n);
    end;
)",
            EvalMode::Strict, "go;",
            "r(v: integer); pair(x: integer; y: integer);");
  ASSERT_TRUE(h.fire("t"));
  // Each output as its interaction name and its parameters.
  std::vector<std::string> got;
  for (const Fired& f : h.sink.fired) {
    std::string line = h.spec.interaction(f.id).name;
    for (const Value& v : f.params) line += " " + v.to_string();
    got.push_back(line);
  }
  EXPECT_EQ(got, (std::vector<std::string>{"r 2", "r 3", "pair 20 31",
                                           "r 0"}));
}

TEST(InterpStorage, FaultInANestedCallLeavesTheInterpLikeAFreshOne) {
  // boom faults three frames deep, with a var-parameter bound, a local
  // set and one output argument already evaluated. The same Interp then
  // fires ok exactly as a fresh one does.
  constexpr const char* kSpec = R"(
    var x, y: integer;
    function bad(k: integer): integer;
    var t: integer;
    begin t := k; bad := 10 div (t - t); end;
    procedure wrap(var q: integer; k: integer);
    var l: integer;
    begin l := k; q := bad(l) + l; end;
    function cause(k: integer): integer;
    begin wrap(x, k); cause := x; end;
    function f(k: integer): integer;
    var t, u: integer;
    begin t := k; u := t * 2; f := t + u; end;
    state z;
    initialize to z begin x := 1; y := 0; end;
    trans
      from z to z when P.go name boom: begin
        output P.pair(f(1), cause(2));
      end;
      from z to z when P.go name ok: begin
        y := f(2) + f(3);
        output P.pair(f(4), y);
      end;
)";
  constexpr const char* kOutputs =
      "r(v: integer); pair(x: integer; y: integer);";
  Harness reused(kSpec, EvalMode::Strict, "go;", kOutputs);
  EXPECT_THROW(reused.fire("boom"), RuntimeFault);
  EXPECT_TRUE(reused.sink.fired.empty());
  ASSERT_TRUE(reused.fire("ok"));

  Harness fresh(kSpec, EvalMode::Strict, "go;", kOutputs);
  ASSERT_TRUE(fresh.fire("ok"));

  EXPECT_EQ(reused.var("y").scalar(), 15);  // f(2) + f(3) = 6 + 9
  EXPECT_EQ(reused.var("y").scalar(), fresh.var("y").scalar());
  EXPECT_EQ(reused.var("x").scalar(), fresh.var("x").scalar());
  ASSERT_EQ(reused.sink.fired.size(), 1u);
  ASSERT_EQ(fresh.sink.fired.size(), 1u);
  ASSERT_EQ(reused.sink.fired[0].params.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(equals(reused.sink.fired[0].params[i],
                       fresh.sink.fired[0].params[i], false))
        << i;
  }
  EXPECT_EQ(reused.sink.fired[0].params[0].scalar(), 12);
}

}  // namespace
}  // namespace tango::rt
