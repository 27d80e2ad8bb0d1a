#include "analysis/guard_solver.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "analysis/dataflow.hpp"

namespace tango::analysis {

namespace {

using est::BinOp;
using est::Builtin;
using est::Expr;
using est::ExprKind;
using est::NameRef;
using est::Spec;
using est::Stmt;
using est::StmtKind;
using est::Transition;
using est::Type;
using est::TypeKind;
using est::UnOp;

constexpr std::int64_t kInf = std::int64_t{1} << 62;

std::int64_t sat(std::int64_t v, std::int64_t delta) {
  const __int128 w = static_cast<__int128>(v) + delta;
  if (w < -static_cast<__int128>(kInf)) return -kInf;
  if (w > static_cast<__int128>(kInf)) return kInf;
  return static_cast<std::int64_t>(w);
}

// ---------------------------------------------------------------------------
// Conjunctions of interval atoms
// ---------------------------------------------------------------------------

struct VarKey {
  bool when = false;  // false: module variable, true: when parameter
  int slot = -1;

  friend bool operator<(const VarKey& a, const VarKey& b) {
    if (a.when != b.when) return !a.when;
    return a.slot < b.slot;
  }
};

struct Atom {
  std::int64_t lo = -kInf;
  std::int64_t hi = kInf;
  std::vector<std::int64_t> excluded;  // sorted, strictly inside [lo, hi]

  [[nodiscard]] bool empty() const { return lo > hi; }

  void normalize() {
    std::sort(excluded.begin(), excluded.end());
    excluded.erase(std::unique(excluded.begin(), excluded.end()),
                   excluded.end());
    bool trimmed = true;
    while (trimmed && lo <= hi) {
      trimmed = false;
      if (std::binary_search(excluded.begin(), excluded.end(), lo)) {
        lo = sat(lo, 1);
        trimmed = true;
      }
      if (lo <= hi &&
          std::binary_search(excluded.begin(), excluded.end(), hi)) {
        hi = sat(hi, -1);
        trimmed = true;
      }
    }
    std::erase_if(excluded,
                  [&](std::int64_t p) { return p <= lo || p >= hi; });
  }
};

/// Normal form of one provided clause: a conjunction of per-variable atoms
/// plus a residual flag for conjuncts the atomizer could not express. The
/// solver proves nothing through residuals.
struct Conj {
  std::map<VarKey, Atom> atoms;
  bool residual = false;
  bool contradiction = false;
};

/// Declared-bounds seed for a key. When-parameter values come from the
/// trace and subrange module slots can be widened through var parameters
/// (see trusted_ in Solver), so seeds are only applied where sound.
struct SeedFn {
  const Spec* spec = nullptr;
  const std::vector<char>* module_trusted = nullptr;

  [[nodiscard]] Atom operator()(VarKey key) const {
    Atom a;
    if (key.when) return a;
    const auto s = static_cast<std::size_t>(key.slot);
    if (s >= spec->module_vars.size()) return a;
    if ((*module_trusted)[s] == 0) return a;
    const Type* t = spec->module_vars[s].type;
    if (t == nullptr) return a;
    switch (t->kind) {
      case TypeKind::Boolean:
        a.lo = 0;
        a.hi = 1;
        break;
      case TypeKind::Char:
        a.lo = 0;
        a.hi = 255;
        break;
      case TypeKind::Enum:
        a.lo = 0;
        a.hi = static_cast<std::int64_t>(t->enum_values.size()) - 1;
        break;
      case TypeKind::Subrange:
        a.lo = t->lo;
        a.hi = t->hi;
        break;
      default:
        break;
    }
    return a;
  }
};

std::optional<std::int64_t> const_eval(const Expr& e) {
  switch (e.kind) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
    case ExprKind::CharLit:
      return e.int_value;
    case ExprKind::Name:
      switch (e.ref) {
        case NameRef::ConstInt:
        case NameRef::ConstBool:
        case NameRef::ConstChar:
        case NameRef::EnumConst:
          return e.int_value;
        default:
          return std::nullopt;
      }
    case ExprKind::Unary: {
      const auto v = const_eval(*e.children[0]);
      if (!v) return std::nullopt;
      switch (e.un_op) {
        case UnOp::Plus:
          return v;
        case UnOp::Neg:
          return -*v;
        case UnOp::Not:
          return *v != 0 ? 0 : 1;
      }
      return std::nullopt;
    }
    case ExprKind::Binary: {
      const auto a = const_eval(*e.children[0]);
      const auto b = const_eval(*e.children[1]);
      if (!a || !b) return std::nullopt;
      switch (e.bin_op) {
        case BinOp::Add:
          return sat(*a, *b);
        case BinOp::Sub:
          return sat(*a, -*b);
        case BinOp::Mul: {
          const __int128 w = static_cast<__int128>(*a) * *b;
          if (w < -static_cast<__int128>(kInf) ||
              w > static_cast<__int128>(kInf)) {
            return std::nullopt;
          }
          return static_cast<std::int64_t>(w);
        }
        default:
          return std::nullopt;
      }
    }
    default:
      return std::nullopt;
  }
}

std::optional<VarKey> key_of(const Expr& e) {
  if (e.kind != ExprKind::Name) return std::nullopt;
  if (e.ref == NameRef::ModuleVar) return VarKey{false, e.slot};
  if (e.ref == NameRef::WhenParam) return VarKey{true, e.slot};
  return std::nullopt;
}

BinOp negate(BinOp op) {
  switch (op) {
    case BinOp::Eq: return BinOp::Neq;
    case BinOp::Neq: return BinOp::Eq;
    case BinOp::Lt: return BinOp::Geq;
    case BinOp::Leq: return BinOp::Gt;
    case BinOp::Gt: return BinOp::Leq;
    case BinOp::Geq: return BinOp::Lt;
    default: return op;
  }
}

BinOp mirror(BinOp op) {
  switch (op) {
    case BinOp::Lt: return BinOp::Gt;
    case BinOp::Leq: return BinOp::Geq;
    case BinOp::Gt: return BinOp::Lt;
    case BinOp::Geq: return BinOp::Leq;
    default: return op;  // Eq / Neq
  }
}

class Atomizer {
 public:
  Atomizer(const SeedFn& seed) : seed_(seed) {}

  Conj run(const Expr* guard) {
    conj_ = Conj{};
    if (guard != nullptr) visit(*guard, /*positive=*/true);
    for (auto& [key, atom] : conj_.atoms) {
      atom.normalize();
      if (atom.empty()) conj_.contradiction = true;
    }
    return std::move(conj_);
  }

 private:
  Atom& atom(VarKey key) {
    auto it = conj_.atoms.find(key);
    if (it == conj_.atoms.end()) {
      it = conj_.atoms.emplace(key, seed_(key)).first;
    }
    return it->second;
  }

  void apply(VarKey key, BinOp op, std::int64_t c) {
    Atom& a = atom(key);
    switch (op) {
      case BinOp::Eq:
        a.lo = std::max(a.lo, c);
        a.hi = std::min(a.hi, c);
        break;
      case BinOp::Neq:
        if (c == a.lo) {
          a.lo = sat(a.lo, 1);
        } else if (c == a.hi) {
          a.hi = sat(a.hi, -1);
        } else if (c > a.lo && c < a.hi) {
          a.excluded.push_back(c);
        }
        break;
      case BinOp::Lt:
        a.hi = std::min(a.hi, sat(c, -1));
        break;
      case BinOp::Leq:
        a.hi = std::min(a.hi, c);
        break;
      case BinOp::Gt:
        a.lo = std::max(a.lo, sat(c, 1));
        break;
      case BinOp::Geq:
        a.lo = std::max(a.lo, c);
        break;
      default:
        conj_.residual = true;
        break;
    }
  }

  void visit(const Expr& e, bool positive) {
    switch (e.kind) {
      case ExprKind::BoolLit:
        if ((e.int_value != 0) != positive) conj_.contradiction = true;
        return;
      case ExprKind::Name: {
        if (const auto key = key_of(e)) {
          apply(*key, BinOp::Eq, positive ? 1 : 0);
          return;
        }
        if (e.ref == NameRef::ConstBool) {
          if ((e.int_value != 0) != positive) conj_.contradiction = true;
          return;
        }
        conj_.residual = true;
        return;
      }
      case ExprKind::Unary:
        if (e.un_op == UnOp::Not) {
          visit(*e.children[0], !positive);
        } else {
          conj_.residual = true;
        }
        return;
      case ExprKind::Binary:
        switch (e.bin_op) {
          case BinOp::And:
            if (positive) {
              visit(*e.children[0], true);
              visit(*e.children[1], true);
            } else {
              conj_.residual = true;  // ¬(a ∧ b) is a disjunction
            }
            return;
          case BinOp::Or:
            if (!positive) {
              visit(*e.children[0], false);
              visit(*e.children[1], false);
            } else {
              conj_.residual = true;
            }
            return;
          case BinOp::Eq:
          case BinOp::Neq:
          case BinOp::Lt:
          case BinOp::Leq:
          case BinOp::Gt:
          case BinOp::Geq: {
            BinOp op = positive ? e.bin_op : negate(e.bin_op);
            const Expr& lhs = *e.children[0];
            const Expr& rhs = *e.children[1];
            const auto lk = key_of(lhs);
            const auto rk = key_of(rhs);
            const auto lc = const_eval(lhs);
            const auto rc = const_eval(rhs);
            if (lk && rc) {
              apply(*lk, op, *rc);
            } else if (rk && lc) {
              apply(*rk, mirror(op), *lc);
            } else {
              conj_.residual = true;
            }
            return;
          }
          default:
            conj_.residual = true;
            return;
        }
      default:
        conj_.residual = true;
        return;
    }
  }

  SeedFn seed_;
  Conj conj_;
};

/// a ⊆ b on the value sets the atoms describe.
bool atom_implies(const Atom& a, const Atom& b) {
  if (a.empty()) return true;
  if (!(b.lo <= a.lo && a.hi <= b.hi)) return false;
  for (std::int64_t p : b.excluded) {
    if (p < a.lo || p > a.hi) continue;
    if (!std::binary_search(a.excluded.begin(), a.excluded.end(), p)) {
      return false;
    }
  }
  return true;
}

/// Every model of `a` is a model of `b`.
bool conj_implies(const Conj& a, const Conj& b, const SeedFn& seed) {
  if (a.contradiction) return true;
  if (b.contradiction) return false;
  if (b.residual) return false;  // cannot prove through unknown conjuncts
  for (const auto& [key, batom] : b.atoms) {
    const auto it = a.atoms.find(key);
    const Atom aatom = it != a.atoms.end() ? it->second : seed(key);
    if (!atom_implies(aatom, batom)) return false;
  }
  return true;
}

bool atoms_disjoint(const Atom& a, const Atom& b) {
  if (a.empty() || b.empty()) return true;
  if (a.hi < b.lo || b.hi < a.lo) return true;
  if (a.lo == a.hi &&
      std::binary_search(b.excluded.begin(), b.excluded.end(), a.lo)) {
    return true;
  }
  if (b.lo == b.hi &&
      std::binary_search(a.excluded.begin(), a.excluded.end(), b.lo)) {
    return true;
  }
  return false;
}

/// No assignment satisfies both conjunctions.
bool conj_disjoint(const Conj& a, const Conj& b) {
  if (a.contradiction || b.contradiction) return true;
  for (const auto& [key, aatom] : a.atoms) {
    const auto it = b.atoms.find(key);
    if (it == b.atoms.end()) continue;
    if (atoms_disjoint(aatom, it->second)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Guard purity and bound trust
// ---------------------------------------------------------------------------

/// Calls back for every user-routine call site (statement or expression)
/// under `e`/`s`: fn(routine_index, args) with args possibly null (Call0).
template <typename Fn>
void for_each_call_expr(const Expr& e, const Fn& fn) {
  if (e.kind == ExprKind::Call && e.builtin == Builtin::None &&
      e.routine_index >= 0) {
    fn(e.routine_index, &e.children);
  }
  if (e.kind == ExprKind::Name && e.ref == NameRef::Call0 && e.slot >= 0) {
    fn(e.slot, static_cast<const std::vector<est::ExprPtr>*>(nullptr));
  }
  for (const est::ExprPtr& c : e.children) {
    if (c) for_each_call_expr(*c, fn);
  }
}

template <typename Fn>
void for_each_call_stmt(const Stmt& s, const Fn& fn) {
  if (s.kind == StmtKind::Call && s.builtin == Builtin::None &&
      s.routine_index >= 0) {
    fn(s.routine_index, &s.args);
  }
  if (s.e0) for_each_call_expr(*s.e0, fn);
  if (s.e1) for_each_call_expr(*s.e1, fn);
  for (const est::ExprPtr& a : s.args) {
    if (a) for_each_call_expr(*a, fn);
  }
  if (s.s0) for_each_call_stmt(*s.s0, fn);
  if (s.s1) for_each_call_stmt(*s.s1, fn);
  for (const est::StmtPtr& c : s.body) {
    if (c) for_each_call_stmt(*c, fn);
  }
  for (const est::CaseArm& arm : s.arms) {
    if (arm.body) for_each_call_stmt(*arm.body, fn);
  }
  for (const est::StmtPtr& c : s.otherwise) {
    if (c) for_each_call_stmt(*c, fn);
  }
}

const Expr* plain_root(const Expr& e) {
  const Expr* cur = &e;
  while (cur->kind == ExprKind::Field || cur->kind == ExprKind::Index) {
    cur = cur->children[0].get();
  }
  return cur->kind == ExprKind::Name ? cur : nullptr;
}

/// Subrange-typed module slots can receive out-of-declared-range values
/// when passed by reference to a routine whose parameter type is wider
/// (stores range-check against the parameter's type, not the actual's).
/// Seeding such a slot's declared bounds into the solver would be unsound.
std::vector<char> compute_trusted(const Spec& spec,
                                  const std::vector<RoutineEffects>& effects) {
  std::vector<char> trusted(spec.module_vars.size(), 1);
  const auto untrust_calls = [&](int index,
                                 const std::vector<est::ExprPtr>* args) {
    if (args == nullptr || index < 0 ||
        static_cast<std::size_t>(index) >= effects.size()) {
      return;
    }
    const RoutineEffects& eff = effects[static_cast<std::size_t>(index)];
    for (std::size_t i = 0; i < std::min(eff.writes_param.size(),
                                         args->size());
         ++i) {
      if (!eff.writes_param[i] || !(*args)[i]) continue;
      const Expr* root = plain_root(*(*args)[i]);
      if (root == nullptr || root->ref != NameRef::ModuleVar) continue;
      const auto s = static_cast<std::size_t>(root->slot);
      if (s < trusted.size() && spec.module_vars[s].type != nullptr &&
          spec.module_vars[s].type->kind == TypeKind::Subrange) {
        trusted[s] = 0;
      }
    }
  };
  const est::BodyDef& body = spec.body();
  for (const est::Initializer& init : body.initializers) {
    if (init.block) for_each_call_stmt(*init.block, untrust_calls);
  }
  for (const Transition& t : body.transitions) {
    if (t.block) for_each_call_stmt(*t.block, untrust_calls);
  }
  for (const est::Routine& r : body.routines) {
    if (r.body) for_each_call_stmt(*r.body, untrust_calls);
  }
  return trusted;
}

/// Whether evaluating this guard has no observable effect: every call it
/// reaches must be effect-free, including var-parameter write-back.
bool guard_pure(const Expr* guard,
                const std::vector<RoutineEffects>& effects) {
  if (guard == nullptr) return true;
  bool pure = true;
  for_each_call_expr(*guard, [&](int index,
                                 const std::vector<est::ExprPtr>* args) {
    if (index < 0 || static_cast<std::size_t>(index) >= effects.size()) {
      pure = false;
      return;
    }
    const RoutineEffects& eff = effects[static_cast<std::size_t>(index)];
    if (!eff.pure()) pure = false;
    if (args != nullptr) {
      for (std::size_t i = 0; i < std::min(eff.writes_param.size(),
                                           args->size());
           ++i) {
        if (eff.writes_param[i]) pure = false;
      }
    }
  });
  return pure;
}

// ---------------------------------------------------------------------------
// Structural equality (duplicate detection)
// ---------------------------------------------------------------------------

bool expr_eq(const Expr* a, const Expr* b);

bool expr_list_eq(const std::vector<est::ExprPtr>& a,
                  const std::vector<est::ExprPtr>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!expr_eq(a[i].get(), b[i].get())) return false;
  }
  return true;
}

bool expr_eq(const Expr* a, const Expr* b) {
  if (a == nullptr || b == nullptr) return a == b;
  if (a->kind != b->kind || a->int_value != b->int_value ||
      a->ref != b->ref || a->slot != b->slot ||
      a->field_index != b->field_index || a->un_op != b->un_op ||
      a->bin_op != b->bin_op || a->builtin != b->builtin ||
      a->routine_index != b->routine_index) {
    return false;
  }
  return expr_list_eq(a->children, b->children);
}

bool stmt_eq(const Stmt* a, const Stmt* b);

bool stmt_list_eq(const std::vector<est::StmtPtr>& a,
                  const std::vector<est::StmtPtr>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!stmt_eq(a[i].get(), b[i].get())) return false;
  }
  return true;
}

bool stmt_eq(const Stmt* a, const Stmt* b) {
  if (a == nullptr || b == nullptr) return a == b;
  if (a->kind != b->kind || a->downto != b->downto ||
      a->has_otherwise != b->has_otherwise || a->builtin != b->builtin ||
      a->routine_index != b->routine_index ||
      a->ip_index != b->ip_index ||
      a->interaction_id != b->interaction_id) {
    return false;
  }
  if (!expr_eq(a->e0.get(), b->e0.get()) ||
      !expr_eq(a->e1.get(), b->e1.get()) ||
      !stmt_eq(a->s0.get(), b->s0.get()) ||
      !stmt_eq(a->s1.get(), b->s1.get()) ||
      !stmt_list_eq(a->body, b->body) ||
      !stmt_list_eq(a->otherwise, b->otherwise) ||
      !expr_list_eq(a->args, b->args)) {
    return false;
  }
  if (a->arms.size() != b->arms.size()) return false;
  for (std::size_t i = 0; i < a->arms.size(); ++i) {
    if (a->arms[i].label_values != b->arms[i].label_values ||
        !stmt_eq(a->arms[i].body.get(), b->arms[i].body.get())) {
      return false;
    }
  }
  return true;
}

/// Slot-indexed local types; structural block equality plus equal layouts
/// makes two transitions behaviorally interchangeable.
std::vector<const Type*> local_types(const Transition& t) {
  std::vector<const Type*> types(static_cast<std::size_t>(t.frame_size),
                                 nullptr);
  for (const est::VarDecl& vd : t.locals) {
    for (std::size_t i = 0; i < vd.names.size(); ++i) {
      const auto s = static_cast<std::size_t>(vd.first_slot) + i;
      if (s < types.size()) types[s] = vd.type ? vd.type->resolved : nullptr;
    }
  }
  return types;
}

bool same_when_source(const Transition& a, const Transition& b) {
  if (a.when.has_value() != b.when.has_value()) return false;
  if (!a.when) return true;
  return a.when->ip_index == b.when->ip_index &&
         a.when->interaction_id == b.when->interaction_id;
}

std::int64_t effective_priority(const Transition& t) {
  return t.priority.value_or(std::numeric_limits<std::int64_t>::max());
}

bool duplicate_of(const Transition& a, const Transition& b) {
  return a.from_ordinals == b.from_ordinals &&
         a.to_ordinal == b.to_ordinal && same_when_source(a, b) &&
         effective_priority(a) == effective_priority(b) &&
         a.frame_size == b.frame_size &&
         expr_eq(a.provided.get(), b.provided.get()) &&
         stmt_eq(a.block.get(), b.block.get()) &&
         local_types(a) == local_types(b);
}

/// b's from-states cover a's (b is applicable wherever a is).
bool from_superset(const Transition& b, const Transition& a) {
  // Both vectors sorted by sema.
  return std::includes(b.from_ordinals.begin(), b.from_ordinals.end(),
                       a.from_ordinals.begin(), a.from_ordinals.end());
}

int shared_state(const Transition& a, const Transition& b) {
  for (int s : a.from_ordinals) {
    if (std::binary_search(b.from_ordinals.begin(), b.from_ordinals.end(),
                           s)) {
      return s;
    }
  }
  return -1;
}

}  // namespace

std::vector<char> trusted_module_slots(
    const est::Spec& spec, const std::vector<RoutineEffects>& effects) {
  return compute_trusted(spec, effects);
}

bool provided_clause_pure(const est::Expr* guard,
                          const std::vector<RoutineEffects>& effects) {
  return guard_pure(guard, effects);
}

// ---------------------------------------------------------------------------
// Solver driver
// ---------------------------------------------------------------------------

std::vector<Finding> analyze_guards(const Spec& spec) {
  std::vector<Finding> out;
  const std::vector<Transition>& transitions = spec.body().transitions;
  const auto n = static_cast<int>(transitions.size());
  if (n == 0) return out;

  const std::vector<RoutineEffects> effects = compute_routine_effects(spec);
  const std::vector<char> trusted = compute_trusted(spec, effects);
  const SeedFn seed{&spec, &trusted};

  Atomizer atomizer(seed);
  std::vector<Conj> conj;
  std::vector<char> pure;
  conj.reserve(transitions.size());
  pure.reserve(transitions.size());
  for (const Transition& t : transitions) {
    conj.push_back(atomizer.run(t.provided.get()));
    pure.push_back(guard_pure(t.provided.get(), effects) ? 1 : 0);
  }

  auto label = [&](int i) {
    return "transition '" + transitions[static_cast<std::size_t>(i)].name +
           "'";
  };
  // Transitions already shown unable to add behavior; each is reported
  // once and takes no further part in the pairwise checks. Only a pure
  // guard enters: an impure one's evaluation is itself observable.
  std::vector<char> skip(static_cast<std::size_t>(n), 0);

  // Always-false guards can never enable their transition.
  for (int i = 0; i < n; ++i) {
    const auto si = static_cast<std::size_t>(i);
    if (!conj[si].contradiction) continue;
    out.emplace_back(Severity::Error, "guards", transitions[si].loc, label(i),
                     "provided clause can never be true");
    if (pure[si] != 0) skip[si] = 1;
  }

  // Structural duplicates: identical firings explore identical subtrees,
  // so only the first declaration can contribute new behavior.
  for (int j = 1; j < n; ++j) {
    const auto sj = static_cast<std::size_t>(j);
    if (skip[sj] != 0 || pure[sj] == 0) continue;
    for (int i = 0; i < j; ++i) {
      const auto si = static_cast<std::size_t>(i);
      if (skip[si] != 0) continue;
      if (!duplicate_of(transitions[si], transitions[sj])) continue;
      out.emplace_back(
          Severity::Warning, "guards", transitions[sj].loc, label(j),
          label(j) + " is structurally identical to " + label(i) +
              "; its firings explore identical subtrees");
      skip[sj] = 1;
      break;
    }
  }

  // Priority shadowing: whenever i's guard holds, j is enabled too and the
  // priority filter discards i — i can never fire.
  for (int i = 0; i < n; ++i) {
    const auto si = static_cast<std::size_t>(i);
    if (skip[si] != 0 || pure[si] == 0) continue;
    const Transition& ti = transitions[si];
    for (int j = 0; j < n; ++j) {
      const auto sj = static_cast<std::size_t>(j);
      if (j == i || skip[sj] != 0) continue;
      const Transition& tj = transitions[sj];
      if (!same_when_source(ti, tj) || !from_superset(tj, ti)) continue;
      if (effective_priority(tj) >= effective_priority(ti)) continue;
      if (!conj_implies(conj[si], conj[sj], seed)) continue;
      out.emplace_back(
          Severity::Warning, "guards", ti.loc, label(i),
          label(i) + " can never fire: whenever its provided clause holds, "
                     "higher-priority " +
              label(j) + " is also enabled");
      skip[si] = 1;
      break;
    }
  }

  // Same-arena pairs whose guards are not provably disjoint: genuine
  // nondeterministic choice (the search explores both orders).
  for (int i = 0; i < n; ++i) {
    const auto si = static_cast<std::size_t>(i);
    if (skip[si] != 0) continue;
    for (int j = i + 1; j < n; ++j) {
      const auto sj = static_cast<std::size_t>(j);
      if (skip[sj] != 0) continue;
      const Transition& ti = transitions[si];
      const Transition& tj = transitions[sj];
      if (!same_when_source(ti, tj)) continue;
      if (effective_priority(ti) != effective_priority(tj)) continue;
      const int state = shared_state(ti, tj);
      if (state < 0) continue;
      if (conj[si].contradiction || conj[sj].contradiction) continue;
      if (conj_disjoint(conj[si], conj[sj])) continue;
      out.emplace_back(
          Severity::Note, "guards", tj.loc, label(j),
          label(i) + " and " + label(j) + " may both be enabled in state '" +
              spec.states[static_cast<std::size_t>(state)] +
              "': nondeterministic choice");
    }
  }

  return out;
}

}  // namespace tango::analysis
