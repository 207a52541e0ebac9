//===- smt/Z3Solver.cpp - Z3 backend ---------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates the interned Expr DAG into Z3 ASTs (via the C API) and asks Z3
/// for satisfiability — the same backend the paper's implementation uses.
/// Translation is memoised per node so shared subformulas are translated
/// once. One incremental solver lives as long as the backend: each query
/// is asserted inside its own push/pop scope, so nothing carries over from
/// one query to the next except Z3's internal caches (DESIGN.md section 11).
///
//===----------------------------------------------------------------------===//

#include "smt/Solver.h"

#if PINPOINT_HAS_Z3

#include <string>
#include <unordered_map>
#include <vector>
#include <z3.h>

namespace pinpoint::smt {
namespace {

class Z3Solver : public Solver {
public:
  Z3Solver(ExprContext &Ctx, const SolverConfig &SC) : Ctx(Ctx) {
    Z3_config Cfg = Z3_mk_config();
    // Per-query timeout in ms; 0 would mean "no limit", so clamp to 1.
    std::string Timeout = std::to_string(SC.TimeoutMs > 0 ? SC.TimeoutMs : 1);
    Z3_set_param_value(Cfg, "timeout", Timeout.c_str());
    Z = Z3_mk_context(Cfg);
    Z3_del_config(Cfg);
    IntSort = Z3_mk_int_sort(Z);
    BoolSort = Z3_mk_bool_sort(Z);
    S = Z3_mk_simple_solver(Z);
    Z3_solver_inc_ref(Z, S);
  }

  ~Z3Solver() override {
    Z3_solver_dec_ref(Z, S);
    Z3_del_context(Z);
  }
  Z3Solver(const Z3Solver &) = delete;
  Z3Solver &operator=(const Z3Solver &) = delete;

  SatResult checkSat(const Expr *E) override {
    // Translate before the push. In a Z3_mk_context context an AST stays
    // valid only until a pop takes the scope below the level it was made
    // at, so the memoised translations must be made at the base level.
    // Nothing between push and pop can then throw and leave a scope open.
    Z3_ast A = translate(E);
    Z3_solver_push(Z, S);
    Z3_solver_assert(Z, S, A);
    Z3_lbool R = Z3_solver_check(Z, S);
    Z3_solver_pop(Z, S, 1);
    if (R == Z3_L_TRUE)
      return SatResult::Sat;
    if (R == Z3_L_FALSE)
      return SatResult::Unsat;
    return SatResult::Unknown;
  }

  const char *name() const override { return "z3"; }

private:
  Z3_ast var(uint32_t VarId) {
    auto It = Vars.find(VarId);
    if (It != Vars.end())
      return It->second;
    // The variable's identity is its varId, not its display name — two
    // fresh variables may share a name (e.g. per-function locals), and a
    // name-keyed Z3 constant would soundlessly conflate them. Suffix the
    // id so distinct Expr variables stay distinct in Z3.
    std::string Sym_ = Ctx.varName(VarId) + "#" + std::to_string(VarId);
    Z3_symbol Sym = Z3_mk_string_symbol(Z, Sym_.c_str());
    Z3_ast A = Z3_mk_const(Z, Sym, Ctx.varIsBool(VarId) ? BoolSort : IntSort);
    Vars.emplace(VarId, A);
    return A;
  }

  Z3_ast translate(const Expr *E) {
    auto It = Memo.find(E);
    if (It != Memo.end())
      return It->second;

    // Iterative post-order; condition DAGs can be deep.
    std::vector<std::pair<const Expr *, bool>> Stack{{E, false}};
    while (!Stack.empty()) {
      auto [Cur, Visited] = Stack.back();
      Stack.pop_back();
      if (Memo.count(Cur))
        continue;
      if (!Visited) {
        Stack.push_back({Cur, true});
        for (const Expr *Op : Cur->operands())
          if (!Memo.count(Op))
            Stack.push_back({Op, false});
        continue;
      }
      Memo[Cur] = translateNode(Cur);
    }
    return Memo[E];
  }

  Z3_ast translateNode(const Expr *E) {
    auto Op = [&](unsigned I) { return Memo[E->operand(I)]; };
    switch (E->kind()) {
    case ExprKind::True:
      return Z3_mk_true(Z);
    case ExprKind::False:
      return Z3_mk_false(Z);
    case ExprKind::BoolVar:
    case ExprKind::IntVar:
      return var(E->varId());
    case ExprKind::IntConst:
      return Z3_mk_int64(Z, E->constValue(), IntSort);
    case ExprKind::Not:
      return Z3_mk_not(Z, Op(0));
    case ExprKind::And: {
      Z3_ast Args[2] = {Op(0), Op(1)};
      return Z3_mk_and(Z, 2, Args);
    }
    case ExprKind::Or: {
      Z3_ast Args[2] = {Op(0), Op(1)};
      return Z3_mk_or(Z, 2, Args);
    }
    case ExprKind::Eq:
      return Z3_mk_eq(Z, Op(0), Op(1));
    case ExprKind::Ne:
      return Z3_mk_not(Z, Z3_mk_eq(Z, Op(0), Op(1)));
    case ExprKind::Lt:
      return Z3_mk_lt(Z, Op(0), Op(1));
    case ExprKind::Le:
      return Z3_mk_le(Z, Op(0), Op(1));
    case ExprKind::Gt:
      return Z3_mk_gt(Z, Op(0), Op(1));
    case ExprKind::Ge:
      return Z3_mk_ge(Z, Op(0), Op(1));
    case ExprKind::Add: {
      Z3_ast Args[2] = {Op(0), Op(1)};
      return Z3_mk_add(Z, 2, Args);
    }
    case ExprKind::Sub: {
      Z3_ast Args[2] = {Op(0), Op(1)};
      return Z3_mk_sub(Z, 2, Args);
    }
    case ExprKind::Mul: {
      Z3_ast Args[2] = {Op(0), Op(1)};
      return Z3_mk_mul(Z, 2, Args);
    }
    case ExprKind::Neg:
      return Z3_mk_unary_minus(Z, Op(0));
    case ExprKind::Ite:
      return Z3_mk_ite(Z, Op(0), Op(1), Op(2));
    }
    return Z3_mk_true(Z); // Unreachable; all kinds covered.
  }

  ExprContext &Ctx;
  Z3_context Z;
  Z3_solver S; ///< Reused by every query, one push/pop scope each.
  Z3_sort IntSort, BoolSort;
  std::unordered_map<uint32_t, Z3_ast> Vars;
  std::unordered_map<const Expr *, Z3_ast> Memo;
};

} // namespace

std::unique_ptr<Solver> createZ3Solver(ExprContext &Ctx,
                                       const SolverConfig &Cfg) {
  return std::make_unique<Z3Solver>(Ctx, Cfg);
}

} // namespace pinpoint::smt

#else // !PINPOINT_HAS_Z3

namespace pinpoint::smt {
std::unique_ptr<Solver> createZ3Solver(ExprContext &, const SolverConfig &) {
  return nullptr;
}
} // namespace pinpoint::smt

#endif
