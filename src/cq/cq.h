// Conjunctive queries. Variables are query-local dense ids; terms are
// tagged 32-bit words holding either a variable or a constant Value.
//
// A CQ q(x̄) <- phi(x̄, ȳ) keeps its answer tuple x̄ in order (repetitions
// allowed, as in the paper); the preprocessing pipeline normalizes
// repetitions away.
#ifndef OMQE_CQ_CQ_H_
#define OMQE_CQ_CQ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/small_vec.h"
#include "base/status.h"
#include "data/schema.h"
#include "data/value.h"

namespace omqe {

/// Terms: bit 31 set -> variable id in the low bits; otherwise a constant
/// Value (constants always have bit 31 clear).
using Term = uint32_t;
constexpr Term MakeVarTerm(uint32_t var) { return 0x80000000u | var; }
constexpr bool IsVarTerm(Term t) { return (t & 0x80000000u) != 0; }
constexpr uint32_t VarOf(Term t) { return t & 0x7fffffffu; }
constexpr Term MakeConstTerm(Value c) { return c; }
constexpr Value ConstOf(Term t) { return t; }

struct Atom {
  RelId rel;
  SmallVec<Term, 4> terms;

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.rel == b.rel && a.terms == b.terms;
  }
};

/// Set of variables as a 64-bit mask. Queries are data-complexity constants,
/// so 64 variables is plenty; construction CHECKs the limit and ParseCQ
/// rejects text that exceeds it.
using VarSet = uint64_t;
constexpr VarSet VarBit(uint32_t v) { return VarSet{1} << v; }
constexpr uint32_t kMaxQueryVars = 64;

class CQ {
 public:
  CQ() = default;

  /// Registers a variable name, returning its id (existing id if repeated).
  uint32_t AddVar(std::string name);
  /// Returns the id for `name` or UINT32_MAX.
  uint32_t FindVar(const std::string& name) const;

  void AddAtom(Atom atom) { atoms_.push_back(std::move(atom)); }
  void AddAnswerVar(uint32_t var) { answer_vars_.push_back(var); }

  uint32_t num_vars() const { return static_cast<uint32_t>(var_names_.size()); }
  const std::vector<Atom>& atoms() const { return atoms_; }
  std::vector<Atom>& mutable_atoms() { return atoms_; }
  const std::vector<uint32_t>& answer_vars() const { return answer_vars_; }
  std::vector<uint32_t>& mutable_answer_vars() { return answer_vars_; }
  const std::string& var_name(uint32_t v) const { return var_names_[v]; }

  uint32_t arity() const { return static_cast<uint32_t>(answer_vars_.size()); }
  bool IsBoolean() const { return answer_vars_.empty(); }

  /// Variables occurring in `atom` as a mask.
  static VarSet AtomVars(const Atom& atom);
  /// All variables of the query that occur in some atom.
  VarSet AllVars() const;
  /// Answer variables as a set.
  VarSet AnswerVarSet() const;
  /// Variables that are quantified (occur in an atom, not in the head).
  VarSet QuantifiedVarSet() const { return AllVars() & ~AnswerVarSet(); }

  /// Distinct constants used in the query.
  std::vector<Value> Constants() const;

  /// True when no relation symbol occurs in two atoms.
  bool IsSelfJoinFree() const;

  /// Renders the query using `vocab` for relation/constant names.
  std::string ToString(const Vocabulary& vocab) const;

 private:
  std::vector<Atom> atoms_;
  std::vector<uint32_t> answer_vars_;
  std::vector<std::string> var_names_;
};

}  // namespace omqe

#endif  // OMQE_CQ_CQ_H_
