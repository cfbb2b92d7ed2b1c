#include "cq/cq.h"

#include <algorithm>

namespace omqe {

uint32_t CQ::AddVar(std::string name) {
  for (uint32_t i = 0; i < var_names_.size(); ++i) {
    if (var_names_[i] == name) return i;
  }
  OMQE_CHECK(var_names_.size() < kMaxQueryVars);  // VarSet is a 64-bit mask
  var_names_.push_back(std::move(name));
  return static_cast<uint32_t>(var_names_.size() - 1);
}

uint32_t CQ::FindVar(const std::string& name) const {
  for (uint32_t i = 0; i < var_names_.size(); ++i) {
    if (var_names_[i] == name) return i;
  }
  return UINT32_MAX;
}

VarSet CQ::AtomVars(const Atom& atom) {
  VarSet s = 0;
  for (Term t : atom.terms) {
    if (IsVarTerm(t)) s |= VarBit(VarOf(t));
  }
  return s;
}

VarSet CQ::AllVars() const {
  VarSet s = 0;
  for (const Atom& a : atoms_) s |= AtomVars(a);
  return s;
}

VarSet CQ::AnswerVarSet() const {
  VarSet s = 0;
  for (uint32_t v : answer_vars_) s |= VarBit(v);
  return s;
}

std::vector<Value> CQ::Constants() const {
  std::vector<Value> out;
  for (const Atom& a : atoms_) {
    for (Term t : a.terms) {
      if (!IsVarTerm(t)) out.push_back(ConstOf(t));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool CQ::IsSelfJoinFree() const {
  for (size_t i = 0; i < atoms_.size(); ++i) {
    for (size_t j = i + 1; j < atoms_.size(); ++j) {
      if (atoms_[i].rel == atoms_[j].rel) return false;
    }
  }
  return true;
}

std::string CQ::ToString(const Vocabulary& vocab) const {
  std::string out = "q(";
  for (size_t i = 0; i < answer_vars_.size(); ++i) {
    if (i > 0) out += ',';
    out += var_names_[answer_vars_[i]];
  }
  out += ") :- ";
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (i > 0) out += ", ";
    out += vocab.RelationName(atoms_[i].rel);
    out += '(';
    for (uint32_t k = 0; k < atoms_[i].terms.size(); ++k) {
      if (k > 0) out += ',';
      Term t = atoms_[i].terms[k];
      if (IsVarTerm(t)) {
        out += var_names_[VarOf(t)];
      } else {
        out += '\'';
        out += vocab.ValueName(ConstOf(t));
        out += '\'';
      }
    }
    out += ')';
  }
  return out;
}

}  // namespace omqe
