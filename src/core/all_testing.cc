#include "core/all_testing.h"

#include "cq/hypergraph.h"
#include "cq/properties.h"
#include "eval/normalize.h"

namespace omqe {

StatusOr<std::unique_ptr<AllTester>> AllTester::Create(const OMQ& omq,
                                                       const Database& db,
                                                       const QdcOptions& options) {
  if (!omq.IsGuarded()) {
    return Status::InvalidArgument("ontology is not guarded");
  }
  if (!omq.IsFreeConnexAcyclic()) {
    return Status::InvalidArgument("all-testing requires a free-connex acyclic OMQ");
  }
  const CQ& q = omq.query;
  auto chase = QueryDirectedChase(db, omq.ontology, q, options);
  if (!chase.ok()) return chase.status();

  auto tester = std::unique_ptr<AllTester>(new AllTester());
  tester->answer_vars_.assign(q.answer_vars().begin(), q.answer_vars().end());
  tester->num_vars_ = q.num_vars();
  tester->chase_ = std::move(chase).value();

  // Join forest of atoms + guard; removing the guard splits the atoms into
  // groups that are acyclic and free-connex acyclic (Prop 4.2).
  std::vector<VarSet> edges;
  for (const Atom& a : q.atoms()) edges.push_back(CQ::AtomVars(a));
  const int guard = static_cast<int>(edges.size());
  edges.push_back(q.AnswerVarSet());
  auto forest = GyoJoinForest(edges);
  OMQE_CHECK(forest.has_value());  // guaranteed by IsFreeConnexAcyclic
  ReRoot(&*forest, guard);

  // Group atoms by the child-of-guard subtree containing them (atoms in
  // other trees of the forest form their own groups).
  std::vector<int> group_of(q.atoms().size(), -1);
  int num_groups = 0;
  for (int v : forest->PreOrder()) {
    if (v == guard) continue;
    int p = forest->parent[v];
    group_of[v] = (p == -1 || p == guard) ? num_groups++ : group_of[p];
  }
  std::vector<std::vector<int>> groups(num_groups);
  for (size_t a = 0; a < q.atoms().size(); ++a) {
    groups[group_of[a]].push_back(static_cast<int>(a));
  }

  for (const std::vector<int>& group : groups) {
    CQ sub = InducedSubquery(q, group);
    Normalized part;
    OMQE_RETURN_IF_ERROR(Normalize(sub, tester->chase_->db,
                                   /*answers_constants_only=*/true, &part));
    if (part.empty) tester->always_false_ = true;
    for (const NormTree& tree : part.trees) {
      for (const NormNode& node : tree.nodes) {
        NodeRows& set = tester->nodes_.emplace_back();
        set.vars = node.vars;
        const uint32_t rows = node.rel.NumRows();
        set.rows.Reserve(rows, static_cast<size_t>(rows) * node.rel.width());
        for (uint32_t r = 0; r < rows; ++r) {
          set.rows.InsertOrGet(node.rel.Row(r), node.rel.width(), 1);
        }
      }
    }
  }
  return tester;
}

bool AllTester::Test(const ValueTuple& candidate) const {
  OMQE_CHECK(candidate.size() == answer_vars_.size());
  if (always_false_) return false;
  // Coherence: repeated answer variables need equal values; values must be
  // database constants.
  SmallVec<Value, 16> binding;
  binding.resize(num_vars_, 0xffffffffu);
  for (uint32_t i = 0; i < candidate.size(); ++i) {
    if (!IsConstant(candidate[i])) return false;
    Value& slot = binding[answer_vars_[i]];
    if (slot == 0xffffffffu) {
      slot = candidate[i];
    } else if (slot != candidate[i]) {
      return false;
    }
  }
  ValueTuple row;
  for (const NodeRows& node : nodes_) {
    row.clear();
    for (uint32_t v : node.vars) row.push_back(binding[v]);
    if (node.rows.Find(row.data(), row.size()) == nullptr) return false;
  }
  return true;
}

}  // namespace omqe
