#include "core/prepared.h"

#include <algorithm>
#include <string>

#include "base/trace.h"
#include "cq/hypergraph.h"
#include "eval/brute.h"  // kNoValue

namespace omqe {

namespace {

// A partial-answer subtree is a 64-bit mask over q1's nodes, and the build
// enumerates every connected subtree rooted at each node.
constexpr size_t kMaxTreeNodes = 64;
constexpr uint64_t kMaxSubtreesPerNode = uint64_t{1} << 20;

/// Refuses a query whose q1 has more than 64 nodes, or a node rooting more
/// than 2^20 connected subtrees. q1's shape depends on the query alone, so
/// this runs before the chase.
Status CheckPartialShape(const CQ& q) {
  std::vector<VarSet> nodes;
  for (const Q1Node& n : Q1Nodes(q)) nodes.push_back(n.vars);
  if (nodes.size() > kMaxTreeNodes) {
    return Status::InvalidArgument(
        "query normalizes to " + std::to_string(nodes.size()) +
        " tree nodes; partial answers support at most 64");
  }
  auto forest = GyoJoinForest(nodes);
  if (!forest.has_value()) return Status::OK();  // Normalize reports it
  // Node v roots the product over its children c of (1 + subtrees(c)).
  std::vector<uint64_t> subtrees(nodes.size());
  for (int v : forest->BottomUp()) {
    uint64_t n = 1;
    for (int c : forest->children[v]) {
      n *= 1 + subtrees[c];
      if (n > kMaxSubtreesPerNode) {
        return Status::InvalidArgument(
            "query has more than 2^20 subtrees at one node; partial answers "
            "support at most 2^20");
      }
    }
    subtrees[v] = n;
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// PreparedOMQ: the once-only preprocessing phase.
// ---------------------------------------------------------------------------

StatusOr<std::shared_ptr<const PreparedOMQ>> PreparedOMQ::Prepare(
    const OMQ& omq, const Database& db, const PrepareOptions& options) {
  if (!omq.IsGuarded()) {
    return Status::InvalidArgument("ontology is not guarded");
  }
  if (!omq.IsAcyclic() || !omq.IsFreeConnexAcyclic()) {
    return Status::InvalidArgument(
        "enumeration requires an acyclic and free-connex acyclic OMQ");
  }
  if (!options.for_complete && !options.for_partial) {
    return Status::InvalidArgument(
        "PrepareOptions must request at least one of complete / partial");
  }
  if (options.for_partial && db.HasNulls()) {
    return Status::InvalidArgument("input databases must be null-free");
  }
  if (options.for_partial) OMQE_RETURN_IF_ERROR(CheckPartialShape(omq.query));
  StatusOr<std::shared_ptr<ChaseResult>> chase = [&] {
    trace::ScopedSpan span("prepare.chase", db.TotalFacts());
    return QueryDirectedChase(db, omq.ontology, omq.query, options.chase);
  }();
  if (!chase.ok()) return chase.status();

  auto p = std::shared_ptr<PreparedOMQ>(new PreparedOMQ());
  p->query_ = omq.query;
  p->answer_vars_.assign(omq.query.answer_vars().begin(),
                         omq.query.answer_vars().end());
  p->num_vars_ = omq.query.num_vars();
  p->for_complete_ = options.for_complete;
  p->for_partial_ = options.for_partial;
  p->chase_ = std::move(chase).value();
  if (options.for_complete) {
    trace::ScopedSpan span("prepare.normalize");
    OMQE_RETURN_IF_ERROR(Normalize(omq.query, p->chase_->db,
                                   /*answers_constants_only=*/true,
                                   &p->complete_norm_));
  }
  if (options.for_partial) {
    {
      trace::ScopedSpan span("prepare.normalize");
      OMQE_RETURN_IF_ERROR(Normalize(omq.query, p->chase_->db,
                                     /*answers_constants_only=*/false,
                                     &p->partial_norm_));
    }
    trace::ScopedSpan span("prepare.collect_trees");
    p->BuildSlots();
    p->BuildSubtrees();
    p->CollectProgressTrees();
    p->LinkLists();
    p->ReleaseBuildState();
    span.set_arg(p->pool_.size());
  }
  return std::shared_ptr<const PreparedOMQ>(std::move(p));
}

void PreparedOMQ::ReleaseBuildState() {
  // The artifact outlives the build by design (it backs long-running
  // sessions); drop the tables only the build phase probes.
  node_to_slot_ = {};
  subtree_by_mask_ = FlatMap<uint64_t, uint32_t>();
  scratch_g_ = ValueTuple();
  scratch_pred_ = ValueTuple();
  scratch_loc_key_ = ValueTuple();
  scratch_list_key_ = ValueTuple();
}

void PreparedOMQ::BuildSlots() {
  node_to_slot_.resize(partial_norm_.trees.size());
  for (size_t t = 0; t < partial_norm_.trees.size(); ++t) {
    node_to_slot_[t].assign(partial_norm_.trees[t].nodes.size(), -1);
    for (int n : partial_norm_.trees[t].preorder) {
      node_to_slot_[t][n] = static_cast<int>(slots_.size());
      Slot slot;
      slot.tree = static_cast<int>(t);
      slot.node = n;
      slot.vars = partial_norm_.trees[t].nodes[n].vars;
      slot.pred_vars = partial_norm_.trees[t].nodes[n].pred_vars;
      slots_.push_back(std::move(slot));
    }
    for (int n : partial_norm_.trees[t].preorder) {
      int s = node_to_slot_[t][n];
      for (int c : partial_norm_.trees[t].nodes[n].children) {
        slots_[s].children.push_back(node_to_slot_[t][c]);
      }
    }
  }
  OMQE_CHECK(slots_.size() <= kMaxTreeNodes);  // CheckPartialShape
}

uint32_t PreparedOMQ::SubtreeIdFor(uint64_t mask, int root_slot) {
  uint32_t fresh = static_cast<uint32_t>(subtrees_.size());
  uint32_t& id = subtree_by_mask_.InsertOrGet(mask, fresh);
  if (id == fresh) {
    Subtree st;
    st.root_slot = root_slot;
    st.mask = mask;
    VarSet vars = 0;
    uint64_t m = mask;
    while (m) {
      int s = __builtin_ctzll(m);
      m &= m - 1;
      for (uint32_t v : slots_[s].vars) vars |= VarBit(v);
    }
    st.var_set = vars;
    while (vars) {
      uint32_t v = static_cast<uint32_t>(__builtin_ctzll(vars));
      vars &= vars - 1;
      st.vars.push_back(v);
    }
    subtrees_.push_back(std::move(st));
  }
  return id;
}

void PreparedOMQ::BuildSubtrees() {
  // Bottom-up: combos(s) = all connected subgraph masks rooted at s.
  std::vector<std::vector<uint64_t>> combos(slots_.size());
  for (int s = static_cast<int>(slots_.size()); s-- > 0;) {
    std::vector<uint64_t> acc{uint64_t{1} << s};
    for (int c : slots_[s].children) {
      std::vector<uint64_t> next;
      next.reserve(acc.size() * (1 + combos[c].size()));
      for (uint64_t base : acc) {
        next.push_back(base);  // child excluded
        for (uint64_t cm : combos[c]) next.push_back(base | cm);
      }
      acc = std::move(next);
      OMQE_CHECK(acc.size() <= kMaxSubtreesPerNode);  // CheckPartialShape
    }
    combos[s] = std::move(acc);
  }
  for (int s = 0; s < static_cast<int>(slots_.size()); ++s) {
    for (uint64_t mask : combos[s]) SubtreeIdFor(mask, s);
  }
}

void PreparedOMQ::AddProgressTree(uint32_t subtree,
                                  const std::vector<Value>& hom) {
  const Subtree& st = subtrees_[subtree];
  ValueTuple& g = scratch_g_;
  g.clear();
  VarSet stars = 0;
  for (uint32_t v : st.vars) {
    Value val = hom[v];
    if (IsNull(val)) {
      stars |= VarBit(v);
      val = kStar;
    }
    g.push_back(val);
  }
  // Condition (1): the root's predecessor variables must be constants.
  ValueTuple& pred = scratch_pred_;
  pred.clear();
  for (uint32_t pv : slots_[st.root_slot].pred_vars) {
    Value val = hom[pv];
    if (IsNull(val)) return;
    pred.push_back(val);
  }
  CommitTree(subtree, st.root_slot, g.data(), g.size(), pred.data(),
             pred.size());
  // Excursions from one slot mostly repeat the last star pattern, so this
  // keeps the list short; CollectProgressTrees drops the other repeats.
  const StarPattern pattern{subtree, stars};
  if (stars != 0 &&
      (star_patterns_.empty() || star_patterns_.back() != pattern)) {
    star_patterns_.push_back(pattern);
  }
}

void PreparedOMQ::CommitTree(uint32_t subtree, int root_slot, const Value* g,
                             uint32_t g_len, const Value* pred_vals,
                             uint32_t pred_len) {
  // Dedup via the location table.
  ValueTuple& loc_key = scratch_loc_key_;
  loc_key.clear();
  loc_key.push_back(subtree);
  for (uint32_t i = 0; i < g_len; ++i) loc_key.push_back(g[i]);
  uint32_t fresh = static_cast<uint32_t>(pool_.size());
  uint32_t& id = location_.InsertOrGet(loc_key.data(), loc_key.size(), fresh);
  if (id != fresh) return;

  PTree tree;
  tree.subtree = subtree;
  tree.g = ValueTuple(g, g + g_len);
  // The owning list: trees(root, h restricted to the root's pred vars).
  ValueTuple& list_key = scratch_list_key_;
  list_key.clear();
  list_key.push_back(static_cast<uint32_t>(root_slot));
  for (uint32_t i = 0; i < pred_len; ++i) list_key.push_back(pred_vals[i]);
  tree.list = list_ids_.InsertOrGet(list_key.data(), list_key.size(),
                                    static_cast<uint32_t>(list_ids_.size()));
  pool_.push_back(std::move(tree));
}

void PreparedOMQ::CollectFromRow(int slot, uint32_t row) {
  // Assemble homomorphisms of the forced subtree rooted at `slot` starting
  // from `row`; every null forces the children sharing it (condition (2)).
  std::vector<Value> hom(num_vars_, kNoValue);
  uint64_t mask = 0;

  // Recursive lambda over (slot, row) with explicit backtracking.
  struct Rec {
    PreparedOMQ* self;
    std::vector<Value>& hom;
    uint64_t& mask;
    int root;

    bool BindNode(int s, uint32_t r, SmallVec<uint32_t, 8>* bound) {
      const NormNode& node = self->partial_norm_.trees[self->slots_[s].tree]
                                 .nodes[self->slots_[s].node];
      const Value* tuple = node.rel.Row(r);
      for (size_t i = 0; i < node.vars.size(); ++i) {
        uint32_t v = node.vars[i];
        if (hom[v] == kNoValue) {
          hom[v] = tuple[i];
          bound->push_back(v);
        } else if (hom[v] != tuple[i]) {
          for (uint32_t b : *bound) hom[b] = kNoValue;
          return false;
        }
      }
      return true;
    }

    void Go(int s, uint32_t r) {
      SmallVec<uint32_t, 8> bound;
      if (!BindNode(s, r, &bound)) return;
      mask |= uint64_t{1} << s;
      // Children forced by a null predecessor variable.
      SmallVec<uint32_t, 8> forced;
      for (int c : self->slots_[s].children) {
        bool has_null_pred = false;
        for (uint32_t pv : self->slots_[c].pred_vars) {
          has_null_pred |= IsNull(hom[pv]);
        }
        if (has_null_pred) forced.push_back(static_cast<uint32_t>(c));
      }
      Product(s, forced, 0);
      mask &= ~(uint64_t{1} << s);
      for (uint32_t b : bound) hom[b] = kNoValue;
    }

    // Cross product over the forced children's row choices.
    void Product(int s, const SmallVec<uint32_t, 8>& forced, uint32_t i) {
      if (i == forced.size()) {
        if (s == root) Emit();
        return;
      }
      int c = static_cast<int>(forced[i]);
      const NormNode& node = self->partial_norm_.trees[self->slots_[c].tree]
                                 .nodes[self->slots_[c].node];
      ValueTuple key;
      for (uint32_t pv : self->slots_[c].pred_vars) key.push_back(hom[pv]);
      for (uint32_t r = node.index.First(key.data()); r != UINT32_MAX;
           r = node.index.Next(r)) {
        // Recurse into the child subtree, then continue with the siblings.
        SmallVec<uint32_t, 8> bound;
        if (!BindNode(c, r, &bound)) continue;
        mask |= uint64_t{1} << c;
        SmallVec<uint32_t, 8> grand;
        for (int gc : self->slots_[c].children) {
          bool null_pred = false;
          for (uint32_t pv : self->slots_[gc].pred_vars) {
            null_pred |= IsNull(hom[pv]);
          }
          if (null_pred) grand.push_back(static_cast<uint32_t>(gc));
        }
        // Compose: finish c's forced grandchildren, then the remaining
        // siblings of c. We flatten by appending.
        SmallVec<uint32_t, 8> rest = grand;
        for (uint32_t j = i + 1; j < forced.size(); ++j) rest.push_back(forced[j]);
        Product(s, rest, 0);
        mask &= ~(uint64_t{1} << c);
        for (uint32_t b : bound) hom[b] = kNoValue;
      }
    }

    void Emit() { self->AddProgressTree(self->SubtreeIdFor(mask, root), hom); }
  };

  Rec rec{this, hom, mask, slot};
  rec.Go(slot, row);
}

void PreparedOMQ::CollectProgressTrees() {
  // Prune's location probes mostly miss, and a miss scans to the next empty
  // slot, so the location table is sized from the total row count (every
  // database row contributes at most one single-atom progress tree, keyed by
  // the row's values): sparser than growth alone would leave it. The pool
  // and the list table grow to their real size.
  size_t total_rows = 0;
  size_t total_key_words = 0;
  for (const Slot& slot : slots_) {
    const NormNode& node = partial_norm_.trees[slot.tree].nodes[slot.node];
    total_rows += node.rel.NumRows();
    total_key_words +=
        static_cast<size_t>(node.rel.NumRows()) * (1 + node.rel.width());
  }
  location_.Reserve(total_rows, total_key_words);

  for (int s = 0; s < static_cast<int>(slots_.size()); ++s) {
    const Slot& slot = slots_[s];
    const NormNode& node = partial_norm_.trees[slot.tree].nodes[slot.node];
    const uint32_t width = node.rel.width();
    // Hoisted per-slot state: the single-atom subtree id (one map probe per
    // slot instead of one per row) and the predecessor-variable columns.
    const uint32_t single_subtree = SubtreeIdFor(uint64_t{1} << s, s);
    SmallVec<uint32_t, 8> pred_cols;
    for (uint32_t pv : slot.pred_vars) pred_cols.push_back(node.rel.ColumnOf(pv));
    for (uint32_t r = 0; r < node.rel.NumRows(); ++r) {
      const Value* tuple = node.rel.Row(r);
      bool has_null = false;
      for (uint32_t i = 0; i < width; ++i) has_null |= IsNull(tuple[i]);
      if (!has_null) {
        // Single-atom database progress tree. The node's columns are its
        // variables in ascending order, which is exactly the subtree's
        // variable order, so the row itself is the binding g; condition (1)
        // holds trivially (no nulls anywhere in the row).
        ValueTuple& pred = scratch_pred_;
        pred.clear();
        for (uint32_t c : pred_cols) pred.push_back(tuple[c]);
        CommitTree(single_subtree, s, tuple, width, pred.data(), pred.size());
      } else {
        // Root of a null excursion — unless a predecessor variable is null
        // (then this row only appears deeper inside other excursions).
        bool pred_null = false;
        for (uint32_t c : pred_cols) pred_null |= IsNull(tuple[c]);
        if (!pred_null) CollectFromRow(s, r);
      }
    }
  }
  // Sorted and distinct: Prune probes each pattern once, in a fixed order.
  std::sort(star_patterns_.begin(), star_patterns_.end());
  star_patterns_.erase(
      std::unique(star_patterns_.begin(), star_patterns_.end()),
      star_patterns_.end());
  star_patterns_.shrink_to_fit();
}

// Lays the pool out in list order: list l becomes the ids list_begin_[l] up
// to list_begin_[l + 1], sorted database-preferring (Prop 5.5). The layout
// is each list's initial order, so sessions store links only for trees
// their pruning touches, and no list heads at all: a list's first tree is
// never pruned. Prune unlinks (q, g'), rooted at v, after an output h only
// when g' equals h off a variable set S, is starred on S, and S strictly
// contains h's stars on var(q). g' binds v's predecessor variables to
// constants (condition (1)), so h has the same values there, and (q, g')
// sits in the list trees(v, h|pred).
//  (a) h binds v's variables to a null-free row. That row's single-atom
//      tree has no stars and is in this list. The order below sorts by
//      subtree size, then star count, so the list's first tree has no
//      stars, and a tree without stars is never pruned.
//  (b) That row has a null, so it roots an excursion: CollectFromRow puts
//      (q_h, h|var(q_h)) into the same list, where q_h is the subtree that
//      h's nulls force from v. Every child that h forces, g' forces too,
//      because h's stars on var(q) lie inside S. So q_h ⊆ q, and
//      (q_h, h|var(q_h)) has fewer stars than |S|: it sorts before (q, g').
// LinkOverlay::Unlink checks this.
void PreparedOMQ::LinkLists() {
  // Counting sort of the pool ids by list: order[new id] = old id.
  const size_t lists = list_ids_.size();
  list_begin_.assign(lists + 1, 0);
  for (const PTree& t : pool_) ++list_begin_[t.list + 1];
  for (size_t l = 0; l < lists; ++l) list_begin_[l + 1] += list_begin_[l];
  std::vector<uint32_t> order(pool_.size());
  {
    std::vector<uint32_t> fill(list_begin_.begin(), list_begin_.end() - 1);
    for (uint32_t id = 0; id < pool_.size(); ++id) {
      order[fill[pool_[id].list]++] = id;
    }
  }
  auto stars = [&](const PTree& t) {
    uint32_t n = 0;
    for (Value v : t.g) n += (v == kStar);
    return n;
  };
  auto before = [&](uint32_t a, uint32_t b) {
    const PTree& ta = pool_[a];
    const PTree& tb = pool_[b];
    int pa = __builtin_popcountll(subtrees_[ta.subtree].mask);
    int pb = __builtin_popcountll(subtrees_[tb.subtree].mask);
    if (pa != pb) return pa < pb;                       // V_q ⊊ V_q' first
    uint32_t sa = stars(ta), sb = stars(tb);
    if (sa != sb) return sa < sb;                       // fewer wildcards first
    if (ta.subtree != tb.subtree) return ta.subtree < tb.subtree;
    return ta.g < tb.g;                                 // deterministic tie-break
  };
  for (size_t l = 0; l < lists; ++l) {
    std::sort(order.begin() + list_begin_[l],
              order.begin() + list_begin_[l + 1], before);
  }
  std::vector<uint32_t> renumber(pool_.size());  // old id -> new id
  for (uint32_t id = 0; id < order.size(); ++id) renumber[order[id]] = id;
  order = {};
  location_.ForEachValue([&](uint32_t& id) { id = renumber[id]; });
  // Permute in place, cycle by cycle: each swap puts one tree at its new id
  // (a gather into a second pool would hold two pools at once).
  for (uint32_t id = 0; id < pool_.size(); ++id) {
    while (renumber[id] != id) {
      const uint32_t to = renumber[id];
      std::swap(pool_[id], pool_[to]);
      std::swap(renumber[id], renumber[to]);
    }
  }
}

size_t PreparedOMQ::link_buffers_allocated() const {
  std::lock_guard<std::mutex> lock(buffers_mu_);
  return buffers_allocated_;
}

std::unique_ptr<LinkBuffer> PreparedOMQ::TakeLinkBuffer() const {
  {
    std::lock_guard<std::mutex> lock(buffers_mu_);
    if (!free_buffers_.empty()) {
      std::unique_ptr<LinkBuffer> buffer = std::move(free_buffers_.back());
      free_buffers_.pop_back();
      return buffer;
    }
    ++buffers_allocated_;
  }
  return std::make_unique<LinkBuffer>(pool_.size());
}

void PreparedOMQ::ReturnLinkBuffer(std::unique_ptr<LinkBuffer> cleared) const {
  std::lock_guard<std::mutex> lock(buffers_mu_);
  free_buffers_.push_back(std::move(cleared));
}

// ---------------------------------------------------------------------------
// EnumerationSession: the per-session enumeration phase.
// ---------------------------------------------------------------------------

EnumerationSession::EnumerationSession(
    std::shared_ptr<const PreparedOMQ> prepared)
    : prepared_(std::move(prepared)) {
  OMQE_CHECK(prepared_ != nullptr && prepared_->for_partial());
  const PreparedOMQ& p = *prepared_;
  overlay_.Attach(&p.list_begin_, p.TakeLinkBuffer());
  Reset();
}

EnumerationSession::~EnumerationSession() {
  if (prepared_ != nullptr) prepared_->ReturnLinkBuffer(overlay_.Detach());
}

void EnumerationSession::Reset() {
  if (prepared_ == nullptr) return;  // moved from
  const PreparedOMQ& p = *prepared_;
  h_.assign(p.num_vars_, kNoValue);
  stack_.clear();
  started_ = false;
  boolean_emitted_ = false;
  exhausted_ = p.partial_norm_.empty;
}

int EnumerationSession::NextAtom(int after) const {
  const auto& slots = prepared_->slots_;
  for (int j = after + 1; j < static_cast<int>(slots.size()); ++j) {
    for (uint32_t v : slots[j].vars) {
      if (h_[v] == kNoValue) return j;
    }
  }
  return -1;
}

uint32_t EnumerationSession::ListHeadFor(Frame* frame) {
  key_.clear();
  key_.push_back(static_cast<uint32_t>(frame->slot));
  for (uint32_t pv : prepared_->slots_[frame->slot].pred_vars) {
    key_.push_back(h_[pv]);
  }
  const uint32_t* list = prepared_->list_ids_.Find(key_.data(), key_.size());
  if (list == nullptr) return UINT32_MAX;
  frame->list = *list;
  return prepared_->list_begin_[*list];
}

uint32_t EnumerationSession::AdvanceSkippingDead(uint32_t id,
                                                 uint32_t list) const {
  while (id != UINT32_MAX && !overlay_.alive(id)) id = overlay_.next(id, list);
  return id;
}

void EnumerationSession::BindTree(Frame* frame,
                                  const PreparedOMQ::PTree& tree) {
  const PreparedOMQ::Subtree& st = prepared_->subtrees_[tree.subtree];
  for (size_t i = 0; i < st.vars.size(); ++i) {
    uint32_t v = st.vars[i];
    if (h_[v] == kNoValue) {
      h_[v] = tree.g[i];
      frame->bound.push_back(v);
    }
  }
}

void EnumerationSession::UnbindTree(Frame* frame) {
  for (uint32_t v : frame->bound) h_[v] = kNoValue;
  frame->bound.clear();
}

void EnumerationSession::Prune() {
  // Remove every progress tree strictly more wildcarded than the branch
  // just output: (q, g') with g' ≻db (q, h|var(q)). Such a g' is h with
  // the variables of one of q's recorded star patterns starred, a pattern
  // strictly containing h's stars on var(q); probing those finds them all.
  const PreparedOMQ& p = *prepared_;
  VarSet h_stars = 0;
  for (uint32_t v = 0; v < p.num_vars_; ++v) {
    if (h_[v] == kStar) h_stars |= VarBit(v);
  }
  for (const PreparedOMQ::StarPattern& pat : p.star_patterns_) {
    const PreparedOMQ::Subtree& st = p.subtrees_[pat.subtree];
    const VarSet out = h_stars & st.var_set;
    if ((out & ~pat.stars) != 0 || out == pat.stars) continue;
    key_.clear();
    key_.push_back(pat.subtree);
    for (uint32_t v : st.vars) {
      key_.push_back((pat.stars & VarBit(v)) != 0 ? kStar : h_[v]);
    }
    ++location_probes_;
    const uint32_t* id = p.location_.Find(key_.data(), key_.size());
    if (id != nullptr) overlay_.Unlink(*id, p.pool_[*id].list);
  }
}

bool EnumerationSession::Next(ValueTuple* out) {
  if (exhausted_ || prepared_ == nullptr) return false;  // or moved from
  const PreparedOMQ& p = *prepared_;
  if (p.slots_.empty()) {
    // Boolean query (or one whose components are all Boolean).
    if (boolean_emitted_) {
      exhausted_ = true;
      return false;
    }
    boolean_emitted_ = true;
    out->clear();
    return true;
  }
  if (!started_) {
    started_ = true;
    int first = NextAtom(-1);
    OMQE_CHECK(first >= 0);
    stack_.push_back(Frame{first, 0, UINT32_MAX, {}});
  }
  while (!stack_.empty()) {
    Frame& f = stack_.back();
    UnbindTree(&f);
    uint32_t nxt = f.cur == UINT32_MAX ? ListHeadFor(&f)
                                       : overlay_.next(f.cur, f.list);
    nxt = AdvanceSkippingDead(nxt, f.list);
    if (nxt == UINT32_MAX) {
      stack_.pop_back();
      continue;
    }
    f.cur = nxt;
    BindTree(&f, p.pool_[nxt]);
    int next_slot = NextAtom(f.slot);
    if (next_slot == -1) {
      out->clear();
      for (uint32_t v : p.answer_vars_) out->push_back(h_[v]);
      Prune();
      return true;
    }
    stack_.push_back(Frame{next_slot, 0, UINT32_MAX, {}});
  }
  exhausted_ = true;
  return false;
}

// ---------------------------------------------------------------------------
// CompleteSession.
// ---------------------------------------------------------------------------

CompleteSession::CompleteSession(std::shared_ptr<const PreparedOMQ> prepared)
    : prepared_(std::move(prepared)) {
  OMQE_CHECK(prepared_ != nullptr && prepared_->for_complete());
  walker_ = std::make_unique<TreeWalker>(&prepared_->complete_norm(),
                                         prepared_->num_vars());
}

bool CompleteSession::Next(ValueTuple* out) {
  if (!walker_->Next()) return false;
  out->clear();
  for (uint32_t v : prepared_->answer_vars()) out->push_back(walker_->assignment()[v]);
  return true;
}

}  // namespace omqe
