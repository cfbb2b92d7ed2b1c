#include "core/prepared.h"

#include <algorithm>
#include <string>

#include "base/trace.h"
#include "eval/brute.h"  // kNoValue

namespace omqe {

namespace {

// A partial-answer subtree is a 64-bit mask over q1's nodes.
constexpr size_t kMaxTreeNodes = 64;

/// Refuses a query whose q1 has more than 64 nodes. q1's shape depends on
/// the query alone, so this runs before the chase.
Status CheckPartialShape(const CQ& q) {
  const size_t nodes = Q1Nodes(q).size();
  if (nodes > kMaxTreeNodes) {
    return Status::InvalidArgument(
        "query normalizes to " + std::to_string(nodes) +
        " tree nodes; partial answers support at most 64");
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
    p->CollectProgressTrees();
    // The artifact outlives the build by design (it backs long-running
    // sessions); drop the table only the build probes.
    p->subtree_by_mask_ = FlatMap<uint64_t, uint32_t>();
    span.set_arg(p->pool_.size());
  }
  return std::shared_ptr<const PreparedOMQ>(std::move(p));
}

void PreparedOMQ::BuildSlots() {
  for (size_t t = 0; t < partial_norm_.trees.size(); ++t) {
    const NormTree& tree = partial_norm_.trees[t];
    const int first = static_cast<int>(slots_.size());
    for (size_t n = 0; n < tree.nodes.size(); ++n) {
      const NormNode& node = tree.nodes[n];
      Slot& slot = slots_.emplace_back();
      slot.tree = static_cast<int>(t);
      slot.node = static_cast<int>(n);
      slot.vars = node.vars;
      slot.pred_vars = node.pred_vars;
      for (int c : node.children) slot.children.push_back(first + c);
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

void PreparedOMQ::AddProgressTree(uint32_t subtree,
                                  const std::vector<Value>& hom) {
  PTree& tree = pool_.emplace_back();
  tree.subtree = subtree;
  tree.list = static_cast<uint32_t>(list_begin_.size() - 1);
  VarSet stars = 0;
  for (uint32_t v : subtrees_[subtree].vars) {
    Value val = hom[v];
    if (IsNull(val)) {
      stars |= VarBit(v);
      val = kStar;
    }
    tree.g.push_back(val);
  }
  // Excursions from one slot mostly repeat the last star pattern, so this
  // keeps the list short; CollectProgressTrees drops the other repeats.
  const StarPattern pattern{subtree, stars};
  if (stars != 0 &&
      (star_patterns_.empty() || star_patterns_.back() != pattern)) {
    star_patterns_.push_back(pattern);
  }
}

void PreparedOMQ::CollectFromRow(int slot, uint32_t row) {
  // Every homomorphism of the subtree that the row's nulls force from
  // `slot`: a null predecessor value forces the child that shares it
  // (condition (2)). `pending` holds the forced slots not yet bound; bind
  // gives slot s row r, then each of the next pending slot's rows in turn.
  std::vector<Value> hom(num_vars_, kNoValue);
  std::vector<int> pending;
  uint64_t mask = 0;
  auto bind = [&](auto& self, int s, uint32_t r) -> void {
    const NormNode& node = NodeOf(s);
    const Value* tuple = node.rel.Row(r);
    // s shares only its predecessor variables with the slots bound before
    // it (q1's tree is a join tree), and its index matched those.
    SmallVec<uint32_t, 8> bound;
    for (size_t i = 0; i < node.vars.size(); ++i) {
      if (hom[node.vars[i]] == kNoValue) {
        hom[node.vars[i]] = tuple[i];
        bound.push_back(node.vars[i]);
      }
    }
    mask |= uint64_t{1} << s;
    const size_t depth = pending.size();
    for (int c : slots_[s].children) {
      if (std::any_of(slots_[c].pred_vars.begin(), slots_[c].pred_vars.end(),
                      [&](uint32_t pv) { return IsNull(hom[pv]); })) {
        pending.push_back(c);
      }
    }
    if (pending.empty()) {
      AddProgressTree(SubtreeIdFor(mask, slot), hom);
    } else {
      const int c = pending.back();
      pending.pop_back();
      ValueTuple key;
      for (uint32_t pv : slots_[c].pred_vars) key.push_back(hom[pv]);
      const RowIndex& index = NodeOf(c).index;
      for (uint32_t cr = index.First(key.data()); cr != UINT32_MAX;
           cr = index.Next(cr)) {
        self(self, c, cr);
      }
      pending.push_back(c);
    }
    pending.resize(depth);
    mask &= ~(uint64_t{1} << s);
    for (uint32_t v : bound) hom[v] = kNoValue;
  };
  bind(bind, slot, row);
}

void PreparedOMQ::CollectProgressTrees() {
  // Prune's location probes mostly miss, and a miss scans to the next empty
  // slot, so the location table's slots are sized from the total row count
  // (every row roots at most one single-atom progress tree): sparser than
  // its starred trees alone would leave it. Its key arena, the pool and the
  // list table grow to their real size.
  size_t total_rows = 0;
  for (int s = 0; s < static_cast<int>(slots_.size()); ++s) {
    total_rows += NodeOf(s).rel.NumRows();
  }
  location_.Reserve(total_rows);

  // A list trees(v, h) roots exactly at the rows of h's chain in v's
  // predecessor index, so each list is collected from its chain, starting
  // at the chain's head. Bulk-built chains ascend, so scanning rows in
  // order, the first row of a chain not yet walked is its head. A row with
  // a null predecessor value roots no tree; it only appears deeper inside
  // other slots' excursions.
  list_begin_.assign(1, 0);
  ValueTuple list_key;           // [slot, h|pred...]
  std::vector<ListOrder> order;  // CloseList's scratch, freed on return
  for (int s = 0; s < static_cast<int>(slots_.size()); ++s) {
    const NormNode& node = NodeOf(s);
    const uint32_t width = node.rel.width();
    const uint32_t single_subtree = SubtreeIdFor(uint64_t{1} << s, s);
    std::vector<bool> walked(node.rel.NumRows());
    for (uint32_t head = 0; head < node.rel.NumRows(); ++head) {
      if (walked[head]) continue;
      list_key.clear();
      list_key.push_back(static_cast<uint32_t>(s));
      const Value* first = node.rel.Row(head);
      bool pred_null = false;
      for (uint32_t c : node.index.key_columns()) {
        pred_null |= IsNull(first[c]);
        list_key.push_back(first[c]);
      }
      if (pred_null) continue;
      const uint32_t list = static_cast<uint32_t>(list_begin_.size() - 1);
      for (uint32_t r = head; r != UINT32_MAX; r = node.index.Next(r)) {
        walked[r] = true;
        const Value* tuple = node.rel.Row(r);
        if (std::none_of(tuple, tuple + width, IsNull)) {
          // A single-atom database tree. The node's columns are its
          // variables in ascending order, which is exactly the subtree's
          // variable order, so the row itself is the binding g.
          pool_.push_back(
              PTree{single_subtree, list, ValueTuple(tuple, tuple + width)});
        } else {
          CollectFromRow(s, r);  // the root of a null excursion
        }
      }
      CloseList(list_key, &order);
    }
  }
  pool_.shrink_to_fit();
  list_begin_.shrink_to_fit();
  // Sorted and distinct: Prune probes each pattern once, in a fixed order.
  std::sort(star_patterns_.begin(), star_patterns_.end());
  star_patterns_.erase(
      std::unique(star_patterns_.begin(), star_patterns_.end()),
      star_patterns_.end());
  star_patterns_.shrink_to_fit();
}

// Closes the open list, the pool's ids from list_begin_.back() on: sorts it
// database-preferring (Prop 5.5), drops repeats and enters its trees and
// the list under their final ids. The layout is each list's initial order,
// so sessions store links only for trees their pruning touches, and no list
// heads at all: a list's first tree is never pruned. Prune unlinks (q, g'),
// rooted at v, after an output h only when g' equals h off a variable set
// S, is starred on S, and S strictly contains h's stars on var(q). g' binds
// v's predecessor variables to constants (condition (1)), so h has the same
// values there, and (q, g') sits in the list trees(v, h|pred).
//  (a) h binds v's variables to a null-free row. That row's single-atom
//      tree has no stars and is in this list. The order below sorts by
//      subtree size, then star count, so the list's first tree has no
//      stars. A tree without stars is never pruned, by construction: only
//      starred trees enter the location table, Prune's one way to a tree.
//  (b) That row has a null, so it roots an excursion: CollectFromRow puts
//      (q_h, h|var(q_h)) into the same list, where q_h is the subtree that
//      h's nulls force from v. Every child that h forces, g' forces too,
//      because h's stars on var(q) lie inside S. So q_h ⊆ q, and
//      (q_h, h|var(q_h)) has fewer stars than |S|: it sorts before (q, g').
// LinkOverlay::Unlink checks this.
void PreparedOMQ::CloseList(const ValueTuple& list_key,
                            std::vector<ListOrder>* order) {
  const uint32_t begin = list_begin_.back();
  const uint32_t n = static_cast<uint32_t>(pool_.size()) - begin;
  order->clear();
  for (uint32_t id = begin; id < pool_.size(); ++id) {
    const PTree& t = pool_[id];
    const uint64_t mask = subtrees_[t.subtree].mask;
    order->push_back(ListOrder{
        static_cast<uint32_t>(__builtin_popcountll(mask)),
        static_cast<uint32_t>(std::count(t.g.begin(), t.g.end(), kStar)), mask,
        id});
  }
  std::sort(order->begin(), order->end(),
            [&](const ListOrder& a, const ListOrder& b) {
              if (a.size != b.size) return a.size < b.size;  // V_q ⊊ V_q' first
              if (a.stars != b.stars) return a.stars < b.stars;  // fewer stars first
              if (a.mask != b.mask) return a.mask < b.mask;
              return pool_[a.id].g < pool_[b.id].g;  // deterministic tie-break
            });
  // Move each tree to its sorted place, one cycle of the permutation at a
  // time; a placed entry's id becomes its own place.
  for (uint32_t k = 0; k < n; ++k) {
    if ((*order)[k].id == begin + k) continue;
    PTree held = std::move(pool_[begin + k]);
    for (uint32_t j = k;;) {
      const uint32_t from = (*order)[j].id;
      (*order)[j].id = begin + j;
      if (from == begin + k) {
        pool_[begin + j] = std::move(held);
        break;
      }
      pool_[begin + j] = std::move(pool_[from]);
      j = from - begin;
    }
  }
  // Rows that differ only in their nulls give the same tree. A tree fixes
  // its root slot and the root's predecessor values, so repeats only occur
  // inside one list, where the sort leaves them adjacent.
  pool_.erase(std::unique(pool_.begin() + begin, pool_.end(),
                          [](const PTree& a, const PTree& b) {
                            return a.subtree == b.subtree && a.g == b.g;
                          }),
              pool_.end());
  // Full reduction leaves every row a match in each child, so a chain head
  // always roots a tree.
  OMQE_CHECK(pool_.size() > begin);
  ValueTuple loc_key;  // [subtree, g...]
  for (uint32_t id = begin; id < pool_.size(); ++id) {
    if (!pool_[id].g.contains(kStar)) continue;  // no Prune probe finds it
    loc_key.clear();
    loc_key.push_back(pool_[id].subtree);
    for (Value v : pool_[id].g) loc_key.push_back(v);
    location_.Put(loc_key.data(), loc_key.size(), id);
  }
  list_ids_.Put(list_key.data(), list_key.size(),
                static_cast<uint32_t>(list_begin_.size() - 1));
  list_begin_.push_back(static_cast<uint32_t>(pool_.size()));
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
  if (walker_ == nullptr || !walker_->Next()) return false;  // or moved from
  out->clear();
  for (uint32_t v : prepared_->answer_vars()) out->push_back(walker_->assignment()[v]);
  return true;
}

}  // namespace omqe
