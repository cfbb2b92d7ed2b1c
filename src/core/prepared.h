// Prepared-query engine: the paper's two-phase contract (Thm 5.2 — linear
// preprocessing, then constant-delay enumeration) split into two types.
//
// PreparedOMQ runs the expensive phase ONCE — query-directed chase, the
// (q1, D1) normalization(s), and progress-tree collection (Lemma 5.3) — and
// is immutable afterwards, save for a locked free list of session link
// buffers. Collection has no subtree-construction pass: it creates each
// subtree the first time a tree uses it, and collects each trees(v, h) list
// in place from its chain in the normalization's predecessor index. One
// prepared query can back any number of concurrent sessions: its chase
// database is frozen (Database::Freeze), its hash tables are only probed
// through const lookups, and ownership is shared_ptr so sessions keep it
// alive.
//
// EnumerationSession holds the per-session mutable state of Algorithm 1:
// the walk stack, the binding h, and — because the paper's ≻db pruning
// (Prop 5.5) mutates the trees(v, h) lists during enumeration — a private
// view (LinkOverlay) of the prev/next/alive links over the pool, which is
// laid out list by list in the database-preferring order, in a flat link
// buffer taken from that free list and handed back cleared. Opening (once a
// buffer is free), resetting and stepping are O(1) in the pool size.
//
// CompleteSession is the analogous cursor for complete answers
// (Theorem 4.1(1)): a TreeWalker over the prepared constants-only
// normalization, which needs no overlay because that walk never mutates.
#ifndef OMQE_CORE_PREPARED_H_
#define OMQE_CORE_PREPARED_H_

#include <compare>
#include <memory>
#include <mutex>
#include <vector>

#include "base/flat_hash.h"
#include "chase/query_directed.h"
#include "core/link_overlay.h"
#include "core/omq.h"
#include "core/tree_walker.h"
#include "eval/normalize.h"

namespace omqe {

struct PrepareOptions {
  QdcOptions chase;
  /// Build the constants-only normalization (CompleteSession support).
  bool for_complete = true;
  /// Build the null-keeping normalization plus the progress-tree machinery
  /// (EnumerationSession support). Requires a null-free input database.
  bool for_partial = true;
};

class PreparedOMQ {
 public:
  /// Runs the full preprocessing phase. Requires omq acyclic + free-connex
  /// acyclic with a guarded ontology; for_partial additionally requires a
  /// null-free input database. The result is immutable and safe to share
  /// across threads, each driving its own session.
  static StatusOr<std::shared_ptr<const PreparedOMQ>> Prepare(
      const OMQ& omq, const Database& db,
      const PrepareOptions& options = PrepareOptions());

  const CQ& query() const { return query_; }
  const std::vector<uint32_t>& answer_vars() const { return answer_vars_; }
  uint32_t num_vars() const { return num_vars_; }
  const ChaseResult& chase() const { return *chase_; }
  bool for_complete() const { return for_complete_; }
  bool for_partial() const { return for_partial_; }
  /// The constants-only normalization (valid when for_complete()).
  const Normalized& complete_norm() const { return complete_norm_; }
  /// The null-keeping normalization (valid when for_partial()).
  const Normalized& partial_norm() const { return partial_norm_; }
  size_t num_progress_trees() const { return pool_.size(); }
  /// Link buffers allocated for sessions: the most partial sessions ever
  /// open at once, since closed ones hand theirs back (O(1) OPEN's pin).
  size_t link_buffers_allocated() const;

 private:
  friend class EnumerationSession;

  /// One q1 atom: the normalization trees' nodes, one tree after another,
  /// so a node's slot is its tree's first slot plus its node index, and a
  /// parent's slot precedes its children's.
  struct Slot {
    int tree;
    int node;
    std::vector<uint32_t> vars;       // node variables (ascending)
    std::vector<uint32_t> pred_vars;  // shared with parent
    std::vector<int> children;        // child slot ids (same tree)
  };
  /// A connected subtree of q1 (the q of a progress tree (q, g)). A tree's
  /// g and its location key list values in `vars` order; Prune intersects
  /// an output's stars with `var_set` to restrict them to var(q).
  struct Subtree {
    int root_slot;
    uint64_t mask;                    // slots included
    std::vector<uint32_t> vars;       // union of node vars (ascending)
    VarSet var_set;                   // the same variables as a mask
  };
  /// A (subtree, star set) pair that some progress tree in the pool has:
  /// `stars` holds exactly the subtree variables its g maps to kStar. Only
  /// these pairs can match a ≻db probe, so Prune probes only these.
  struct StarPattern {
    uint32_t subtree;
    VarSet stars;
    auto operator<=>(const StarPattern&) const = default;
  };
  /// Immutable payload of one progress tree. Its links are implicit in the
  /// pool's list order (and in per-session link buffers once pruned).
  struct PTree {
    uint32_t subtree;                 // Subtree id
    uint32_t list;                    // owning trees(v, h) list id
    ValueTuple g;                     // values over Subtree::vars (kStar allowed)
  };

  PreparedOMQ() = default;

  /// One slot per normalized-tree node (at most 64: a subtree is a 64-bit
  /// slot mask; Prepare refuses larger queries before the chase).
  void BuildSlots();
  void CollectProgressTrees();
  void CollectFromRow(int slot, uint32_t row);
  /// A tree's place in the database-preferring order, computed once per
  /// tree: subtree size, star count, slot mask, then the tree's g.
  struct ListOrder {
    uint32_t size;   // subtree nodes
    uint32_t stars;  // kStar values in g
    uint64_t mask;   // subtree slot mask
    uint32_t id;     // pool id
  };
  /// Sorts, deduplicates and enters the list being collected, with `order`
  /// as scratch; see the proof in prepared.cc that a list's first tree is
  /// never pruned.
  void CloseList(const ValueTuple& list_key, std::vector<ListOrder>* order);
  /// The subtree with slot mask `mask`, created on first use.
  uint32_t SubtreeIdFor(uint64_t mask, int root_slot);
  /// Appends the tree of `subtree` under `hom` to the list being collected.
  void AddProgressTree(uint32_t subtree, const std::vector<Value>& hom);
  /// The normalization node behind slot `s`.
  const NormNode& NodeOf(int s) const {
    return partial_norm_.trees[slots_[s].tree].nodes[slots_[s].node];
  }
  /// A cleared link buffer: a free one, else a new one in O(pool).
  std::unique_ptr<LinkBuffer> TakeLinkBuffer() const;
  void ReturnLinkBuffer(std::unique_ptr<LinkBuffer> cleared) const;

  CQ query_;
  std::vector<uint32_t> answer_vars_;
  uint32_t num_vars_ = 0;
  bool for_complete_ = false;
  bool for_partial_ = false;
  std::shared_ptr<const ChaseResult> chase_;
  Normalized complete_norm_;
  Normalized partial_norm_;

  std::vector<Slot> slots_;
  std::vector<Subtree> subtrees_;  // only those some progress tree uses
  FlatMap<uint64_t, uint32_t> subtree_by_mask_;  // build-only
  /// In list order: list l is the pool ids list_begin_[l] up to
  /// list_begin_[l + 1], in the database-preferring order of Prop 5.5.
  std::vector<PTree> pool_;
  std::vector<uint32_t> list_begin_;  // one entry per list, plus the end
  /// Every distinct non-empty star pattern of the pool, sorted by
  /// (subtree, stars). Trees without wildcards need no entry: a ≻db probe
  /// always stars at least one variable.
  std::vector<StarPattern> star_patterns_;
  /// [subtree, g...] -> pool id, for trees with a wildcard only: every key
  /// Prune probes stars at least one variable, so it never finds a
  /// star-free tree.
  TupleMap<uint32_t> location_;
  TupleMap<uint32_t> list_ids_;   // [root_slot, h|pred...] -> list id
  /// Cleared link buffers that closed sessions handed back (sessions hold
  /// the artifact const, so the free list is mutable).
  mutable std::mutex buffers_mu_;
  mutable std::vector<std::unique_ptr<LinkBuffer>> free_buffers_;
  mutable size_t buffers_allocated_ = 0;  // guarded by buffers_mu_
};

/// One cursor over the minimal partial answers of a prepared query
/// (Algorithm 1's enumeration phase). Sessions over the same PreparedOMQ
/// are fully independent: each owns its walk stack, binding, and link
/// buffer, so any number may run interleaved or on separate threads.
class EnumerationSession {
 public:
  /// Requires prepared->for_partial(). O(1) in the number of progress
  /// trees unless every link buffer is in use: then it allocates one.
  explicit EnumerationSession(std::shared_ptr<const PreparedOMQ> prepared);
  ~EnumerationSession();  // clears the buffer in O(touched), hands it back
  EnumerationSession(EnumerationSession&&) = default;  // the source is empty

  /// Next minimal partial answer; wildcard positions hold kStar.
  bool Next(ValueTuple* out);

  /// Restarts the walk in O(num_vars). The session's pruned link buffer is
  /// reusable (the paper's S' observation: pruned trees are strictly
  /// dominated by an already-output answer and can never contribute a
  /// minimal one), so the same answer set is produced without re-copying
  /// the lists. A moved-from session stays empty.
  void Reset();

  const PreparedOMQ& prepared() const { return *prepared_; }

  /// Link-buffer entries this session's pruning has copied. A session that
  /// never pruned reports zero touched nodes regardless of pool size —
  /// the mechanical form of the O(1)-open contract (server_test asserts it).
  /// A moved-from session reads zero.
  LinkOverlay::Stats overlay_stats() const { return overlay_.stats(); }

  /// Location-table probes the ≻db pruning has made since the session was
  /// created. One probe per recorded star pattern that strictly contains an
  /// output's stars, so tests can bound the pruning work per answer.
  uint64_t location_probes() const { return location_probes_; }

 private:
  struct Frame {
    int slot;
    uint32_t list;                    // the slot's list, once fetched
    uint32_t cur;                     // current pool id; UINT32_MAX until
                                      // the list's head is fetched
    SmallVec<uint32_t, 8> bound;      // vars bound by the current tree
  };

  int NextAtom(int after) const;
  void BindTree(Frame* frame, const PreparedOMQ::PTree& tree);
  void UnbindTree(Frame* frame);
  /// The ≻db pruning after an output: unlinks every tree (q, g') that
  /// agrees with h off strictly more stars than h has on var(q). It probes
  /// the location table once per matching entry of star_patterns_, so its
  /// cost per answer is bounded by the distinct star patterns in the pool.
  void Prune();
  /// Looks up the list of the frame's slot under h, records it in the
  /// frame, and returns its first tree; UINT32_MAX when h has no such list.
  uint32_t ListHeadFor(Frame* frame);
  uint32_t AdvanceSkippingDead(uint32_t id, uint32_t list) const;

  std::shared_ptr<const PreparedOMQ> prepared_;

  // The session's view of the linked-list state the ≻db pruning mutates.
  LinkOverlay overlay_;

  // Walk state.
  std::vector<Value> h_;
  std::vector<Frame> stack_;
  ValueTuple key_;                    // lookup scratch
  uint64_t location_probes_ = 0;
  bool started_ = false;
  bool exhausted_ = false;
  bool boolean_emitted_ = false;
};

/// One cursor over the complete answers of a prepared query (Thm 4.1(1)).
class CompleteSession {
 public:
  /// Requires prepared->for_complete().
  explicit CompleteSession(std::shared_ptr<const PreparedOMQ> prepared);

  /// A moved-from session returns nothing and resets to nothing.
  bool Next(ValueTuple* out);
  void Reset() {
    if (walker_ != nullptr) walker_->Reset();
  }

  const PreparedOMQ& prepared() const { return *prepared_; }

 private:
  std::shared_ptr<const PreparedOMQ> prepared_;
  std::unique_ptr<TreeWalker> walker_;
};

}  // namespace omqe

#endif  // OMQE_CORE_PREPARED_H_
