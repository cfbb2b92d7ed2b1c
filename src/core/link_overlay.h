// A session's view of a prepared query's initial progress-tree link order
// (the trees(v, h) lists of Prop 5.5).
//
// The paper's ≻db pruning mutates the doubly linked lists during
// enumeration, so every session needs private prev/next/alive links and
// list heads. They live in one LinkBuffer of flat arrays over the pool: a
// node or list whose state byte is 0 is still in the initial order, and its
// read falls through to the prepared query's shared arrays. Unlink copies
// an entry the first time it touches it and logs the id, so every read and
// write is an array access: no hash probe, rehash or bulk copy in Next().
//
// A buffer costs O(pool) to allocate, so PreparedOMQ recycles them: a
// session takes a cleared buffer when it opens and hands it back when it
// closes, and Clear() resets only the logged entries, in O(touched) (a
// Briggs–Torczon sparse set). stats() counts those entries, so tests can
// assert mechanically that a session holds nothing at open, whatever the
// pool size, and that pruning k nodes writes O(k).
#ifndef OMQE_CORE_LINK_OVERLAY_H_
#define OMQE_CORE_LINK_OVERLAY_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace omqe {

/// One session's link state over `trees` progress trees in `lists` lists.
/// The undo logs name every entry whose state byte is set. Every array,
/// the logs included, is zero-filled here, so no page of the buffer first
/// faults in, and no log reallocates, inside Next().
struct LinkBuffer {
  LinkBuffer(size_t trees, size_t lists)
      : state(trees), prev(trees), next(trees), head_set(lists), head(lists),
        touched_ids(trees), touched_lists(lists) {
    touched_ids.clear();  // empty, with its pages already faulted in
    touched_lists.clear();
  }

  /// Returns every logged entry to the initial order, in O(touched).
  void Clear() {
    for (uint32_t id : touched_ids) state[id] = 0;
    for (uint32_t list : touched_lists) head_set[list] = 0;
    touched_ids.clear();
    touched_lists.clear();
  }

  std::vector<uint8_t> state;  // per tree: 0 (initial order), alive or dead
  std::vector<uint32_t> prev, next;
  std::vector<uint8_t> head_set;  // per list: `head` overrides the initial one
  std::vector<uint32_t> head;
  std::vector<uint32_t> touched_ids, touched_lists;  // the undo logs
};

class LinkOverlay {
 public:
  struct Stats {
    size_t touched_nodes = 0;  ///< nodes whose links were copied
    size_t touched_heads = 0;  ///< lists whose head was copied
  };

  /// Binds the overlay to the shared initial-order arrays and to a cleared
  /// buffer of their size. O(1): nothing is copied. The arrays must outlive
  /// the overlay (the session's shared_ptr to the prepared artifact
  /// guarantees this).
  void Attach(const std::vector<uint32_t>* init_prev,
              const std::vector<uint32_t>* init_next,
              const std::vector<uint32_t>* init_heads,
              std::unique_ptr<LinkBuffer> buffer) {
    init_prev_ = init_prev;
    init_next_ = init_next;
    init_heads_ = init_heads;
    buf_ = std::move(buffer);
  }

  /// Clears the buffer in O(touched) and hands it back.
  std::unique_ptr<LinkBuffer> Detach() {
    buf_->Clear();
    return std::move(buf_);
  }

  uint32_t next(uint32_t id) const {
    return buf_->state[id] == kInitial ? (*init_next_)[id] : buf_->next[id];
  }
  bool alive(uint32_t id) const { return buf_->state[id] != kDead; }
  uint32_t head(uint32_t list) const {
    return buf_->head_set[list] ? buf_->head[list] : (*init_heads_)[list];
  }

  /// Removes `id` from `owning_list`: marks it dead and splices its
  /// neighbors together, copying only the touched entries. The dead node's
  /// own next stays frozen so live iterators positioned on it can continue
  /// past it (the invariant EnumerationSession::Next relies on). Idempotent.
  void Unlink(uint32_t id, uint32_t owning_list) {
    LinkBuffer& b = *buf_;
    if (b.state[id] == kDead) return;
    Touch(id);
    b.state[id] = kDead;
    const uint32_t p = b.prev[id];
    const uint32_t n = b.next[id];
    if (p != UINT32_MAX) {
      Touch(p);
      b.next[p] = n;
    } else {
      if (!b.head_set[owning_list]) b.touched_lists.push_back(owning_list);
      b.head_set[owning_list] = 1;
      b.head[owning_list] = n;
    }
    if (n != UINT32_MAX) {
      Touch(n);
      b.prev[n] = p;
    }
  }

  Stats stats() const {
    return Stats{buf_->touched_ids.size(), buf_->touched_lists.size()};
  }

 private:
  enum : uint8_t { kInitial = 0, kAlive, kDead };

  /// The first touch of `id` copies its initial links and logs it.
  void Touch(uint32_t id) {
    LinkBuffer& b = *buf_;
    if (b.state[id] != kInitial) return;
    b.state[id] = kAlive;
    b.prev[id] = (*init_prev_)[id];
    b.next[id] = (*init_next_)[id];
    b.touched_ids.push_back(id);
  }

  const std::vector<uint32_t>* init_prev_ = nullptr;
  const std::vector<uint32_t>* init_next_ = nullptr;
  const std::vector<uint32_t>* init_heads_ = nullptr;
  std::unique_ptr<LinkBuffer> buf_;
};

}  // namespace omqe

#endif  // OMQE_CORE_LINK_OVERLAY_H_
