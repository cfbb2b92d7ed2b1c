// A session's view of a prepared query's progress-tree lists (the
// trees(v, h) lists of Prop 5.5).
//
// The prepared query lays its pool out in list order: list l is the ids
// list_begin[l] up to list_begin[l + 1], sorted database-preferring. That
// layout is the initial order, so a node still in it has no stored links:
// its next is id + 1 until its list's end, its prev id - 1 after its list's
// begin. A list's first tree is never pruned (the proof is on
// PreparedOMQ::CloseList), so no list head is stored either.
//
// The paper's ≻db pruning mutates the lists during enumeration, so every
// session keeps private prev/next/alive links, in one LinkBuffer of flat
// per-tree arrays. Unlink copies a node the first time it touches it and
// logs the id, so every read and write is an array access: no hash probe,
// rehash or bulk copy in Next().
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

#include "base/status.h"

namespace omqe {

/// One session's link state over `trees` progress trees. The undo log names
/// every tree whose state byte is set. Every array, the log included, is
/// zero-filled here, so no page of the buffer first faults in, and the log
/// never reallocates, inside Next().
struct LinkBuffer {
  explicit LinkBuffer(size_t trees)
      : state(trees), prev(trees), next(trees), touched_ids(trees) {
    touched_ids.clear();  // empty, with its pages already faulted in
  }

  /// Returns every logged entry to the initial order, in O(touched).
  void Clear() {
    for (uint32_t id : touched_ids) state[id] = 0;
    touched_ids.clear();
  }

  std::vector<uint8_t> state;  // per tree: 0 (initial order), alive or dead
  std::vector<uint32_t> prev, next;
  std::vector<uint32_t> touched_ids;  // the undo log
};

class LinkOverlay {
 public:
  struct Stats {
    size_t touched_nodes = 0;  ///< nodes whose links were copied
  };

  /// Binds the overlay to the prepared query's list offsets and to a
  /// cleared buffer of its pool's size. O(1): nothing is copied. The offsets
  /// must outlive the overlay (the session's shared_ptr to the prepared
  /// artifact guarantees this).
  void Attach(const std::vector<uint32_t>* list_begin,
              std::unique_ptr<LinkBuffer> buffer) {
    list_begin_ = list_begin;
    buf_ = std::move(buffer);
  }

  /// Clears the buffer in O(touched) and hands it back.
  std::unique_ptr<LinkBuffer> Detach() {
    buf_->Clear();
    return std::move(buf_);
  }

  /// The successor of `id` in its list `list`, or UINT32_MAX at the end.
  uint32_t next(uint32_t id, uint32_t list) const {
    return buf_->state[id] == kInitial ? InitialNext(id, list) : buf_->next[id];
  }
  bool alive(uint32_t id) const { return buf_->state[id] != kDead; }

  /// Removes `id` from its list `list`: marks it dead and splices its
  /// neighbors together, copying only the touched entries. The dead node's
  /// own next stays frozen so live iterators positioned on it can continue
  /// past it (the invariant EnumerationSession::Next relies on). Idempotent.
  /// A list's first tree is never pruned, so `id` always has a predecessor.
  void Unlink(uint32_t id, uint32_t list) {
    LinkBuffer& b = *buf_;
    if (b.state[id] == kDead) return;
    Touch(id, list);
    b.state[id] = kDead;
    const uint32_t p = b.prev[id];
    const uint32_t n = b.next[id];
    OMQE_CHECK(p != UINT32_MAX);
    Touch(p, list);
    b.next[p] = n;
    if (n != UINT32_MAX) {
      Touch(n, list);
      b.prev[n] = p;
    }
  }

  /// A moved-from overlay holds no buffer and reads zero.
  Stats stats() const {
    return buf_ == nullptr ? Stats{} : Stats{buf_->touched_ids.size()};
  }

 private:
  enum : uint8_t { kInitial = 0, kAlive, kDead };

  uint32_t InitialNext(uint32_t id, uint32_t list) const {
    return id + 1 < (*list_begin_)[list + 1] ? id + 1 : UINT32_MAX;
  }

  /// The first touch of `id` copies its initial links and logs it.
  void Touch(uint32_t id, uint32_t list) {
    LinkBuffer& b = *buf_;
    if (b.state[id] != kInitial) return;
    b.state[id] = kAlive;
    b.prev[id] = id > (*list_begin_)[list] ? id - 1 : UINT32_MAX;
    b.next[id] = InitialNext(id, list);
    b.touched_ids.push_back(id);
  }

  const std::vector<uint32_t>* list_begin_ = nullptr;
  std::unique_ptr<LinkBuffer> buf_;
};

}  // namespace omqe

#endif  // OMQE_CORE_LINK_OVERLAY_H_
