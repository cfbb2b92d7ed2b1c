// Open-addressing hash tables. These realize the constant-time lookup
// tables of the paper's RAM model. One core, OpenTable<Keys, V>, owns linear
// probing over a power-of-two array, growth at 3/4 load, sizing and
// statistics; a key policy says how keys are hashed, compared and stored:
//   - FlatMap<K,V>: integral keys held in the slot (key K(-1) reserved).
//   - TupleMap<V>:  short tuples of uint32_t, copied into one arena; the
//                   slot holds (offset, len).
// Keys and values sit in two parallel arrays, so a one-byte value (a dedup
// flag) costs one byte per slot rather than a padded slot.
// Neither supports erase; algorithms that conceptually remove entries store a
// sentinel value instead (matching how the paper re-uses zero-initialized
// memory).
//
// Bulk loads should call Reserve(n) up front: a reserved container performs
// the single sizing there and never rehashes during the load, which is what
// keeps preprocessing at one pass over the data instead of O(log n) passes.
#ifndef OMQE_BASE_FLAT_HASH_H_
#define OMQE_BASE_FLAT_HASH_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "base/hash.h"
#include "base/status.h"

namespace omqe {

/// Occupancy and probe-length statistics for the open-addressing containers.
/// Cheap to compute (one scan), used by tests to pin down the invariants the
/// hot paths rely on: load factor below 3/4, short probe sequences, and —
/// after a Reserve'd bulk load — zero intermediate rehashes.
struct HashStats {
  size_t size = 0;
  size_t capacity = 0;
  size_t max_probe = 0;     ///< longest displacement from the home slot
  double mean_probe = 0.0;  ///< mean displacement over stored entries
  size_t rehashes = 0;      ///< growth events that re-probed existing entries

  double LoadFactor() const {
    return capacity == 0 ? 0.0 : static_cast<double>(size) / static_cast<double>(capacity);
  }
};

/// The parameter list a key policy's keys are spelled with.
template <typename... A>
struct KeyArgs {};

/// Integral keys, held in the slot itself; K(-1) marks an empty slot.
template <typename K>
struct IntKeys {
  using Args = KeyArgs<K>;
  using Slot = K;
  static constexpr Slot kEmpty = static_cast<K>(-1);

  static bool Empty(Slot s) { return s == kEmpty; }
  uint64_t Hash(K k) const {
    OMQE_CHECK(k != kEmpty);
    return Mix64(static_cast<uint64_t>(k));
  }
  uint64_t HashOf(Slot s) const { return Mix64(static_cast<uint64_t>(s)); }
  bool Equal(Slot s, K k) const { return s == k; }
  Slot Store(K k) { return k; }
  void Clear() {}
  void ReserveWords(size_t) {}
};

/// Tuples of uint32_t (data, len), copied into one arena (one allocation
/// stream for all keys; lookups never allocate). The slot holds the key's
/// arena offset and length; length 0xffffffff marks an empty slot.
struct TupleKeys {
  using Args = KeyArgs<const uint32_t*, uint32_t>;
  struct Slot {
    uint32_t offset;
    uint32_t len;
  };
  static constexpr Slot kEmpty{0, 0xffffffffu};

  static bool Empty(Slot s) { return s.len == kEmpty.len; }
  uint64_t Hash(const uint32_t* key, uint32_t len) const { return HashSpan32(key, len); }
  uint64_t HashOf(Slot s) const { return HashSpan32(arena.data() + s.offset, s.len); }
  bool Equal(Slot s, const uint32_t* key, uint32_t len) const {
    if (s.len != len) return false;
    // Zero-length keys (boolean queries, zero-ary facts) may probe before the
    // arena has allocated; memcmp forbids null pointers even for n == 0.
    if (len == 0) return true;
    return std::memcmp(arena.data() + s.offset, key, len * sizeof(uint32_t)) == 0;
  }
  Slot Store(const uint32_t* key, uint32_t len) {
    Slot s{static_cast<uint32_t>(arena.size()), len};
    arena.insert(arena.end(), key, key + len);
    return s;
  }
  void Clear() { arena.clear(); }
  void ReserveWords(size_t words) {
    if (words > arena.capacity()) arena.reserve(words);
  }

  std::vector<uint32_t> arena;
};

template <typename Keys, typename V, typename Args = typename Keys::Args>
class OpenTable;

/// The one open-addressing core. Every key-taking call spells its key the
/// way the policy's Args say: Find(k) for FlatMap, Find(data, len) for
/// TupleMap.
template <typename Keys, typename V, typename... A>
class OpenTable<Keys, V, KeyArgs<A...>> {
  using Slot = typename Keys::Slot;

 public:
  explicit OpenTable(size_t initial_capacity = 16) { Grow(RoundUp(initial_capacity)); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Drops all entries but keeps the slot and arena capacity, so a cleared
  /// table can be re-loaded without reallocating.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Keys::kEmpty);
    keys_.Clear();
    size_ = 0;
  }

  /// Sizes the table so that `entries` total entries fit under 3/4 load
  /// (inserts up to that count perform no rehash), and a tuple table's arena
  /// for `key_words` total words of keys. Never shrinks.
  void Reserve(size_t entries, size_t key_words = 0) {
    size_t cap = RoundUp(entries + entries / 3 + 1);
    if (cap > slots_.size()) Grow(cap);
    keys_.ReserveWords(key_words);
  }

  /// Returns a pointer to the value for the key, or nullptr when absent.
  V* Find(A... key) {
    size_t i = Probe(key...);
    return Keys::Empty(slots_[i]) ? nullptr : &vals_[i];
  }
  const V* Find(A... key) const {
    size_t i = Probe(key...);
    return Keys::Empty(slots_[i]) ? nullptr : &vals_[i];
  }

  /// Inserts (key, v) if absent; returns the stored value either way.
  V& InsertOrGet(A... key, const V& v) {
    MaybeGrow();
    size_t i = Probe(key...);
    if (Keys::Empty(slots_[i])) {
      Claim(i, key...);
      vals_[i] = v;
    }
    return vals_[i];
  }

  /// Overwrites the value for the key (inserting if needed). Single probe,
  /// single value write.
  void Put(A... key, const V& v) {
    MaybeGrow();
    size_t i = Probe(key...);
    if (Keys::Empty(slots_[i])) Claim(i, key...);
    vals_[i] = v;
  }

  HashStats Stats() const {
    HashStats stats;
    stats.capacity = slots_.size();
    stats.rehashes = rehashes_;
    size_t mask = slots_.size() - 1;
    size_t total_probe = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (Keys::Empty(slots_[i])) continue;
      size_t probe = (i - (keys_.HashOf(slots_[i]) & mask)) & mask;
      total_probe += probe;
      stats.max_probe = std::max(stats.max_probe, probe);
      ++stats.size;
    }
    if (stats.size > 0) {
      stats.mean_probe = static_cast<double>(total_probe) / static_cast<double>(stats.size);
    }
    return stats;
  }

 private:
  static size_t RoundUp(size_t n) {
    size_t c = 16;
    while (c < n) c <<= 1;
    return c;
  }
  /// The probe loop: from the home slot of `hash` to the first slot that is
  /// empty or holds a key `match` accepts.
  template <typename Match>
  size_t ProbeFrom(uint64_t hash, Match&& match) const {
    size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (!Keys::Empty(slots_[i]) && !match(slots_[i])) i = (i + 1) & mask;
    return i;
  }
  size_t Probe(A... key) const {
    return ProbeFrom(keys_.Hash(key...), [&](Slot s) { return keys_.Equal(s, key...); });
  }
  void Claim(size_t i, A... key) {
    slots_[i] = keys_.Store(key...);
    ++size_;
  }
  void MaybeGrow() {
    if (size_ * 4 < slots_.size() * 3) return;
    Grow(slots_.size() * 2);
  }
  /// The grow path: re-probes the old slots in array order. Keys keep their
  /// slot contents (a tuple key keeps its arena offset).
  void Grow(size_t cap) {
    if (size_ > 0) ++rehashes_;
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<V> old_vals = std::move(vals_);
    slots_.assign(cap, Keys::kEmpty);
    vals_.assign(cap, V());
    for (size_t j = 0; j < old_slots.size(); ++j) {
      if (Keys::Empty(old_slots[j])) continue;
      size_t i = ProbeFrom(keys_.HashOf(old_slots[j]), [](Slot) { return false; });
      slots_[i] = old_slots[j];
      vals_[i] = std::move(old_vals[j]);
    }
  }

  std::vector<Slot> slots_;
  std::vector<V> vals_;
  [[no_unique_address]] Keys keys_;
  size_t size_ = 0;
  size_t rehashes_ = 0;
};

template <typename K, typename V>
using FlatMap = OpenTable<IntKeys<K>, V>;

template <typename V>
using TupleMap = OpenTable<TupleKeys, V>;

}  // namespace omqe

#endif  // OMQE_BASE_FLAT_HASH_H_
