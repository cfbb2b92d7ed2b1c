// RowIndex: the hash index behind the chase's joins, the normalization's
// tree walks and the reference evaluator. It indexes a row-major table by
// the values at a list of key columns: a head map from key to the first row
// of its chain, plus one next link per row. Build is O(rows); a probe
// returns the matching rows in O(1) + output.
//
// The two ways of filling it give the two chain orders:
//   - the bulk constructor links every chain in ascending row order, the
//     order in which TreeWalker, progress-tree collection and HomSearch
//     visit rows;
//   - Add(row) indexes one appended row at the front of its chain, so newer
//     rows come first, the order in which the chase matches.
#ifndef OMQE_DATA_INDEX_H_
#define OMQE_DATA_INDEX_H_

#include <cstdint>
#include <vector>

#include "base/flat_hash.h"
#include "data/value.h"

namespace omqe {

class RowIndex {
 public:
  RowIndex() = default;
  /// An empty index keyed by `key_columns`; rows arrive through Add. An
  /// empty key list makes all rows one chain.
  explicit RowIndex(std::vector<uint32_t> key_columns);
  /// Indexes `rows` rows of `width` values each, stored row-major at `data`.
  RowIndex(const Value* data, uint32_t rows, uint32_t width,
           std::vector<uint32_t> key_columns);

  /// Pre-sizes for `rows` total rows (head map slots and key arena, chain
  /// array), so a bulk build performs no intermediate rehash.
  void Reserve(uint32_t rows);

  /// Indexes the next row (its id is the number of rows indexed so far),
  /// whose values are `row`, at the front of its chain.
  void Add(const Value* row);

  /// First row whose key columns equal `key` (key_columns().size() values),
  /// or UINT32_MAX.
  uint32_t First(const Value* key) const;
  /// The row after `row` in its chain, or UINT32_MAX.
  uint32_t Next(uint32_t row) const { return next_[row]; }

  const std::vector<uint32_t>& key_columns() const { return key_cols_; }

  /// Statistics of the head map (tests assert the bulk build performs no
  /// intermediate rehash and stays under 3/4 load).
  HashStats HeadStats() const { return heads_.Stats(); }

 private:
  /// The chain head for `row`'s key, inserted empty when the key is new.
  uint32_t& HeadFor(const Value* row);

  std::vector<uint32_t> key_cols_;
  TupleMap<uint32_t> heads_;        // key tuple -> first row in chain
  std::vector<uint32_t> next_;      // per-row chain links
  uint32_t all_head_ = UINT32_MAX;  // the one chain when key_cols_ is empty
  ValueTuple key_;                  // scratch, reused across rows
};

}  // namespace omqe

#endif  // OMQE_DATA_INDEX_H_
