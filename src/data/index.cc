#include "data/index.h"

namespace omqe {

RowIndex::RowIndex(std::vector<uint32_t> key_columns)
    : key_cols_(std::move(key_columns)) {
  key_.resize(static_cast<uint32_t>(key_cols_.size()));
}

RowIndex::RowIndex(const Value* data, uint32_t rows, uint32_t width,
                   std::vector<uint32_t> key_columns)
    : RowIndex(std::move(key_columns)) {
  Reserve(rows);
  next_.assign(rows, UINT32_MAX);
  // Insert in reverse row order and prepend, so that every chain lists its
  // rows in ascending order (deterministic enumeration output).
  for (uint32_t r = rows; r-- > 0;) {
    uint32_t& head = HeadFor(data + static_cast<size_t>(r) * width);
    next_[r] = head;
    head = r;
  }
}

void RowIndex::Reserve(uint32_t rows) {
  next_.reserve(rows);
  if (!key_cols_.empty()) {
    heads_.Reserve(rows, static_cast<size_t>(rows) * key_cols_.size());
  }
}

void RowIndex::Add(const Value* row) {
  uint32_t id = static_cast<uint32_t>(next_.size());
  uint32_t& head = HeadFor(row);
  next_.push_back(head);
  head = id;
}

uint32_t RowIndex::First(const Value* key) const {
  if (key_cols_.empty()) return all_head_;
  const uint32_t* head = heads_.Find(key, static_cast<uint32_t>(key_cols_.size()));
  return head == nullptr ? UINT32_MAX : *head;
}

uint32_t& RowIndex::HeadFor(const Value* row) {
  if (key_cols_.empty()) return all_head_;
  for (uint32_t k = 0; k < key_cols_.size(); ++k) key_[k] = row[key_cols_[k]];
  return heads_.InsertOrGet(key_.data(), key_.size(), UINT32_MAX);
}

}  // namespace omqe
