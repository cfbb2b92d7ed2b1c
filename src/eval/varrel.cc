#include "eval/varrel.h"

namespace omqe {

std::vector<uint32_t> SharedVars(const VarRelation& a, const VarRelation& b) {
  std::vector<uint32_t> shared;
  for (uint32_t v : a.vars()) {
    if (b.ColumnOf(v) != UINT32_MAX) shared.push_back(v);
  }
  return shared;
}

void SemijoinReduce(VarRelation* target, const VarRelation& source) {
  std::vector<uint32_t> shared = SharedVars(*target, source);
  if (shared.empty()) {
    if (source.empty()) target->Filter([](const Value*) { return false; });
    return;
  }
  // Build the set of source key tuples.
  std::vector<uint32_t> src_cols = source.ColumnsOf(shared);
  std::vector<uint32_t> tgt_cols = target->ColumnsOf(shared);
  TupleMap<char> keys;
  keys.Reserve(source.NumRows(),
               static_cast<size_t>(source.NumRows()) * shared.size());
  ValueTuple tmp;
  tmp.resize(static_cast<uint32_t>(shared.size()));
  for (uint32_t r = 0; r < source.NumRows(); ++r) {
    const Value* row = source.Row(r);
    for (uint32_t i = 0; i < src_cols.size(); ++i) tmp[i] = row[src_cols[i]];
    keys.InsertOrGet(tmp.data(), tmp.size(), 1);
  }
  target->Filter([&](const Value* row) {
    for (uint32_t i = 0; i < tgt_cols.size(); ++i) tmp[i] = row[tgt_cols[i]];
    return keys.Find(tmp.data(), tmp.size()) != nullptr;
  });
}

}  // namespace omqe
