#include "eval/brute.h"

#include <algorithm>

#include "base/flat_hash.h"
#include "core/wildcards.h"

namespace omqe {

HomSearch::HomSearch(const CQ& q, const Database& db) : q_(q), db_(db) {}

const RowIndex* HomSearch::IndexFor(uint32_t atom, const std::vector<uint32_t>& key_pos) {
  for (const CachedIndex& c : cache_) {
    if (c.atom == atom && c.index->key_columns() == key_pos) return c.index.get();
  }
  RelId rel = q_.atoms()[atom].rel;
  cache_.push_back({atom, std::make_unique<RowIndex>(db_.Rows(rel), db_.NumRows(rel),
                                                     db_.Arity(rel), key_pos)});
  return cache_.back().index.get();
}

bool HomSearch::ForEachHom(const std::vector<Value>& pre,
                           const std::function<bool(const std::vector<Value>&)>& cb) {
  OMQE_CHECK(pre.size() >= q_.num_vars());
  std::vector<Value> assign = pre;
  assign.resize(std::max<size_t>(q_.num_vars(), pre.size()), kNoValue);

  // Greedy atom order: most-bound-variables first.
  VarSet bound = 0;
  for (uint32_t v = 0; v < q_.num_vars(); ++v) {
    if (assign[v] != kNoValue) bound |= VarBit(v);
  }
  std::vector<uint32_t> order;
  std::vector<bool> used(q_.atoms().size(), false);
  for (size_t step = 0; step < q_.atoms().size(); ++step) {
    int best = -1;
    int best_score = -1;
    for (uint32_t j = 0; j < q_.atoms().size(); ++j) {
      if (used[j]) continue;
      int score = __builtin_popcountll(CQ::AtomVars(q_.atoms()[j]) & bound);
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(j);
      }
    }
    used[best] = true;
    order.push_back(static_cast<uint32_t>(best));
    bound |= CQ::AtomVars(q_.atoms()[best]);
  }
  return Recurse(order, 0, &assign, cb);
}

bool HomSearch::Recurse(const std::vector<uint32_t>& order, size_t step,
                        std::vector<Value>* assign,
                        const std::function<bool(const std::vector<Value>&)>& cb) {
  if (step == order.size()) return cb(*assign);
  uint32_t atom_idx = order[step];
  const Atom& atom = q_.atoms()[atom_idx];
  // Key positions: constants and already-bound variables.
  std::vector<uint32_t> key_pos;
  ValueTuple key;
  for (uint32_t p = 0; p < atom.terms.size(); ++p) {
    Term t = atom.terms[p];
    Value v = IsVarTerm(t) ? (*assign)[VarOf(t)] : ConstOf(t);
    if (v != kNoValue) {
      key_pos.push_back(p);
      key.push_back(v);
    }
  }
  const RowIndex* index = IndexFor(atom_idx, key_pos);
  for (uint32_t r = index->First(key.data()); r != UINT32_MAX; r = index->Next(r)) {
    const Value* row = db_.Row(atom.rel, r);
    // Bind the remaining positions, checking repeated-variable consistency.
    SmallVec<uint32_t, 8> fresh;
    bool ok = true;
    for (uint32_t p = 0; p < atom.terms.size() && ok; ++p) {
      Term t = atom.terms[p];
      if (!IsVarTerm(t)) continue;
      uint32_t var = VarOf(t);
      if ((*assign)[var] == kNoValue) {
        (*assign)[var] = row[p];
        fresh.push_back(var);
      } else {
        ok = (*assign)[var] == row[p];
      }
    }
    if (ok && !Recurse(order, step + 1, assign, cb)) {
      for (uint32_t v : fresh) (*assign)[v] = kNoValue;
      return false;
    }
    for (uint32_t v : fresh) (*assign)[v] = kNoValue;
  }
  return true;
}

bool HomSearch::HasHom(const std::vector<Value>& pre) {
  bool found = false;
  ForEachHom(pre, [&](const std::vector<Value>&) {
    found = true;
    return false;
  });
  return found;
}

namespace {

std::vector<ValueTuple> CollectAnswers(const CQ& q, const Database& db,
                                       bool constants_only) {
  HomSearch search(q, db);
  std::vector<Value> pre(std::max<uint32_t>(q.num_vars(), 1), kNoValue);
  TupleMap<char> dedup;
  std::vector<ValueTuple> out;
  search.ForEachHom(pre, [&](const std::vector<Value>& assign) {
    ValueTuple t;
    for (uint32_t v : q.answer_vars()) t.push_back(assign[v]);
    if (constants_only) {
      for (Value val : t) {
        if (!IsConstant(val)) return true;
      }
    }
    char& seen = dedup.InsertOrGet(t.data(), t.size(), 0);
    if (!seen) {
      seen = 1;
      out.push_back(std::move(t));
    }
    return true;
  });
  return out;
}

}  // namespace

std::vector<ValueTuple> BruteAnswers(const CQ& q, const Database& db) {
  return CollectAnswers(q, db, /*constants_only=*/false);
}

std::vector<ValueTuple> BruteCompleteAnswers(const CQ& q, const Database& db) {
  return CollectAnswers(q, db, /*constants_only=*/true);
}

std::vector<ValueTuple> BruteMinimalPartialAnswers(const CQ& q, const Database& db) {
  std::vector<ValueTuple> answers = BruteAnswers(q, db);
  TupleMap<char> dedup;
  std::vector<ValueTuple> starred;
  for (const ValueTuple& a : answers) {
    ValueTuple t = NullsToStar(a);
    char& seen = dedup.InsertOrGet(t.data(), t.size(), 0);
    if (!seen) {
      seen = 1;
      starred.push_back(std::move(t));
    }
  }
  return MinimizeTuples(std::move(starred), /*multi=*/false);
}

std::vector<ValueTuple> BruteMinimalMultiWildcardAnswers(const CQ& q,
                                                         const Database& db) {
  std::vector<ValueTuple> answers = BruteAnswers(q, db);
  TupleMap<char> dedup;
  std::vector<ValueTuple> canon;
  for (const ValueTuple& a : answers) {
    ValueTuple t = NullsToMultiWildcards(a);
    char& seen = dedup.InsertOrGet(t.data(), t.size(), 0);
    if (!seen) {
      seen = 1;
      canon.push_back(std::move(t));
    }
  }
  return MinimizeTuples(std::move(canon), /*multi=*/true);
}

void SortTuples(std::vector<ValueTuple>* tuples) {
  std::sort(tuples->begin(), tuples->end());
}



std::optional<std::vector<Value>> WitnessHomomorphism(const CQ& q,
                                                      const Database& db,
                                                      const ValueTuple& tuple) {
  OMQE_CHECK(tuple.size() == q.arity());
  std::vector<Value> pre(std::max<uint32_t>(q.num_vars(), 1), kNoValue);
  // Bind constant positions; wildcard positions stay free, but equal
  // multi-wildcards must land on equal values (checked in the callback).
  SmallVec<uint32_t, 8> class_vars[2];  // [0]: wildcard index, [1]: var id
  for (uint32_t i = 0; i < tuple.size(); ++i) {
    uint32_t v = q.answer_vars()[i];
    if (IsWildcard(tuple[i])) {
      if (tuple[i] != kStar) {
        class_vars[0].push_back(WildcardIndex(tuple[i]));
        class_vars[1].push_back(v);
      }
      continue;
    }
    if (pre[v] != kNoValue && pre[v] != tuple[i]) return std::nullopt;
    pre[v] = tuple[i];
  }
  HomSearch search(q, db);
  std::optional<std::vector<Value>> witness;
  search.ForEachHom(pre, [&](const std::vector<Value>& assign) {
    for (uint32_t i = 0; i < class_vars[0].size(); ++i) {
      for (uint32_t j = i + 1; j < class_vars[0].size(); ++j) {
        if (class_vars[0][i] == class_vars[0][j] &&
            assign[class_vars[1][i]] != assign[class_vars[1][j]]) {
          return true;  // keep searching
        }
      }
    }
    witness = assign;
    return false;
  });
  return witness;
}

}  // namespace omqe
