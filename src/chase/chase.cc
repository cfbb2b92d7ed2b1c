#include "chase/chase.h"

#include <algorithm>
#include <memory>

#include "base/fault.h"
#include "base/flat_hash.h"
#include "base/timer.h"
#include "base/trace.h"
#include "data/index.h"
#include "horn/horn.h"

namespace omqe {

namespace {

constexpr Value kUnbound = 0xffffffffu;

/// A join index of the chase: a RowIndex over one relation of the result,
/// filled through Add as the chase appends rows, so every chain lists the
/// newest rows first.
struct JoinIndex {
  RelId rel;
  RowIndex index;
};

struct PlanStep {
  uint32_t atom;       // body atom index matched in this step
  uint32_t index_id;   // JoinIndex to probe
};

/// Matching plan for one (TGD, delta-atom) pair: after seeding the
/// assignment from the delta atom, probe the remaining body atoms in a
/// greedy bound-variables-first order.
struct MatchPlan {
  uint32_t tgd;
  uint32_t delta_atom;
  std::vector<PlanStep> steps;
};

class ChaseEngine {
 public:
  ChaseEngine(const Database& input, const Ontology& onto, const ChaseOptions& options)
      : input_(input),
        onto_(onto),
        options_(options),
        result_(std::make_unique<ChaseResult>(input.vocab())) {}

  StatusOr<std::unique_ptr<ChaseResult>> Run() {
    BuildPlans();
    result_->cap_used = options_.null_depth;
    // Input nulls have depth 0 and no block.
    null_depth_.assign(input_.NullHighWater(), 0);
    null_block_.assign(input_.NullHighWater(), UINT32_MAX);

    // Seed all input facts through the bulk path before the delta loop.
    OMQE_RETURN_IF_ERROR(SeedInputFacts());
    // Fire TGDs with empty bodies once.
    for (uint32_t t = 0; t < onto_.tgds().size(); ++t) {
      if (onto_.tgds()[t].body().empty()) {
        assign_.assign(onto_.tgds()[t].num_vars(), kUnbound);
        OMQE_RETURN_IF_ERROR(Apply(t, assign_));
      }
    }

    // Every delta round runs two phases. Phase A (MatchRound) enumerates
    // the candidate body matches of the round's delta facts against the
    // state as of the round boundary — strictly read-only — into one
    // candidate buffer. Phase B (ApplyRound) fires the candidates in
    // discovery order through Apply (global dedup, depth cap, null
    // numbering, index maintenance).
    //
    // A match between a delta fact and a fact created in the SAME round is
    // not seen in this round (phase A reads the round-start state), but is
    // rediscovered next round from the created fact's own delta plan — the
    // semi-naive argument; each body assignment fires once either way (see
    // Apply), so the fixpoint fact set is unchanged.
    while (!delta_.empty()) {
      // Round-boundary checkpoints: cooperative cancellation/deadline and
      // the chase.round fault point. Aborting here (or mid-round below)
      // simply unwinds the engine — the half-built result is owned by this
      // call and dies with it, so no caller ever observes partial state.
      OMQE_RETURN_IF_ERROR(CheckCancelNow(options_.cancel));
      if (FaultFires(kFaultChaseRound)) {
        return Status::Internal("injected fault at chase.round");
      }
      std::vector<FactRef> delta = std::move(delta_);
      delta_.clear();
      ChaseStats& stats = result_->stats;
      ++stats.rounds;
      trace::ScopedSpan round_span("chase.round", delta.size());
      int64_t t0 = NowNanos();
      {
        trace::ScopedSpan match_span("chase.match");
        MatchRound(delta);
        match_span.set_arg(cand_tgds_.size());
      }
      stats.match_nanos += static_cast<uint64_t>(NowNanos() - t0);
      stats.candidates += cand_tgds_.size();
      // A cancel checkpoint that failed mid-match left a partial buffer;
      // the token stays failed, so this returns before it is applied.
      OMQE_RETURN_IF_ERROR(CheckCancelNow(options_.cancel));
      int64_t t1 = NowNanos();
      Status applied;
      {
        trace::ScopedSpan apply_span("chase.apply", cand_tgds_.size());
        applied = ApplyRound();
      }
      stats.apply_nanos += static_cast<uint64_t>(NowNanos() - t1);
      OMQE_RETURN_IF_ERROR(applied);
    }

    // Count the database part.
    for (RelId r = 0; r < result_->db.NumRelationSlots(); ++r) {
      uint32_t arity = result_->db.Arity(r);
      for (uint32_t row = 0; row < result_->db.NumRows(r); ++row) {
        const Value* t = result_->db.Row(r, row);
        bool has_null = false;
        for (uint32_t i = 0; i < arity; ++i) has_null |= IsNull(t[i]);
        if (!has_null) ++result_->db_part_facts;
      }
    }
    result_->blocks = std::move(blocks_);
    result_->null_block = std::move(null_block_);
    return std::move(result_);
  }

 private:
  /// Bulk-seeds the result database with the input facts: one up-front
  /// sizing per relation (dedup table, tuple storage) and per join index,
  /// then a single pass each — zero intermediate rehashes, no per-fact index
  /// maintenance. The seeded facts form the initial delta.
  Status SeedInputFacts() {
    size_t total = std::min(input_.TotalFacts(), options_.max_facts);
    if (std::any_of(onto_.tgds().begin(), onto_.tgds().end(),
                    [](const TGD& tgd) { return tgd.body().size() > 1; })) {
      applied_.Reserve(total);
    }
    delta_.reserve(total);
    size_t seeded = 0;
    for (RelId r = 0; r < input_.NumRelationSlots(); ++r) {
      uint32_t rows = input_.NumRows(r);
      if (rows == 0) continue;
      result_->db.ReserveFacts(
          r, static_cast<uint32_t>(std::min<size_t>(rows, total - seeded)));
      uint32_t arity = input_.Arity(r);
      for (uint32_t row = 0; row < rows; ++row) {
        if (!result_->db.AddFact(r, input_.Row(r, row), arity)) continue;
        // Input nulls have no block yet, so block recording is a no-op here.
        delta_.push_back(FactRef{r, result_->db.NumRows(r) - 1});
        if (++seeded > options_.max_facts) {
          return Status::ResourceExhausted("chase exceeded the fact budget");
        }
      }
    }
    // Batched index construction over the seeded rows.
    for (JoinIndex& idx : indexes_) {
      uint32_t rows = result_->db.NumRows(idx.rel);
      idx.index.Reserve(rows);
      for (uint32_t row = 0; row < rows; ++row) {
        idx.index.Add(result_->db.Row(idx.rel, row));
      }
    }
    return Status::OK();
  }

  void BuildPlans() {
    head_plans_.resize(onto_.tgds().size());
    for (uint32_t t = 0; t < onto_.tgds().size(); ++t) {
      const TGD& tgd = onto_.tgds()[t];
      // Restricted mode: a probe plan over the head atoms, seeded from the
      // frontier variables, to decide whether the head is already satisfied.
      if (options_.mode == ChaseMode::kRestricted && tgd.ExistentialVars() != 0) {
        VarSet bound = tgd.FrontierVars();
        const auto& head = tgd.head();
        std::vector<bool> used(head.size(), false);
        for (size_t step = 0; step < head.size(); ++step) {
          int best = -1;
          int best_bound = -1;
          for (uint32_t j = 0; j < head.size(); ++j) {
            if (used[j]) continue;
            int nb = __builtin_popcountll(CQ::AtomVars(head[j]) & bound);
            if (nb > best_bound) {
              best_bound = nb;
              best = static_cast<int>(j);
            }
          }
          used[best] = true;
          const Atom& atom = head[best];
          std::vector<uint32_t> key_pos;
          for (uint32_t p = 0; p < atom.terms.size(); ++p) {
            if (bound & VarBit(VarOf(atom.terms[p]))) key_pos.push_back(p);
          }
          head_plans_[t].push_back(
              {static_cast<uint32_t>(best), RegisterIndex(atom.rel, key_pos)});
          bound |= CQ::AtomVars(atom);
        }
      }
      const auto& body = tgd.body();
      for (uint32_t d = 0; d < body.size(); ++d) {
        MatchPlan plan;
        plan.tgd = t;
        plan.delta_atom = d;
        VarSet bound = CQ::AtomVars(body[d]);
        std::vector<bool> used(body.size(), false);
        used[d] = true;
        for (size_t step = 1; step < body.size(); ++step) {
          // Greedy: next atom with the most bound variables.
          int best = -1;
          int best_bound = -1;
          for (uint32_t j = 0; j < body.size(); ++j) {
            if (used[j]) continue;
            int nb = __builtin_popcountll(CQ::AtomVars(body[j]) & bound);
            if (nb > best_bound) {
              best_bound = nb;
              best = static_cast<int>(j);
            }
          }
          used[best] = true;
          const Atom& atom = body[best];
          std::vector<uint32_t> key_pos;
          for (uint32_t p = 0; p < atom.terms.size(); ++p) {
            if (bound & VarBit(VarOf(atom.terms[p]))) key_pos.push_back(p);
          }
          plan.steps.push_back(
              {static_cast<uint32_t>(best), RegisterIndex(atom.rel, key_pos)});
          bound |= CQ::AtomVars(atom);
        }
        plans_.push_back(std::move(plan));
      }
    }
    // Bucket the plans by delta-atom relation, so the delta loop only visits
    // plans that can match the fact at hand.
    for (uint32_t p = 0; p < plans_.size(); ++p) {
      RelId rel = onto_.tgds()[plans_[p].tgd].body()[plans_[p].delta_atom].rel;
      if (rel >= plans_by_rel_.size()) plans_by_rel_.resize(rel + 1);
      plans_by_rel_[rel].push_back(p);
    }
  }

  uint32_t RegisterIndex(RelId rel, const std::vector<uint32_t>& key_pos) {
    for (uint32_t i = 0; i < indexes_.size(); ++i) {
      if (indexes_[i].rel == rel && indexes_[i].index.key_columns() == key_pos) return i;
    }
    indexes_.push_back({rel, RowIndex(key_pos)});
    if (rel >= rel_indexes_.size()) rel_indexes_.resize(rel + 1);
    rel_indexes_[rel].push_back(static_cast<uint32_t>(indexes_.size() - 1));
    return static_cast<uint32_t>(indexes_.size() - 1);
  }

  /// Unifies `atom` (all-variable TGD atom) with a fact tuple; binds fresh
  /// variables, records them in `bound` for undo; returns false on clash.
  static bool UnifyAtom(const Atom& atom, const Value* tuple,
                        std::vector<Value>* assign, SmallVec<uint32_t, 8>* bound) {
    for (uint32_t p = 0; p < atom.terms.size(); ++p) {
      uint32_t v = VarOf(atom.terms[p]);
      if ((*assign)[v] == kUnbound) {
        (*assign)[v] = tuple[p];
        bound->push_back(v);
      } else if ((*assign)[v] != tuple[p]) {
        for (uint32_t b : *bound) (*assign)[b] = kUnbound;
        return false;
      }
    }
    return true;
  }

  /// Phase A: enumerate the round's candidate matches into cand_tgds_ /
  /// cand_vals_. No writes to the database, indexes, or any other engine
  /// state happen in this phase, so every probe reads the round-start
  /// state.
  void MatchRound(const std::vector<FactRef>& delta) {
    cand_tgds_.clear();
    cand_vals_.clear();
    match_aborted_ = false;
    for (const FactRef& f : delta) {
      // Per-fact cancel checkpoint (strided clock inside the token): a
      // Cancel() from another thread or an expired deadline stops the
      // match within one fact's matching work.
      if (options_.cancel != nullptr &&
          (match_aborted_ || !options_.cancel->Check().ok())) {
        match_aborted_ = true;
        return;
      }
      if (f.rel >= plans_by_rel_.size()) continue;
      for (uint32_t plan_id : plans_by_rel_[f.rel]) {
        const MatchPlan& plan = plans_[plan_id];
        const TGD& tgd = onto_.tgds()[plan.tgd];
        assign_.assign(tgd.num_vars(), kUnbound);
        SmallVec<uint32_t, 8> bound;
        if (!UnifyAtom(tgd.body()[plan.delta_atom], result_->db.Row(f),
                       &assign_, &bound)) {
          continue;
        }
        MatchBacktrack(plan, 0);
      }
    }
  }

  /// Extends the assignment through the plan's remaining body atoms by
  /// probing the round-start indexes; emits every complete body assignment
  /// as a candidate (phase B fires them).
  void MatchBacktrack(const MatchPlan& plan, size_t step) {
    if (match_aborted_) return;  // a cancel checkpoint fired mid-join
    if (step == plan.steps.size()) {
      EmitCandidate(plan.tgd);
      return;
    }
    const PlanStep& ps = plan.steps[step];
    const Atom& atom = onto_.tgds()[plan.tgd].body()[ps.atom];
    const RowIndex& index = indexes_[ps.index_id].index;
    ValueTuple key;
    for (uint32_t p : index.key_columns()) {
      key.push_back(assign_[VarOf(atom.terms[p])]);
    }
    for (uint32_t row = index.First(key.data()); row != UINT32_MAX;
         row = index.Next(row)) {
      SmallVec<uint32_t, 8> bound;
      if (!UnifyAtom(atom, result_->db.Row(atom.rel, row), &assign_, &bound)) {
        continue;
      }
      MatchBacktrack(plan, step + 1);
      for (uint32_t b : bound) assign_[b] = kUnbound;
    }
  }

  /// Buffers candidate (t, body values). A body assignment can be emitted
  /// once per plan whose delta atom matched a delta fact, so at most |body|
  /// times per round; Apply's applied_ table skips (or re-suppresses) every
  /// repeat of a multi-atom body, so repeats never change the applied
  /// sequence. A one-atom body is emitted once per run (see Apply).
  void EmitCandidate(uint32_t t) {
    // A single delta fact can join-explode, so the per-fact checkpoint in
    // MatchRound is not enough: check per candidate too (one compare when
    // no token is set; the token strides its own clock reads).
    if (options_.cancel != nullptr && !options_.cancel->Check().ok()) {
      match_aborted_ = true;
      return;
    }
    cand_tgds_.push_back(t);
    VarSet rest = onto_.tgds()[t].BodyVars();
    while (rest) {
      uint32_t v = static_cast<uint32_t>(__builtin_ctzll(rest));
      rest &= rest - 1;
      cand_vals_.push_back(assign_[v]);
    }
  }

  /// Phase B: fires the round's candidates in discovery order. Rebuilds
  /// each body assignment (body values are stored in ascending variable-id
  /// order, the dedup-key order) and fires it through Apply: global
  /// applied_ dedup, restricted-mode head check, depth cap, block
  /// assignment, null invention, fact + index insertion, next delta.
  Status ApplyRound() {
    size_t off = 0;
    for (uint32_t t : cand_tgds_) {
      // Checkpoint every application: apply-heavy rounds are the other
      // place a deadline must land promptly, and the null-token cost is one
      // compare.
      OMQE_RETURN_IF_ERROR(CheckCancel(options_.cancel));
      const TGD& tgd = onto_.tgds()[t];
      assign_.assign(tgd.num_vars(), kUnbound);
      VarSet rest = tgd.BodyVars();
      while (rest) {
        uint32_t v = static_cast<uint32_t>(__builtin_ctzll(rest));
        rest &= rest - 1;
        assign_[v] = cand_vals_[off++];
      }
      OMQE_RETURN_IF_ERROR(Apply(t, assign_));
    }
    return Status::OK();
  }

  /// Restricted-chase check: can the head be matched in the current
  /// instance with the frontier fixed by `assign`?
  bool HeadSatisfied(uint32_t t, std::vector<Value>& assign, size_t step) {
    const std::vector<PlanStep>& plan = head_plans_[t];
    if (step == plan.size()) return true;
    const Atom& atom = onto_.tgds()[t].head()[plan[step].atom];
    const RowIndex& index = indexes_[plan[step].index_id].index;
    ValueTuple key;
    for (uint32_t p : index.key_columns()) key.push_back(assign[VarOf(atom.terms[p])]);
    for (uint32_t row = index.First(key.data()); row != UINT32_MAX;
         row = index.Next(row)) {
      SmallVec<uint32_t, 8> bound;
      if (!UnifyAtom(atom, result_->db.Row(atom.rel, row), &assign, &bound)) continue;
      bool ok = HeadSatisfied(t, assign, step + 1);
      for (uint32_t b : bound) assign[b] = kUnbound;
      if (ok) return true;
    }
    return false;
  }

  /// Fires TGD `t` under a complete body assignment (oblivious semantics:
  /// once per (TGD, body tuple), even if the head is already satisfied).
  /// Only a body of two or more atoms needs the applied_ table to fire
  /// once: a fact enters delta_ once (SeedInputFacts and AddFact push only
  /// facts the database accepted), a one-atom body has one plan, and
  /// distinct facts give its all-variable atom distinct assignments. So a
  /// one-atom body's application is discovered at most once per run, and
  /// an empty body fires once, directly in Run.
  Status Apply(uint32_t t, std::vector<Value>& assign) {
    const TGD& tgd = onto_.tgds()[t];
    const VarSet body_vars = tgd.BodyVars();
    uint32_t max_depth = 0;
    for (VarSet rest = body_vars; rest; rest &= rest - 1) {
      const Value val = assign[__builtin_ctzll(rest)];
      if (IsNull(val)) max_depth = std::max(max_depth, null_depth_[NullIndex(val)]);
    }
    // The resolve step of this application (dedup + cap check).
    if (FaultFires(kFaultChaseApply)) {
      return Status::Internal("injected fault at chase.apply");
    }
    uint8_t* applied = nullptr;
    if (tgd.body().size() > 1) {
      // Dedup key: TGD id followed by the values of its body variables.
      // (Scratch member: the key regularly outgrows SmallVec inline space.)
      key_.clear();
      key_.push_back(t);
      for (VarSet rest = body_vars; rest; rest &= rest - 1) {
        key_.push_back(assign[__builtin_ctzll(rest)]);
      }
      applied = &applied_.InsertOrGet(key_.data(), key_.size(), 0);
      if (*applied) return Status::OK();
    }

    VarSet existentials = tgd.ExistentialVars();
    uint32_t block = UINT32_MAX;
    if (existentials) {
      if (options_.mode == ChaseMode::kRestricted && HeadSatisfied(t, assign, 0)) {
        // Monotone: once satisfied, always satisfied.
        if (applied != nullptr) *applied = 1;
        return Status::OK();
      }
      if (max_depth + 1 > options_.null_depth) {
        result_->truncated = true;
        // A multi-atom body leaves its entry unset: a rediscovery is
        // re-suppressed here, as cheaply.
        return Status::OK();
      }
      block = PickBlock(tgd, assign, body_vars);
      // Invent the fresh nulls.
      VarSet ex = existentials;
      while (ex) {
        uint32_t v = static_cast<uint32_t>(__builtin_ctzll(ex));
        ex &= ex - 1;
        Value null = result_->db.FreshNull();
        assign[v] = null;
        null_depth_.push_back(max_depth + 1);
        null_block_.push_back(block);
      }
      result_->stats.nulls_invented +=
          static_cast<uint64_t>(__builtin_popcountll(existentials));
    }
    if (applied != nullptr) *applied = 1;
    ++result_->stats.applied;

    ValueTuple tuple;
    for (const Atom& h : tgd.head()) {
      tuple.clear();
      for (Term term : h.terms) tuple.push_back(assign[VarOf(term)]);
      OMQE_RETURN_IF_ERROR(AddFact(h.rel, tuple.data(), tuple.size()));
    }
    // Unbind the existentials for the caller's backtracking.
    VarSet ex = existentials;
    while (ex) {
      uint32_t v = static_cast<uint32_t>(__builtin_ctzll(ex));
      ex &= ex - 1;
      assign[v] = kUnbound;
    }
    return Status::OK();
  }

  /// Block for the nulls of a firing application: the block of any body
  /// null, else a fresh block rooted at the instantiated guard fact.
  uint32_t PickBlock(const TGD& tgd, const std::vector<Value>& assign,
                     VarSet body_vars) {
    VarSet rest = body_vars;
    while (rest) {
      uint32_t v = static_cast<uint32_t>(__builtin_ctzll(rest));
      rest &= rest - 1;
      if (IsNull(assign[v])) {
        uint32_t b = null_block_[NullIndex(assign[v])];
        if (b != UINT32_MAX) return b;
      }
    }
    ChaseBlock block;
    int guard = tgd.GuardAtom();
    if (guard >= 0) {
      block.has_source = true;
      block.source_rel = tgd.body()[guard].rel;
      for (Term term : tgd.body()[guard].terms) {
        block.source_tuple.push_back(assign[VarOf(term)]);
      }
    }
    blocks_.push_back(std::move(block));
    return static_cast<uint32_t>(blocks_.size() - 1);
  }

  Status AddFact(RelId rel, const Value* tuple, uint32_t arity) {
    if (!result_->db.AddFact(rel, tuple, arity)) return Status::OK();
    if (result_->db.TotalFacts() > options_.max_facts) {
      return Status::ResourceExhausted("chase exceeded the fact budget");
    }
    FactRef ref{rel, result_->db.NumRows(rel) - 1};
    // Maintain the join indexes.
    if (rel < rel_indexes_.size()) {
      const Value* row = result_->db.Row(ref);
      for (uint32_t i : rel_indexes_[rel]) indexes_[i].index.Add(row);
    }
    delta_.push_back(ref);
    // Record block membership for facts containing a block null.
    for (uint32_t i = 0; i < arity; ++i) {
      if (IsNull(tuple[i])) {
        uint32_t b = null_block_[NullIndex(tuple[i])];
        if (b != UINT32_MAX) {
          blocks_[b].facts.push_back(ref);
        }
        break;
      }
    }
    return Status::OK();
  }

  const Database& input_;
  const Ontology& onto_;
  const ChaseOptions& options_;
  std::unique_ptr<ChaseResult> result_;

  std::vector<MatchPlan> plans_;
  std::vector<std::vector<uint32_t>> plans_by_rel_;  // delta-atom rel -> plan ids
  std::vector<std::vector<PlanStep>> head_plans_;
  std::vector<JoinIndex> indexes_;
  std::vector<std::vector<uint32_t>> rel_indexes_;
  /// Application dedup for TGDs with two or more body atoms (the only
  /// ones whose applications are discovered more than once; see Apply):
  /// TGD id + body values -> 1 once the application fired (or, in
  /// restricted mode, found its head satisfied). A cap-suppressed
  /// application leaves its entry 0 and is re-suppressed if rediscovered.
  TupleMap<uint8_t> applied_;
  std::vector<uint32_t> null_depth_;
  std::vector<uint32_t> null_block_;
  std::vector<ChaseBlock> blocks_;
  std::vector<FactRef> delta_;
  // One round's candidates (phase A output): candidate i is cand_tgds_[i]
  // plus its body-variable values appended to cand_vals_ in ascending
  // variable-id order. Reused across rounds (cleared, not freed).
  std::vector<uint32_t> cand_tgds_;
  std::vector<Value> cand_vals_;
  bool match_aborted_ = false;  // a cancel checkpoint failed mid-match
  // Scratch buffers reused across the delta loop (no per-fact allocation).
  std::vector<Value> assign_;
  ValueTuple key_;  // applied_'s key
};

}  // namespace

StatusOr<std::unique_ptr<ChaseResult>> RunChase(const Database& input,
                                                const Ontology& onto,
                                                const ChaseOptions& options) {
  ChaseEngine engine(input, onto, options);
  return engine.Run();
}

std::unique_ptr<Database> HornDatalogSaturation(const Database& input,
                                                const Ontology& onto,
                                                Vocabulary* vocab) {
  // Grounded guarded-datalog saturation through the Horn engine
  // (Proposition 3.3's device, restricted to the existential-free fragment).
  HornFormula horn;
  TupleMap<uint32_t> fact_var;           // (rel, tuple) -> horn variable
  std::vector<ValueTuple> var_fact;      // horn variable -> (rel, tuple)
  std::vector<uint32_t> worklist;
  const size_t seed_facts = input.TotalFacts();
  fact_var.Reserve(seed_facts);
  var_fact.reserve(seed_facts);
  worklist.reserve(seed_facts);

  auto intern_fact = [&](const Value* tuple, uint32_t arity, RelId rel) {
    ValueTuple key;
    key.push_back(rel);
    for (uint32_t i = 0; i < arity; ++i) key.push_back(tuple[i]);
    uint32_t fresh = horn.num_vars();
    uint32_t& v = fact_var.InsertOrGet(key.data(), key.size(), fresh);
    if (v == fresh) {
      horn.AddVar();
      var_fact.push_back(key);
      worklist.push_back(v);
    }
    return v;
  };

  // Seed with the input facts (unit clauses).
  for (RelId r = 0; r < input.NumRelationSlots(); ++r) {
    uint32_t arity = input.Arity(r);
    for (uint32_t row = 0; row < input.NumRows(r); ++row) {
      uint32_t v = intern_fact(input.Row(r, row), arity, r);
      horn.AddClause({}, v);
    }
  }

  // For every potential guard fact, instantiate every guarded datalog TGD
  // whose guard unifies with it; heads become new potential facts.
  while (!worklist.empty()) {
    uint32_t fv = worklist.back();
    worklist.pop_back();
    ValueTuple fact = var_fact[fv];  // copy: var_fact may grow below
    RelId rel = fact[0];
    for (const TGD& tgd : onto.tgds()) {
      if (tgd.ExistentialVars() != 0 || tgd.body().empty()) continue;
      int guard_idx = tgd.GuardAtom();
      if (guard_idx < 0) continue;  // only the guarded fragment
      const Atom& guard = tgd.body()[static_cast<size_t>(guard_idx)];
      if (guard.rel != rel) continue;
      // Unify the guard with the fact; the guard binds all body variables.
      std::vector<Value> assign(tgd.num_vars(), 0xffffffffu);
      bool ok = true;
      for (uint32_t p = 0; p < guard.terms.size(); ++p) {
        uint32_t var = VarOf(guard.terms[p]);
        Value val = fact[p + 1];
        if (assign[var] == 0xffffffffu) {
          assign[var] = val;
        } else if (assign[var] != val) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      std::vector<uint32_t> body_vars;
      ValueTuple tuple;
      for (const Atom& b : tgd.body()) {
        tuple.clear();
        for (Term term : b.terms) tuple.push_back(assign[VarOf(term)]);
        body_vars.push_back(intern_fact(tuple.data(), tuple.size(), b.rel));
      }
      for (const Atom& h : tgd.head()) {
        tuple.clear();
        for (Term term : h.terms) tuple.push_back(assign[VarOf(term)]);
        horn.AddClause(body_vars, intern_fact(tuple.data(), tuple.size(), h.rel));
      }
    }
  }

  std::vector<bool> model = horn.MinimalModel();
  auto out = std::make_unique<Database>(vocab);
  for (uint32_t v = 0; v < model.size(); ++v) {
    if (!model[v]) continue;
    const ValueTuple& fact = var_fact[v];
    out->AddFact(fact[0], fact.data() + 1, fact.size() - 1);
  }
  return out;
}

}  // namespace omqe
