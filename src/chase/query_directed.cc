#include "chase/query_directed.h"

#include <algorithm>

namespace omqe {

uint32_t MinNullDepthFor(const CQ& q) {
  uint32_t used_vars = static_cast<uint32_t>(__builtin_popcountll(q.AllVars()));
  uint32_t atoms = static_cast<uint32_t>(q.atoms().size());
  return std::max(used_vars, atoms);
}

namespace {

/// Seals the finished chase: the database freezes so every consumer —
/// including concurrent enumeration sessions — reads a provably immutable
/// artifact.
std::shared_ptr<ChaseResult> Seal(std::unique_ptr<ChaseResult> result) {
  result->db.Freeze();
  return std::shared_ptr<ChaseResult>(std::move(result));
}

}  // namespace

StatusOr<std::shared_ptr<ChaseResult>> QueryDirectedChase(
    const Database& db, const Ontology& onto, const CQ& q,
    const QdcOptions& options) {
  ChaseOptions chase_options;
  chase_options.max_facts = options.max_facts;
  chase_options.cancel = options.cancel;
  uint32_t depth = options.min_depth_override != 0
                       ? options.min_depth_override
                       : std::max(MinNullDepthFor(q) + options.extra_depth, 1u);

  chase_options.null_depth = depth;
  auto prev = RunChase(db, onto, chase_options);
  if (!prev.ok()) return prev.status();
  if (!(*prev)->truncated) return Seal(std::move(prev).value());

  for (uint32_t k = depth + 1; k <= options.max_depth; ++k) {
    OMQE_RETURN_IF_ERROR(CheckCancelNow(options.cancel));
    chase_options.null_depth = k;
    auto cur = RunChase(db, onto, chase_options);
    if (!cur.ok()) return cur.status();
    if (!(*cur)->truncated ||
        (*cur)->db_part_facts == (*prev)->db_part_facts) {
      return Seal(std::move(cur).value());
    }
    prev = std::move(cur);
  }
  // Saturation did not stabilize within the hard cap; return the deepest
  // prefix (truncated flag stays set so callers can surface this).
  return Seal(std::move(prev).value());
}

}  // namespace omqe
