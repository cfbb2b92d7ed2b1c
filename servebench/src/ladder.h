// The traced run's in-process cost ladder: each layer's public entry point
// timed on the workload's own files, from the chase up to the protocol's
// HandleLine. A layer's self time is its rung minus the rung below.
#ifndef SERVEBENCH_LADDER_H_
#define SERVEBENCH_LADDER_H_

#include <string>
#include <vector>

#include "drive.h"

namespace sb {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The top rungs, from the traced run's TCP passes (medians unless noted).
struct TcpRungs {
  double prepare_ms = 0;       // PREPARE roundtrip, ms
  double fetch16_us = 0;       // closed-loop FETCH 16, us
  double fetch256_us = 0;      // closed-loop FETCH 256, us, mean per 256 rows
  double closed_mix_p50_us = 0;  // closed-loop OPEN/FETCH/CLOSE mix
  double open_mix_p50_us = 0;    // the same mix, open loop
};

/// Runs the in-process ladder for about `budget_s` seconds (at least one
/// repetition of every rung) and appends the per-layer metrics. Answer
/// checks the ladder makes go to *mismatches; spans to *log.
void RunLadder(const Ctx& ctx, double budget_s, const TcpRungs& tcp,
               std::vector<Metric>* out, std::vector<std::string>* mismatches,
               SpanLog* log);

}  // namespace sb

#endif  // SERVEBENCH_LADDER_H_
