// The benchmark's workloads: their parameters, the generated input files
// (made from the seed by the benchmark's own generator, so the inputs do not
// move when the program's workload module changes), and the in-process
// reference every wire answer is checked against.
#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace sb {

enum class Kind { kPrepareOffice, kStreamChain, kInteractiveChain };

struct Workload {
  std::string name;
  Kind kind = Kind::kPrepareOffice;
  bool smoke = false;
  /// Data family: the paper's running example (Example 1.1) or chains.
  bool office = true;
  uint32_t researchers = 0;  // office
  uint32_t chain_length = 3;
  uint32_t chain_base = 0;   // constants per layer
  uint32_t chain_fanout = 3;
  double chain_anonymous = 0.2;
  /// Size at which the engine's reference is checked against the brute
  /// force oracle (which does not finish at full size).
  uint32_t oracle_size = 0;
  /// interactive-chain: session arrivals per second over all connections,
  /// and the period of the re-PREPAREs on the fourth connection.
  double session_rate = 750;
  double reprepare_period_s = 4;
  /// Server launches behind setup_s (median reported).
  int setups = 6;
};

/// Parses a workload name; false for an unknown one.
bool MakeWorkload(const std::string& name, bool smoke, Workload* out);

/// One generated input: ontology file text, fact file text, and the served
/// query's text (as sent after "PREPARE <name> ").
struct Dataset {
  std::string ontology;
  std::string facts;
  std::string query;
  uint64_t fact_lines = 0;
};

/// Generates the workload's data from `seed` at `size` (researchers for
/// office, constants per layer for chains).
Dataset GenerateDataset(const Workload& w, uint64_t seed, uint32_t size);

/// What every wire answer is checked against.
struct Reference {
  Digest partial;
  Digest complete;
  uint64_t progress_trees = 0;
  uint64_t chase_facts = 0;
  bool duplicates = false;  ///< some answer set repeats a row
};

/// Computes the reference in process with the engine (same rendering as
/// the server's ROW lines). Returns "" on success, else the failure.
std::string ComputeReference(const Dataset& data, Reference* out);

/// Checks the engine's complete and minimal partial answers against the
/// brute-force oracle on `data` (a small instance). "" on agreement.
std::string CheckAgainstOracle(const Dataset& data);

}  // namespace sb

#endif  // SERVEBENCH_WORKLOADS_H_
