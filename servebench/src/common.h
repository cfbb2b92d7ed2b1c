// Small shared helpers for the serving benchmark: clocks, order statistics,
// the order-independent answer digest, /proc readers and a JSON writer.
#ifndef SERVEBENCH_COMMON_H_
#define SERVEBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sb {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// The end-to-end timings report the fast end of a run's samples: the 10th
/// percentile of a duration, the 90th of a rate. Other tenants of a shared
/// host only ever add time, in bursts of seconds to minutes, so a run's
/// median follows their load while its fast end follows the program.
constexpr double kFastQuantile = 0.1;

/// 64-bit hash of one rendered answer row (FNV-1a, then a finalizer so the
/// digest's sum and xor see well-mixed words).
inline uint64_t HashRow(std::string_view row) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : row) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

/// Order-independent digest of an answer set: row count plus the sum and
/// xor of the row hashes.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  uint64_t xr = 0;
  void Add(std::string_view row) {
    const uint64_t h = HashRow(row);
    ++rows;
    sum += h;
    xr ^= h;
  }
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum && xr == o.xr;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};

/// A "Key:   <n> kB" field of /proc/<pid>/status in kB (pid 0 = self);
/// -1 when unreadable.
int64_t ProcStatusKb(int pid, const char* key);

/// Minimal JSON object writer: keys in insertion order, numbers printed with
/// all their digits.
class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double v);
  JsonObject& Int(std::string_view key, int64_t v);
  JsonObject& Str(std::string_view key, std::string_view v);
  JsonObject& Bool(std::string_view key, bool v);
  JsonObject& Raw(std::string_view key, std::string_view json);
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  void Key(std::string_view key);
  std::string body_;
};

std::string JsonQuote(std::string_view s);

}  // namespace sb

#endif  // SERVEBENCH_COMMON_H_
