// Shared helpers for the experiment harnesses: delay statistics, table
// printing, and the machine-readable baseline format. Every bench binary
// prints a self-contained table whose rows are the series EXPERIMENTS.md
// records, and emits the same rows as BENCH_<name>.json so perf baselines
// can be collected and diffed mechanically (CI validates the format).
#ifndef OMQE_BENCH_BENCH_UTIL_H_
#define OMQE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/timer.h"
#include "data/value.h"

namespace omqe::bench {

/// True when the harness was invoked with --smoke: sweeps shrink to a single
/// tiny size so ctest exercises every code path in well under a second.
inline bool SmokeMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]) == "--smoke") return true;
  return false;
}

/// The sweep for one experiment: the full series normally, just `tiny` in
/// smoke mode.
template <typename T>
std::vector<T> Sweep(bool smoke, std::initializer_list<T> full, T tiny) {
  return smoke ? std::vector<T>{tiny} : std::vector<T>(full);
}

struct DelayStats {
  size_t answers = 0;
  double mean_ns = 0;
  double p50_ns = 0;
  double p95_ns = 0;
  double p99_ns = 0;
  double p999_ns = 0;
  double max_ns = 0;
};

/// Statistics over a set of per-answer delays. Shared by MeasureDelays and
/// the delay regression test, so the numbers the JSON baselines record are
/// by construction the numbers the tests assert on. The tail quantiles
/// (p99/p999) are the constant-delay guarantee's observable: the mean hides
/// a stalling enumerator, the tail does not.
inline DelayStats ComputeDelayStats(std::vector<int64_t> delays) {
  DelayStats stats;
  stats.answers = delays.size();
  if (delays.empty()) return stats;
  double sum = 0;
  for (int64_t d : delays) sum += static_cast<double>(d);
  stats.mean_ns = sum / static_cast<double>(delays.size());
  std::sort(delays.begin(), delays.end());
  auto at = [&](size_t rank) {
    return static_cast<double>(delays[std::min(rank, delays.size() - 1)]);
  };
  stats.p50_ns = at(delays.size() / 2);
  stats.p95_ns = at(delays.size() * 95 / 100);
  stats.p99_ns = at(delays.size() * 99 / 100);
  stats.p999_ns = at(delays.size() * 999 / 1000);
  stats.max_ns = at(delays.size() - 1);
  return stats;
}

/// Median of a series of timed legs (the upper middle for an even count).
inline double Median(std::vector<double> legs) {
  std::nth_element(legs.begin(), legs.begin() + legs.size() / 2, legs.end());
  return legs[legs.size() / 2];
}

/// Overhead in percent of the armed side over the disarmed side, from legs
/// run in interleaved reps (leg i of each side ran in rep i): the median
/// over reps of armed[i] / disarmed[i]. Pairing the two legs of a rep
/// cancels the host's drift between reps, and the median drops the reps a
/// burst of noise hit, where a minimum per side would compare the two
/// sides' luckiest legs.
inline double PairedOverheadPct(const std::vector<double>& disarmed,
                                const std::vector<double>& armed) {
  std::vector<double> ratios;
  for (size_t i = 0; i < disarmed.size() && i < armed.size(); ++i) {
    ratios.push_back(armed[i] / disarmed[i]);
  }
  return ratios.empty() ? 0 : (Median(std::move(ratios)) - 1) * 100;
}

/// CPU time the calling thread has run so far, in nanoseconds.
inline int64_t ThreadCpuNanos() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Runs `next` (returning false at end) to exhaustion, recording the delay
/// before every answer (including the first after preprocessing). The next
/// delay starts after the push, so a growth of `delays` itself is never
/// charged to an answer.
template <typename NextFn>
DelayStats MeasureDelays(NextFn&& next) {
  std::vector<int64_t> delays;
  int64_t last = NowNanos();
  while (next()) {
    delays.push_back(NowNanos() - last);
    last = NowNanos();
  }
  return ComputeDelayStats(std::move(delays));
}

inline void PrintHeader(const char* title, const char* columns) {
  std::printf("\n== %s ==\n%s\n", title, columns);
}

/// Renders a double as a JSON number. Integers (the common case: sizes,
/// counts) print exactly; everything else keeps 9 significant digits;
/// non-finite values become null (JSON has no NaN/Inf).
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

inline std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

/// One row of a JSON baseline: an ordered set of key -> value fields.
class JsonRow {
 public:
  template <typename T,
            std::enable_if_t<std::is_arithmetic_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  JsonRow& Set(std::string_view key, T v) {
    fields_.emplace_back(std::string(key), JsonNumber(static_cast<double>(v)));
    return *this;
  }
  JsonRow& Set(std::string_view key, bool v) {
    fields_.emplace_back(std::string(key), v ? "true" : "false");
    return *this;
  }
  JsonRow& Set(std::string_view key, std::string_view v) {
    fields_.emplace_back(std::string(key), JsonString(v));
    return *this;
  }
  JsonRow& Set(std::string_view key, const char* v) {
    return Set(key, std::string_view(v));
  }
  /// Expands the delay profile into the baseline's standard field names.
  JsonRow& Set(std::string_view prefix, const DelayStats& stats) {
    std::string p(prefix);
    Set(p + "answers", static_cast<double>(stats.answers));
    Set(p + "delay_mean_ns", stats.mean_ns);
    Set(p + "delay_p50_ns", stats.p50_ns);
    Set(p + "delay_p95_ns", stats.p95_ns);
    Set(p + "delay_p99_ns", stats.p99_ns);
    Set(p + "delay_p999_ns", stats.p999_ns);
    Set(p + "delay_max_ns", stats.max_ns);
    return *this;
  }

 private:
  friend class JsonEmitter;
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Accumulates the rows a harness prints and writes them as
/// BENCH_<name>.json (override the path with --json <path>). The file is
/// written by WriteFile() or, failing that, the destructor, so a harness
/// only needs to construct one emitter and fill rows as it goes.
class JsonEmitter {
 public:
  JsonEmitter(std::string_view name, int argc, char** argv)
      : name_(name), smoke_(SmokeMode(argc, argv)) {
    path_ = "BENCH_" + name_ + ".json";
    for (int i = 1; i < argc; ++i) {
      std::string_view arg(argv[i]);
      if (arg == "--json" && i + 1 < argc) path_ = argv[i + 1];
      if (arg.rfind("--json=", 0) == 0) path_ = std::string(arg.substr(7));
    }
  }
  JsonEmitter(const JsonEmitter&) = delete;
  JsonEmitter& operator=(const JsonEmitter&) = delete;
  ~JsonEmitter() {
    if (!written_) WriteFile();
  }

  /// Adds a row tagged with the experiment series it belongs to.
  JsonRow& AddRow(std::string_view series) {
    rows_.emplace_back();
    rows_.back().Set("series", series);
    return rows_.back();
  }

  const std::string& path() const { return path_; }

  bool WriteFile() {
    written_ = true;
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": %s,\n  \"smoke\": %s,\n  \"rows\": [",
                 JsonString(name_).c_str(), smoke_ ? "true" : "false");
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "%s\n    {", r == 0 ? "" : ",");
      const auto& fields = rows_[r].fields_;
      for (size_t i = 0; i < fields.size(); ++i) {
        std::fprintf(f, "%s%s: %s", i == 0 ? "" : ", ",
                     JsonString(fields[i].first).c_str(),
                     fields[i].second.c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::string name_;
  bool smoke_;
  std::string path_;
  std::vector<JsonRow> rows_;
  bool written_ = false;
};

}  // namespace omqe::bench

#endif  // OMQE_BENCH_BENCH_UTIL_H_
