#ifndef IDREPAIR_BENCH_BENCH_UTIL_H_
#define IDREPAIR_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/resource.h"
#include "common/string_util.h"
#include "fault/failpoint.h"

namespace idrepair {
namespace benchutil {

/// Number of repetitions per configuration. The paper repeats each
/// experiment >= 30 times; three repetitions keep the full harness fast
/// while still averaging out generator noise (results are deterministic per
/// seed anyway).
inline constexpr int kRepetitions = 3;

/// The harness-wide timing policy: MIN of kRepetitions, not mean or a
/// single run. The minimum is the repetition least disturbed by the
/// machine (scheduler preemption, cache pollution from a neighbor, a GC in
/// an unrelated process all only ever ADD time), so it is the stable
/// estimator speedup ratios should be built from. `run(rep)` performs one
/// repetition and returns its seconds.
template <typename RunFn>
double MinOverReps(RunFn&& run) {
  double best = run(0);
  for (int rep = 1; rep < kRepetitions; ++rep) {
    best = std::min(best, run(rep));
  }
  return best;
}

inline void PrintTitle(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

inline void PrintHeader(const std::vector<std::string>& cols) {
  for (size_t i = 0; i < cols.size(); ++i) {
    std::cout << (i ? "  " : "") << std::setw(i ? 14 : 18) << cols[i];
  }
  std::cout << "\n";
}

inline void PrintCell(const std::string& value, bool first) {
  std::cout << (first ? "" : "  ") << std::setw(first ? 18 : 14) << value;
}

inline void PrintRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) PrintCell(cells[i], i == 0);
  std::cout << "\n";
}

inline std::string Fmt(double v, int digits = 3) {
  return ToFixed(v, digits);
}

inline std::string FmtMs(double seconds) { return ToFixed(seconds * 1e3, 1); }

inline std::string FmtRatio(double ratio) {
  return ToFixed(ratio, 2) + "x";
}

/// The first "model name" line of /proc/cpuinfo, or "unknown".
inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Drop-in replacement for the Print* free functions that mirrors every
/// printed table into `BENCH_<name>.json` — same rows, machine-readable —
/// so runs can be diffed and plotted without scraping stdout. The file is
/// written by the destructor into $IDREPAIR_BENCH_JSON_DIR (default: the
/// working directory). Numeric-looking cells ("12.5", "3e4") become JSON
/// numbers; everything else ("2.13x", "on") stays a string.
///
///   BenchReport report("fig14_optimizations");
///   report.Title("Fig 14 — ...");
///   report.Header({"dataset", "time"});
///   report.Row({"syn-1k", FmtMs(t)});
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() { WriteJson(); }

  /// Starts a new table (Print Title + a fresh JSON "tables" entry).
  void Title(const std::string& title) {
    PrintTitle(title);
    tables_.push_back(Table{title, {}, {}});
  }

  /// Column names for the current table.
  void Header(const std::vector<std::string>& cols) {
    PrintHeader(cols);
    if (tables_.empty()) tables_.push_back(Table{});
    tables_.back().columns = cols;
  }

  /// One data row; cells align positionally with the header.
  void Row(const std::vector<std::string>& cells) {
    PrintRow(cells);
    if (tables_.empty()) tables_.push_back(Table{});
    tables_.back().rows.push_back(cells);
  }

  /// Records a named memory statistic (e.g. "gr_bytes_per_edge") surfaced
  /// in the JSON "memory" object next to the always-present peak RSS.
  void Memory(const std::string& key, double value) {
    memory_.emplace_back(key, value);
  }

 private:
  struct Table {
    std::string title;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
  };

  void WriteJson() const {
    // Delay-only site: artifact writing happens in a destructor, so chaos
    // runs can stall it but a Status-style failure has nowhere to go.
    fault::MaybePerturb("bench.report.write");
    const char* dir = std::getenv("IDREPAIR_BENCH_JSON_DIR");
    std::string path = (dir != nullptr && *dir != '\0')
                           ? std::string(dir) + "/BENCH_" + name_ + ".json"
                           : "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "warning: cannot write " << path << "\n";
      return;
    }
    JsonWriter w(&out);
    w.BeginObject();
    w.Key("bench");
    w.String(name_);
    w.Key("repetitions");
    w.Int(kRepetitions);
    // Timing provenance: which estimator produced the ms columns, which
    // code and build produced them, and on what hardware — without these,
    // artifact diffs across machines (a 1-core CI box vs an 8-core
    // workstation) or builds read as regressions.
    w.Key("timing_policy");
    w.String("min_of_n");
    w.Key("hardware_threads");
    w.Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
    w.Key("git_sha");
    w.String(IDREPAIR_BENCH_GIT_SHA);
    w.Key("build_type");
    w.String(IDREPAIR_BENCH_BUILD_TYPE);
    w.Key("compiler");
    w.String(IDREPAIR_BENCH_COMPILER);
    w.Key("cpu_model");
    w.String(CpuModel());
    // Memory block: the process peak RSS at write time (the whole run's
    // high-water mark) plus any bench-reported structure sizes, so memory
    // regressions diff as easily as timings.
    w.Key("memory");
    w.BeginObject();
    w.Key("peak_rss_bytes");
    w.Int(static_cast<int64_t>(PeakRssBytes()));
    for (const auto& [key, value] : memory_) {
      w.Key(key);
      w.Double(value);
    }
    w.EndObject();
    w.Key("tables");
    w.BeginArray();
    for (const Table& t : tables_) {
      w.BeginObject();
      w.Key("title");
      w.String(t.title);
      w.Key("columns");
      w.BeginArray();
      for (const auto& c : t.columns) w.String(c);
      w.EndArray();
      w.Key("rows");
      w.BeginArray();
      for (const auto& row : t.rows) {
        w.BeginObject();
        for (size_t i = 0; i < row.size(); ++i) {
          w.Key(i < t.columns.size() ? t.columns[i]
                                     : "col" + std::to_string(i));
          w.NumberOrString(row[i]);
        }
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    out << "\n";
    std::cout << "\n[bench] wrote " << path << "\n";
  }

  std::string name_;
  std::vector<Table> tables_;
  std::vector<std::pair<std::string, double>> memory_;
};

}  // namespace benchutil
}  // namespace idrepair

#endif  // IDREPAIR_BENCH_BENCH_UTIL_H_
