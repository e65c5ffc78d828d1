#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "common/flags.h"
#include "common/json.h"
#include "common/resource.h"
#include "eval/set_distance.h"

namespace idrepair::bench {

Result<Args> ParseArgs(int argc, char** argv) {
  auto flags = FlagParser::Parse(argc - 1, argv + 1, {"smoke", "git-dirty"});
  if (!flags.ok()) return flags.status();
  Args args;
  args.workload = flags->GetString("workload");
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    return Status::InvalidArgument("--workload must be one of giant_dense, "
                                   "sparse_fleet, dmin_conflict, "
                                   "stream_replay, daemon_catalog");
  }
  auto seed = flags->GetInt("seed", 0);
  auto seconds = flags->GetDouble("seconds", Args{}.seconds);
  for (const Status& s : {seed.status(), seconds.status()}) {
    if (!s.ok()) return s;
  }
  if (*seed < 0 || *seconds < 0) {
    return Status::InvalidArgument("--seed and --seconds must be >= 0");
  }
  args.seed = static_cast<uint64_t>(*seed);
  args.smoke = flags->GetBool("smoke");
  args.seconds = args.smoke ? 0.0 : *seconds;
  args.out = flags->GetString("out");
  args.git_sha = flags->GetString("git-sha", "unknown");
  args.git_dirty = flags->GetBool("git-dirty");
  args.threads = DefaultThreads();
  return args;
}

int DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// ---- Work --------------------------------------------------------------

Work::Work(const Args& args, size_t count)
    : count_(args.smoke ? 1 : std::max<size_t>(count, 1)),
      start_ns_(NowNs()) {}

size_t Work::Scaled(const Args& args, double per_second) {
  return static_cast<size_t>(std::llround(args.seconds * per_second));
}

bool Work::More(size_t done) const {
  if (done >= count_) return false;
  return done == 0 || SecondsSince(start_ns_) < kMaxLoopSeconds;
}

// ---- Span totals -------------------------------------------------------

std::vector<SpanTotals> TotalsByName(const obs::TraceSink& sink) {
  // Events() is ordered by (start, tid, depth), so a span's parent is the
  // last span seen one level up on the same thread.
  std::vector<obs::TraceEvent> events = sink.Events();
  std::vector<uint64_t> child_us(events.size(), 0);
  std::unordered_map<uint32_t, std::vector<size_t>> open;  // tid -> by depth
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    std::vector<size_t>& levels = open[e.tid];
    if (levels.size() <= e.depth) levels.resize(e.depth + 1, SIZE_MAX);
    levels[e.depth] = i;
    if (e.depth > 0 && levels[e.depth - 1] != SIZE_MAX) {
      child_us[levels[e.depth - 1]] += e.dur_us;
    }
  }
  std::vector<SpanTotals> totals;
  std::unordered_map<std::string, size_t> slot;
  for (size_t i = 0; i < events.size(); ++i) {
    auto [it, fresh] = slot.emplace(events[i].name, totals.size());
    if (fresh) totals.push_back(SpanTotals{events[i].name});
    SpanTotals& t = totals[it->second];
    ++t.count;
    t.total_ms += static_cast<double>(events[i].dur_us) * 1e-3;
    t.self_ms +=
        static_cast<double>(events[i].dur_us - std::min(events[i].dur_us,
                                                        child_us[i])) *
        1e-3;
  }
  return totals;
}

// ---- Report ------------------------------------------------------------

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string TracePathFor(const std::string& out) {
  const std::string suffix = ".json";
  if (out.size() > suffix.size() &&
      out.compare(out.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return out.substr(0, out.size() - suffix.size()) + ".trace.json";
  }
  return out + ".trace.json";
}

}  // namespace

Report::Report(Args args, bool traced)
    : args_(std::move(args)), traced_(traced) {}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  metrics_.push_back(Entry{name, value, unit, samples});
}

void Report::Gate(const std::string& name, bool ok,
                  const std::string& detail) {
  gates_.push_back(GateResult{name, ok, detail});
}

void Report::Ops(size_t attempted, size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::WriteMetrics(JsonWriter& w, bool with_samples) const {
  w.Key("metrics");
  w.BeginObject();
  for (const Entry& m : metrics_) {
    w.Key(m.name);
    w.BeginObject();
    w.Key("value");
    w.Double(m.value);
    w.Key("unit");
    w.String(m.unit);
    if (with_samples) {
      w.Key("samples");
      w.Uint(m.samples);
    }
    w.EndObject();
  }
  w.EndObject();
}

bool Report::correct() const {
  if (attempted_ == 0) return false;
  for (const GateResult& g : gates_) {
    if (!g.ok) return false;
  }
  return true;
}

int Report::Finish(const obs::TraceSink* sink) {
  const bool ok = correct();
  for (const GateResult& g : gates_) {
    if (!g.ok) {
      std::cerr << "GATE FAILED " << args_.workload << " " << g.name << ": "
                << g.detail << "\n";
    }
  }
  if (sink != nullptr) {
    for (const SpanTotals& t : TotalsByName(*sink)) {
      std::printf("# span %-28s n=%-7zu total_ms=%-12.3f self_ms=%.3f\n",
                  t.name.c_str(), t.count, t.total_ms, t.self_ms);
    }
  }
  for (const Entry& m : metrics_) {
    std::printf("%s %s %.6g %s\n", args_.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }

  if (!args_.out.empty()) {
    std::ofstream file(args_.out);
    if (!file) {
      std::cerr << "cannot write result file '" << args_.out << "'\n";
      return 1;
    }
    JsonWriter w(&file);
    w.BeginObject();
    w.Key("benchmark");
    w.String("idrepair");
    w.Key("workload");
    w.String(args_.workload);
    w.Key("trace");
    w.Bool(traced_);
    w.Key("smoke");
    w.Bool(args_.smoke);
    w.Key("provenance");
    w.BeginObject();
    w.Key("git_sha");
    w.String(args_.git_sha);
    w.Key("git_dirty");
    w.Bool(args_.git_dirty);
    w.Key("build_type");
    w.String(IDREPAIR_BENCH_BUILD_TYPE);
    w.Key("compiler");
    w.String(IDREPAIR_BENCH_COMPILER);
    w.Key("nproc");
    w.Uint(std::thread::hardware_concurrency());
    w.Key("cpu_model");
    w.String(CpuModel());
    w.Key("threads");
    w.Int(args_.threads);
    w.Key("seed");
    w.Uint(args_.seed);
    w.Key("seconds");
    w.Double(args_.seconds);
    w.EndObject();
    w.Key("correct");
    w.Bool(ok);
    w.Key("attempted");
    w.Uint(attempted_);
    w.Key("failed");
    w.Uint(failed_);
    w.Key("gates");
    w.BeginArray();
    for (const GateResult& g : gates_) {
      w.BeginObject();
      w.Key("name");
      w.String(g.name);
      w.Key("ok");
      w.Bool(g.ok);
      w.Key("detail");
      w.String(g.detail);
      w.EndObject();
    }
    w.EndArray();
    WriteMetrics(w, /*with_samples=*/true);
    w.EndObject();
    file << "\n";
    if (sink != nullptr) {
      Status written = sink->WriteJsonFile(TracePathFor(args_.out));
      if (!written.ok()) {
        std::cerr << written << "\n";
        return 1;
      }
    }
  }

  std::ostringstream line;
  JsonWriter w(&line);
  w.BeginObject();
  w.Key("correct");
  w.Bool(ok);
  w.Key("attempted");
  w.Uint(attempted_);
  w.Key("failed");
  w.Uint(failed_);
  WriteMetrics(w, /*with_samples=*/false);
  w.EndObject();
  std::cout << line.str() << std::endl;
  return ok ? 0 : 1;
}

// ---- Output checks -----------------------------------------------------

std::vector<TrackingRecord> Flatten(const std::vector<Trajectory>& trajs) {
  std::vector<TrackingRecord> records;
  for (const Trajectory& t : trajs) {
    for (const TrajectoryPoint& p : t.points()) {
      records.push_back(TrackingRecord{t.id(), p.loc, p.ts});
    }
  }
  return records;
}

bool ConservesRecords(const std::vector<TrackingRecord>& input,
                      const std::vector<TrackingRecord>& output) {
  if (input.size() != output.size()) return false;
  auto keys = [](const std::vector<TrackingRecord>& records) {
    std::vector<std::pair<LocationId, Timestamp>> k;
    k.reserve(records.size());
    for (const TrackingRecord& r : records) k.emplace_back(r.loc, r.ts);
    std::sort(k.begin(), k.end());
    return k;
  };
  return keys(input) == keys(output);
}

Quality Score(const Dataset& dataset,
              const std::vector<TrackingRecord>& output) {
  Quality q;
  const TrajectorySet repaired = TrajectorySet::FromRecords(output);
  const TrajectorySet truth_set = dataset.BuildTrueTrajectories();
  q.set_size =
      static_cast<double>(std::max(repaired.size(), truth_set.size()));
  q.set_cost = TrajectorySetDistance(repaired, truth_set) * q.set_size;

  // One row per record: the truth side carries (observed, true), the output
  // side the repaired ID. Sorting by (loc, ts) groups each capture event.
  struct Row {
    LocationId loc;
    Timestamp ts;
    const std::string* observed;  // null for output rows
    const std::string* id;        // true ID, or the output ID
  };
  const std::vector<GroundTruthRecord>& truth = dataset.records;
  std::vector<Row> rows;
  rows.reserve(truth.size() + output.size());
  for (const GroundTruthRecord& r : truth) {
    rows.push_back(Row{r.loc, r.ts, &r.observed_id, &r.true_id});
    if (r.corrupted()) ++q.erroneous;
  }
  for (const TrackingRecord& r : output) {
    rows.push_back(Row{r.loc, r.ts, nullptr, &r.id});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::tie(a.loc, a.ts) < std::tie(b.loc, b.ts);
  });

  std::vector<std::string> observed, true_ids, out_ids, scratch, changed_ids,
      wrong_ids;
  for (size_t i = 0; i < rows.size();) {
    size_t j = i;
    observed.clear();
    true_ids.clear();
    out_ids.clear();
    for (; j < rows.size() && rows[j].loc == rows[i].loc &&
           rows[j].ts == rows[i].ts;
         ++j) {
      if (rows[j].observed != nullptr) {
        observed.push_back(*rows[j].observed);
        true_ids.push_back(*rows[j].id);
      } else {
        out_ids.push_back(*rows[j].id);
      }
    }
    i = j;
    if (observed.size() == 1 && out_ids.size() == 1) {  // the common case
      if (out_ids[0] != observed[0]) {
        ++q.changed;
        if (out_ids[0] == true_ids[0]) ++q.correct;
      }
      continue;
    }
    std::sort(observed.begin(), observed.end());
    std::sort(true_ids.begin(), true_ids.end());
    std::sort(out_ids.begin(), out_ids.end());
    changed_ids.clear();  // output IDs no unchanged record explains
    std::set_difference(out_ids.begin(), out_ids.end(), observed.begin(),
                        observed.end(), std::back_inserter(changed_ids));
    wrong_ids.clear();  // true IDs the observation got wrong
    std::set_difference(true_ids.begin(), true_ids.end(), observed.begin(),
                        observed.end(), std::back_inserter(wrong_ids));
    scratch.clear();
    std::set_intersection(changed_ids.begin(), changed_ids.end(),
                          wrong_ids.begin(), wrong_ids.end(),
                          std::back_inserter(scratch));
    q.changed += changed_ids.size();
    q.correct += scratch.size();
  }
  return q;
}

double Quality::FMeasure() const {
  // Degenerate denominators count as perfect, as in eval/metrics.h.
  double recall = erroneous == 0 ? 1.0
                                 : static_cast<double>(correct) /
                                       static_cast<double>(erroneous);
  double precision = changed == 0 ? 1.0
                                  : static_cast<double>(correct) /
                                        static_cast<double>(changed);
  return precision + recall == 0.0
             ? 0.0
             : 2.0 * precision * recall / (precision + recall);
}

double SelfPeakRssMb() {
  return static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
}

double ProcessPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    long long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %lld kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace idrepair::bench
