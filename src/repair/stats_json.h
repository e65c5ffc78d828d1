#ifndef IDREPAIR_REPAIR_STATS_JSON_H_
#define IDREPAIR_REPAIR_STATS_JSON_H_

#include <ostream>
#include <string>
#include <string_view>

#include "common/json.h"
#include "common/status.h"
#include "repair/options.h"
#include "repair/repairer.h"

namespace idrepair {

/// Stable lowercase name of a selection algorithm ("emax", "dmin", ...).
const char* SelectionName(SelectionAlgorithm selection);

/// Appends the metrics registry's merged state to `w` as a JSON array of
/// per-metric objects (one entry per instrument, histograms with bounds and
/// buckets).
void WriteMetricsJson(JsonWriter& w);

/// Streams the --stats-json document: the full RepairStats of one run plus
/// the configuration that produced it, the completion marker, the fault-
/// injection footprint and — when obs is on — a metrics snapshot, as one
/// JSON object. The key set and order are pinned by stats_json_test.cc;
/// consumers parse this file, so additions go at the end of their object
/// and removals are breaking. Keys have been removed on purpose three
/// times, each time in a single change: first the top-level copy of
/// `options.num_threads`, the three observability switches that left
/// RepairOptions, and the three per-phase grains, now one `grain` (0 =
/// auto); then the `stream` block (the stream's counters are in the
/// `metrics` array as idrepair_stream_*, and --stats-json switches obs on)
/// and the `server` block (always zero: the one-shot CLI hosts no daemon);
/// then the `scheduler` block, whose `generation_blocks`,
/// `generation_workers` and `generation_imbalance` became `sched_blocks`,
/// `sched_workers` and `sched_imbalance` in `stats`. The `stats` block is
/// one walk of RepairStats::Visit, in its order, then `cpu_clock_source`.
void WriteStatsJson(std::ostream& out, std::string_view engine,
                    const RepairOptions& options, const RepairResult& result);

/// WriteStatsJson into `path`, IoError on open/write failure.
Status WriteStatsJsonFile(const std::string& path, std::string_view engine,
                          const RepairOptions& options,
                          const RepairResult& result);

}  // namespace idrepair

#endif  // IDREPAIR_REPAIR_STATS_JSON_H_
