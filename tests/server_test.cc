// idrepaird end-to-end: the in-process daemon driven over real sockets
// through the client library. The load-bearing invariants:
//
//  * a repair through the daemon is byte-identical to the same repair run
//    locally through the library — the wire adds transport, never results;
//  * registry replacement is epoch-style: in-flight holders of the old
//    bundle keep a fully usable graph while new acquires see the new one;
//  * register -> snapshot -> kill -> restart --load-dir reproduces the
//    exact same repair output as the original process;
//  * admission control sheds whole requests with ResourceExhausted, a
//    batch the task group skips still releases its admission slot, and a
//    per-request budget lands on the engines' graceful-degradation path;
//  * garbage on the wire drops that connection with a clean Status and the
//    daemon keeps serving everyone else;
//  * a bundle's predicate evaluator is built once per registered epoch, by
//    the first repair on it, and a re-registration gets a fresh one;
//  * SIGKILLing a child `idrepair_cli serve` in the middle of a snapshot
//    save leaves the previous snapshot loadable and byte-identical;
//  * a child `idrepair_cli` exits 2, naming it, on a flag it never reads.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/failpoint.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "graph/serialization.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "repair/repairer.h"
#include "server/client.h"
#include "server/registry.h"
#include "server/server.h"
#include "server/snapshot.h"
#include "traj/csv.h"
#include "test_util.h"

extern char** environ;

namespace idrepair {
namespace server {
namespace {

namespace fs = std::filesystem;

std::string PaperGraphText() {
  std::ostringstream out;
  EXPECT_TRUE(WriteTransitionGraph(out, MakePaperExampleGraph()).ok());
  return std::move(out).str();
}

std::vector<TrackingRecord> FlattenSet(const TrajectorySet& set) {
  std::vector<TrackingRecord> records;
  for (const Trajectory& t : set.trajectories()) {
    for (const TrajectoryPoint& p : t.points()) {
      records.push_back(TrackingRecord{t.id(), p.loc, p.ts});
    }
  }
  return records;
}

/// What the daemon should hand back for `records`: the local library run,
/// flattened exactly as BatchReply flattens.
std::vector<TrackingRecord> LocalRepair(
    const std::vector<TrackingRecord>& records, const RepairOptions& options,
    const TransitionGraph& graph) {
  IdRepairer engine(graph, options);
  auto result = engine.Repair(TrajectorySet::FromRecords(records));
  EXPECT_TRUE(result.ok()) << result.status();
  return FlattenSet(result->repaired);
}

uint64_t CounterValue(const std::string& name) {
  for (const auto& m : obs::MetricsRegistry::Global().Collect()) {
    if (m.name == name) return m.counter_value;
  }
  return 0;
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("idrepair_server_test_" + tag + "_" +
             std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

// ---- GraphRegistry -----------------------------------------------------

TEST(GraphRegistryTest, ValidateNameRules) {
  EXPECT_TRUE(GraphRegistry::ValidateName("metro-v2.1_east").ok());
  EXPECT_FALSE(GraphRegistry::ValidateName("").ok());
  EXPECT_FALSE(GraphRegistry::ValidateName(".hidden").ok());
  EXPECT_FALSE(GraphRegistry::ValidateName("has space").ok());
  EXPECT_FALSE(GraphRegistry::ValidateName("slash/attack").ok());
  EXPECT_FALSE(GraphRegistry::ValidateName(std::string(129, 'a')).ok());
  EXPECT_TRUE(GraphRegistry::ValidateName(std::string(128, 'a')).ok());
}

TEST(GraphRegistryTest, AcquireUnknownIsNotFound) {
  GraphRegistry registry;
  auto r = registry.Acquire("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(GraphRegistryTest, ReplacementIsEpochStyle) {
  GraphRegistry registry;
  auto v1 = registry.Register("g", MakePaperExampleGraph(),
                              testutil::RunningExampleOptions(),
                              testutil::MakeTable1Records());
  ASSERT_TRUE(v1.ok()) << v1.status();
  EXPECT_EQ(*v1, 1u);

  auto held = registry.Acquire("g");
  ASSERT_TRUE(held.ok());

  // Replace with a different graph while the old bundle is "in flight".
  auto v2 = registry.Register("g", MakeChainGraph(9),
                              testutil::RunningExampleOptions(), {});
  ASSERT_TRUE(v2.ok()) << v2.status();
  EXPECT_EQ(*v2, 2u);

  // The held epoch is untouched and fully usable.
  EXPECT_EQ((*held)->version, 1u);
  EXPECT_EQ((*held)->graph.num_locations(), 5u);
  ASSERT_NE((*held)->corpus, nullptr);
  IdRepairer engine((*held)->graph, (*held)->options);
  EXPECT_TRUE(engine.Repair(*(*held)->corpus).ok());

  // New acquires see the new epoch.
  auto fresh = registry.Acquire("g");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->version, 2u);
  EXPECT_EQ((*fresh)->graph.num_locations(), 9u);
}

TEST(GraphRegistryTest, InsertKeepsNewestVersion) {
  GraphRegistry registry;
  auto v2 = MakeBundle("g", 2, MakePaperExampleGraph(),
                       testutil::RunningExampleOptions(), {});
  ASSERT_TRUE(v2.ok());
  auto v1 = MakeBundle("g", 1, MakeChainGraph(3),
                       testutil::RunningExampleOptions(), {});
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(registry.Insert(*v2).ok());
  // A stale snapshot must never roll an entry back.
  ASSERT_TRUE(registry.Insert(*v1).ok());
  auto got = registry.Acquire("g");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->version, 2u);
  EXPECT_EQ((*got)->graph.num_locations(), 5u);
}

TEST(GraphRegistryTest, SaveAndLoadDirRoundTrip) {
  TempDir dir("registry_rt");
  GraphRegistry registry;
  ASSERT_TRUE(registry
                  .Register("alpha", MakePaperExampleGraph(),
                            testutil::RunningExampleOptions(),
                            testutil::MakeTable1Records())
                  .ok());
  ASSERT_TRUE(registry
                  .Register("beta", MakeGridNetwork(3, 3),
                            testutil::RunningExampleOptions(), {})
                  .ok());
  auto saved = registry.SaveSnapshots(dir.str());
  ASSERT_TRUE(saved.ok()) << saved.status();
  EXPECT_EQ(*saved, 2u);

  GraphRegistry loaded;
  auto n = loaded.LoadDir(dir.str());
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(loaded.size(), 2u);
  auto alpha = loaded.Acquire("alpha");
  ASSERT_TRUE(alpha.ok());
  ASSERT_NE((*alpha)->corpus, nullptr);
  EXPECT_EQ((*alpha)->corpus->total_records(), 7u);

  // A corrupt file in the directory fails the whole load with a clean
  // Status naming the file — a daemon must not start on half a registry.
  std::ofstream bad(dir.path() / "zz_corrupt.idrs", std::ios::binary);
  bad << "not a snapshot";
  bad.close();
  GraphRegistry partial;
  auto fail = partial.LoadDir(dir.str());
  ASSERT_FALSE(fail.ok());
  EXPECT_NE(fail.status().message().find("zz_corrupt"), std::string::npos)
      << fail.status();
}

// ---- Addresses ---------------------------------------------------------

TEST(AddressTest, ParseFormats) {
  auto unix_addr = ParseAddress("unix:/tmp/x.sock");
  ASSERT_TRUE(unix_addr.ok());
  EXPECT_TRUE(unix_addr->is_unix);
  EXPECT_EQ(unix_addr->path, "/tmp/x.sock");

  auto host_port = ParseAddress("tcp:127.0.0.1:8080");
  ASSERT_TRUE(host_port.ok());
  EXPECT_FALSE(host_port->is_unix);
  EXPECT_EQ(host_port->host, "127.0.0.1");
  EXPECT_EQ(host_port->port, 8080);

  auto port_only = ParseAddress("tcp:9090");
  ASSERT_TRUE(port_only.ok());
  EXPECT_EQ(port_only->host, "127.0.0.1");
  EXPECT_EQ(port_only->port, 9090);

  for (const char* bad :
       {"", "tcp:", "tcp:host:notaport", "tcp:127.0.0.1:99999", "unix:",
        "ftp:1234", "tcp:1.2.3.4:-1"}) {
    EXPECT_FALSE(ParseAddress(bad).ok()) << bad;
  }
}

// ---- End-to-end over sockets -------------------------------------------

Result<std::unique_ptr<IdRepairServer>> StartLoopbackServer(
    ServerOptions options = {}) {
  options.listen = "tcp:127.0.0.1:0";
  return IdRepairServer::Start(std::move(options));
}

RegisterGraphRequest PaperRegisterRequest(const std::string& name,
                                          bool with_corpus) {
  RegisterGraphRequest req;
  req.name = name;
  req.graph_text = PaperGraphText();
  req.options = testutil::RunningExampleOptions();
  if (with_corpus) req.corpus = testutil::MakeTable1Records();
  return req;
}

TEST(ServerE2ETest, RepairThroughDaemonMatchesLocalRunByteForByte) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();

  auto registered = client->RegisterGraph(PaperRegisterRequest("paper", false));
  ASSERT_TRUE(registered.ok()) << registered.status();
  EXPECT_EQ(registered->version, 1u);

  RepairRequest req;
  req.name = "paper";
  req.batches.push_back(testutil::MakeTable1Records());
  auto reply = client->Repair(req);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->batches.size(), 1u);
  const BatchReply& batch = reply->batches[0];
  EXPECT_TRUE(batch.completion.ok()) << batch.completion;
  EXPECT_EQ(batch.num_rewrites, 1u);
  EXPECT_EQ(batch.repaired,
            LocalRepair(testutil::MakeTable1Records(),
                        testutil::RunningExampleOptions(),
                        MakePaperExampleGraph()));
  (*srv)->Stop();
}

TEST(ServerE2ETest, MultiBatchRepairKeepsRequestOrder) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(
      client->RegisterGraph(PaperRegisterRequest("paper", false)).ok());

  // Three distinguishable batches dispatched concurrently onto the pool;
  // replies must land in request order regardless of completion order.
  auto all = testutil::MakeTable1Records();
  std::vector<std::vector<TrackingRecord>> batches = {
      all,
      {all.begin(), all.begin() + 3},
      {all.begin() + 3, all.end()},
  };
  RepairRequest req;
  req.name = "paper";
  req.batches = batches;
  auto reply = client->Repair(req);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->batches.size(), batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    SCOPED_TRACE("batch " + std::to_string(i));
    EXPECT_TRUE(reply->batches[i].completion.ok());
    EXPECT_EQ(reply->batches[i].repaired,
              LocalRepair(batches[i], testutil::RunningExampleOptions(),
                          MakePaperExampleGraph()));
  }
  (*srv)->Stop();
}

TEST(ServerE2ETest, CorpusRepairMatchesLocalRun) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->RegisterGraph(PaperRegisterRequest("paper", true)).ok());

  RepairRequest req;
  req.name = "paper";
  req.use_corpus = true;
  auto reply = client->Repair(req);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->batches.size(), 1u);
  EXPECT_EQ(reply->batches[0].repaired,
            LocalRepair(testutil::MakeTable1Records(),
                        testutil::RunningExampleOptions(),
                        MakePaperExampleGraph()));
  (*srv)->Stop();
}

TEST(ServerE2ETest, RegisterSnapshotKillRestartRepairIsByteIdentical) {
  TempDir dir("kill_restart");
  std::vector<TrackingRecord> fresh_local;
  std::vector<TrackingRecord> before_kill;

  {
    auto srv = StartLoopbackServer();
    ASSERT_TRUE(srv.ok()) << srv.status();
    auto client = RepairClient::Connect((*srv)->address());
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(
        client->RegisterGraph(PaperRegisterRequest("paper", true)).ok());

    RepairRequest req;
    req.name = "paper";
    req.use_corpus = true;
    auto reply = client->Repair(req);
    ASSERT_TRUE(reply.ok()) << reply.status();
    before_kill = reply->batches.at(0).repaired;

    SnapshotRequest snap;
    snap.dir = dir.str();
    auto saved = client->Snapshot(snap);
    ASSERT_TRUE(saved.ok()) << saved.status();
    EXPECT_EQ(saved->num_saved, 1u);

    // Kill: Stop() tears the daemon down without any extra persistence —
    // only the explicit snapshot above survives.
    (*srv)->Stop();
  }

  fresh_local = LocalRepair(testutil::MakeTable1Records(),
                            testutil::RunningExampleOptions(),
                            MakePaperExampleGraph());

  {
    ServerOptions options;
    options.load_dir = dir.str();
    auto srv = StartLoopbackServer(std::move(options));
    ASSERT_TRUE(srv.ok()) << srv.status();
    EXPECT_EQ((*srv)->registry().size(), 1u);

    auto client = RepairClient::Connect((*srv)->address());
    ASSERT_TRUE(client.ok()) << client.status();
    RepairRequest req;
    req.name = "paper";
    req.use_corpus = true;
    auto reply = client->Repair(req);
    ASSERT_TRUE(reply.ok()) << reply.status();
    const auto& restarted = reply->batches.at(0).repaired;
    EXPECT_EQ(restarted, before_kill);
    EXPECT_EQ(restarted, fresh_local);
    (*srv)->Stop();
  }
}

TEST(ServerE2ETest, AdmissionControlShedsWholeRequests) {
  ServerOptions options;
  options.max_inflight = 0;  // everything over the bound -> shed
  auto srv = StartLoopbackServer(std::move(options));
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(
      client->RegisterGraph(PaperRegisterRequest("paper", false)).ok());

  RepairRequest req;
  req.name = "paper";
  req.batches.push_back(testutil::MakeTable1Records());
  auto reply = client->Repair(req);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kResourceExhausted);

  AdmissionStats stats = (*srv)->admission();
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.inflight, 0);

  // An empty repair request carries zero batches and sails through even at
  // max_inflight=0 (nothing to shed).
  RepairRequest empty;
  empty.name = "paper";
  auto ok = client->Repair(empty);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(ok->batches.empty());
  (*srv)->Stop();
}

// A batch the fan-out loop never runs (its block failpoint fired, or the
// loop stopped at another batch's failure) never reaches the code that
// releases its admission slot inside the block; the server must release it
// anyway, or every such request shrinks max_inflight for good.
TEST(ServerE2ETest, SkippedBatchTasksReleaseTheirAdmissionSlots) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(
      client->RegisterGraph(PaperRegisterRequest("paper", false)).ok());

  auto all = testutil::MakeTable1Records();
  std::vector<std::vector<TrackingRecord>> batches = {
      all,
      {all.begin(), all.begin() + 3},
      {all.begin() + 3, all.end()},
  };
  RepairRequest req;
  req.name = "paper";
  req.batches = batches;

  fault::FaultSpec spec;
  spec.fire_on_hit = 1;
  spec.code = StatusCode::kIoError;
  ASSERT_TRUE(fault::FailPointRegistry::Global()
                  .Arm("exec.parallel_for.block", spec)
                  .ok());
  auto faulted = client->Repair(req);
  fault::FailPointRegistry::Global().DisarmAll();
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  ASSERT_EQ(faulted->batches.size(), batches.size());
  // The first batch block claimed takes the fault and never runs; blocks
  // not claimed by then are never run. Either way the batch reports the
  // loop's error, and a batch that did run is still exact.
  size_t failed = 0;
  for (size_t i = 0; i < batches.size(); ++i) {
    SCOPED_TRACE("batch " + std::to_string(i));
    const BatchReply& batch = faulted->batches[i];
    if (batch.completion.ok()) {
      EXPECT_EQ(batch.repaired,
                LocalRepair(batches[i], testutil::RunningExampleOptions(),
                            MakePaperExampleGraph()));
    } else {
      EXPECT_EQ(batch.completion.code(), StatusCode::kIoError)
          << batch.completion;
      ++failed;
    }
  }
  EXPECT_GE(failed, 1u);
  AdmissionStats stats = (*srv)->admission();
  EXPECT_EQ(stats.inflight, 0);
  EXPECT_EQ(stats.admitted, batches.size());
  EXPECT_EQ(stats.completed, batches.size());

  // The next request is admitted and repaired exactly.
  auto reply = client->Repair(req);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->batches.size(), batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    SCOPED_TRACE("batch " + std::to_string(i));
    EXPECT_TRUE(reply->batches[i].completion.ok())
        << reply->batches[i].completion;
    EXPECT_EQ(reply->batches[i].repaired,
              LocalRepair(batches[i], testutil::RunningExampleOptions(),
                          MakePaperExampleGraph()));
  }
  EXPECT_EQ((*srv)->admission().inflight, 0);
  (*srv)->Stop();
}

TEST(ServerE2ETest, BudgetMapsOntoGracefulDeadlineDegradation) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();

  RegisterGraphRequest reg;
  reg.name = "big";
  std::ostringstream graph_text;
  ASSERT_TRUE(WriteTransitionGraph(graph_text, MakeRealLikeGraph()).ok());
  reg.graph_text = graph_text.str();
  reg.options.theta = 6;
  reg.options.eta = 600;
  ASSERT_TRUE(client->RegisterGraph(reg).ok());

  SyntheticConfig config;
  config.num_trajectories = 2000;
  config.record_error_rate = 0.25;
  config.seed = 77;
  auto dataset = GenerateSyntheticDataset(MakeRealLikeGraph(), config);
  ASSERT_TRUE(dataset.ok()) << dataset.status();

  RepairRequest req;
  req.name = "big";
  req.budget_ms = 1;  // far below this workload's runtime
  req.batches.push_back(dataset->ObservedRecords());
  auto reply = client->Repair(req);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->batches.size(), 1u);
  const BatchReply& batch = reply->batches[0];
  // Budget expiry is graceful degradation, not an error: the batch reply
  // carries the DeadlineExceeded marker AND a complete record-conserving
  // passthrough result.
  EXPECT_EQ(batch.completion.code(), StatusCode::kDeadlineExceeded)
      << batch.completion;
  EXPECT_EQ(batch.repaired.size(), req.batches[0].size());
  (*srv)->Stop();
}

TEST(ServerE2ETest, StatsReflectRegistryAndAdmission) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->RegisterGraph(PaperRegisterRequest("paper", true)).ok());

  RepairRequest req;
  req.name = "paper";
  req.use_corpus = true;
  ASSERT_TRUE(client->Repair(req).ok());

  StatsRequest stats_req;
  auto stats = client->Stats(stats_req);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(stats->entries.size(), 1u);
  EXPECT_EQ(stats->entries[0].name, "paper");
  EXPECT_EQ(stats->entries[0].version, 1u);
  EXPECT_EQ(stats->entries[0].num_locations, 5u);
  EXPECT_EQ(stats->entries[0].corpus_trajectories, 3u);
  EXPECT_EQ(stats->admission.admitted, 1u);
  EXPECT_EQ(stats->admission.completed, 1u);
  EXPECT_EQ(stats->admission.inflight, 0);
  EXPECT_EQ(stats->admission.max_inflight, 64u);
  EXPECT_TRUE(stats->prometheus.empty());

  StatsRequest with_prom;
  with_prom.include_prometheus = true;
  obs::SetEnabled(true);
  ASSERT_TRUE(client->Repair(req).ok());
  auto prom = client->Stats(with_prom);
  ASSERT_TRUE(prom.ok()) << prom.status();
  EXPECT_NE(prom->prometheus.find("idrepair_server_admitted_total"),
            std::string::npos)
      << prom->prometheus;
  (*srv)->Stop();
}

TEST(ServerE2ETest, ShutdownRequestWakesTheOwner) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  EXPECT_FALSE((*srv)->WaitForShutdownRequest(0));
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->Shutdown().ok());
  EXPECT_TRUE((*srv)->WaitForShutdownRequest(5000));
  (*srv)->Stop();
}

TEST(ServerE2ETest, UnixSocketRoundTripAndCleanup) {
  TempDir dir("unix");
  std::string sock = (dir.path() / "d.sock").string();
  ServerOptions options;
  options.listen = "unix:" + sock;
  auto srv = IdRepairServer::Start(std::move(options));
  ASSERT_TRUE(srv.ok()) << srv.status();
  EXPECT_EQ((*srv)->address(), "unix:" + sock);

  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(
      client->RegisterGraph(PaperRegisterRequest("paper", false)).ok());
  RepairRequest req;
  req.name = "paper";
  req.batches.push_back(testutil::MakeTable1Records());
  auto reply = client->Repair(req);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->batches.at(0).repaired,
            LocalRepair(testutil::MakeTable1Records(),
                        testutil::RunningExampleOptions(),
                        MakePaperExampleGraph()));

  (*srv)->Stop();
  // Stop() unlinks the socket path.
  EXPECT_FALSE(fs::exists(sock));
}

TEST(ServerE2ETest, RepairOfUnknownNameIsNotFound) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  RepairRequest req;
  req.name = "ghost";
  req.batches.push_back(testutil::MakeTable1Records());
  auto reply = client->Repair(req);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
  (*srv)->Stop();
}

TEST(ServerE2ETest, MalformedRegistrationsFailCleanly) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();

  RegisterGraphRequest bad_graph = PaperRegisterRequest("paper", false);
  bad_graph.graph_text = "this is not a graph file";
  EXPECT_FALSE(client->RegisterGraph(bad_graph).ok());

  RegisterGraphRequest bad_name = PaperRegisterRequest("no/slashes", false);
  auto r = client->RegisterGraph(bad_name);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  RegisterGraphRequest bad_corpus = PaperRegisterRequest("paper", false);
  bad_corpus.corpus = {{"id", 999, 0}};  // unknown location id
  EXPECT_FALSE(client->RegisterGraph(bad_corpus).ok());

  // The connection survived every rejection.
  EXPECT_TRUE(client->RegisterGraph(PaperRegisterRequest("ok", false)).ok());
  (*srv)->Stop();
}

TEST(ServerE2ETest, WireGarbageDropsConnectionButDaemonSurvives) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();

  // Raw socket, no framing: the daemon must reject the junk and close this
  // connection without disturbing anyone else.
  auto address = ParseAddress((*srv)->address());
  ASSERT_TRUE(address.ok());
  auto fd = DialAddress(*address);
  ASSERT_TRUE(fd.ok()) << fd.status();
  const char junk[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::write(*fd, junk, sizeof(junk)), (ssize_t)sizeof(junk));
  auto frame = ReadFrame(*fd, nullptr);
  EXPECT_FALSE(frame.ok());  // server closed on us
  ::close(*fd);

  // A frame with a valid magic but an absurd length is rejected before any
  // allocation; connection dropped the same way.
  auto fd2 = DialAddress(*address);
  ASSERT_TRUE(fd2.ok());
  std::string header;
  uint32_t magic = kFrameMagic;
  uint32_t huge = 0xFFFFFFFFu;
  header.append(reinterpret_cast<const char*>(&magic), 4);
  header.append(reinterpret_cast<const char*>(&huge), 4);
  header.push_back(1);
  ASSERT_EQ(::write(*fd2, header.data(), header.size()),
            (ssize_t)header.size());
  EXPECT_FALSE(ReadFrame(*fd2, nullptr).ok());
  ::close(*fd2);

  // The daemon keeps serving well-formed clients.
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_TRUE(
      client->RegisterGraph(PaperRegisterRequest("paper", false)).ok());
  (*srv)->Stop();
}

TEST(ServerE2ETest, BundleEvaluatorIsBuiltOncePerEpoch) {
  obs::SetEnabled(true);
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto admin = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(admin.ok()) << admin.status();
  ASSERT_TRUE(admin->RegisterGraph(PaperRegisterRequest("paper", false)).ok());

  auto all = testutil::MakeTable1Records();
  RepairRequest single;
  single.name = "paper";
  single.batches.push_back(all);
  RepairRequest multi;
  multi.name = "paper";
  multi.batches = {all, {all.begin(), all.begin() + 3}, all};

  // Four connections race their first requests onto the fresh bundle, then
  // each sends a multi-batch one whose jobs run in parallel.
  const uint64_t builds_before =
      CounterValue("idrepair_predicate_evaluator_builds_total");
  constexpr int kConnections = 4;
  std::vector<std::vector<std::vector<TrackingRecord>>> replies(kConnections);
  std::latch start(kConnections);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      auto client = RepairClient::Connect((*srv)->address());
      start.arrive_and_wait();
      if (!client.ok()) return;
      for (const RepairRequest* req : {&single, &multi}) {
        auto reply = client->Repair(*req);
        if (!reply.ok()) return;
        for (const BatchReply& batch : reply->batches) {
          replies[c].push_back(batch.repaired);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(CounterValue("idrepair_predicate_evaluator_builds_total") -
                builds_before,
            1u);

  const auto want_all = LocalRepair(all, testutil::RunningExampleOptions(),
                                    MakePaperExampleGraph());
  const auto want_prefix =
      LocalRepair({all.begin(), all.begin() + 3},
                  testutil::RunningExampleOptions(), MakePaperExampleGraph());
  for (int c = 0; c < kConnections; ++c) {
    SCOPED_TRACE("connection " + std::to_string(c));
    ASSERT_EQ(replies[c].size(), 4u);
    EXPECT_EQ(replies[c][0], want_all);
    EXPECT_EQ(replies[c][1], want_all);
    EXPECT_EQ(replies[c][2], want_prefix);
    EXPECT_EQ(replies[c][3], want_all);
  }

  // A re-registration is a new epoch with its own evaluator, built by its
  // first repair and then reused.
  ASSERT_TRUE(admin->RegisterGraph(PaperRegisterRequest("paper", false)).ok());
  const uint64_t builds_epoch2 =
      CounterValue("idrepair_predicate_evaluator_builds_total");
  ASSERT_TRUE(admin->Repair(single).ok());
  ASSERT_TRUE(admin->Repair(multi).ok());
  EXPECT_EQ(CounterValue("idrepair_predicate_evaluator_builds_total") -
                builds_epoch2,
            1u);
  (*srv)->Stop();
}

// Re-registering a name with a different θ must repair under the new θ: an
// evaluator that outlived its epoch would either keep the old θ's answers
// or be rejected for disagreeing with the new options.
TEST(ServerE2ETest, ReRegistrationRepairsUnderTheNewEpochOptions) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  auto client = RepairClient::Connect((*srv)->address());
  ASSERT_TRUE(client.ok()) << client.status();

  const auto records = testutil::MakeTable1Records();
  RepairRequest req;
  req.name = "g";
  req.batches.push_back(records);

  RegisterGraphRequest first = PaperRegisterRequest("g", false);
  ASSERT_TRUE(client->RegisterGraph(first).ok());
  auto before = client->Repair(req);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_EQ(before->batches.size(), 1u);
  EXPECT_EQ(before->batches[0].repaired,
            LocalRepair(records, first.options, MakePaperExampleGraph()));

  // θ=2 forbids every join of Table 1 (each would hold 3 or more records).
  RegisterGraphRequest second = PaperRegisterRequest("g", false);
  second.options.theta = 2;
  auto registered = client->RegisterGraph(second);
  ASSERT_TRUE(registered.ok()) << registered.status();
  EXPECT_EQ(registered->version, 2u);
  const auto want =
      LocalRepair(records, second.options, MakePaperExampleGraph());
  ASSERT_NE(want, before->batches[0].repaired);

  auto after = client->Repair(req);
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_EQ(after->batches.size(), 1u);
  EXPECT_TRUE(after->batches[0].completion.ok())
      << after->batches[0].completion;
  EXPECT_EQ(after->batches[0].repaired, want);
  (*srv)->Stop();
}

TEST(ServerE2ETest, StopIsIdempotentAndDestructorIsSafeAfterStop) {
  auto srv = StartLoopbackServer();
  ASSERT_TRUE(srv.ok()) << srv.status();
  (*srv)->Stop();
  (*srv)->Stop();
  srv->reset();  // destructor after explicit Stop
}

// A negative thread count or default deadline used to be accepted and then
// ignored (the server reads each only when it is positive); Start rejects
// them and names the field.
TEST(ServerE2ETest, StartRejectsNegativeThreadsAndDeadline) {
  ServerOptions threads;
  threads.exec_threads = -2;
  auto bad_threads = StartLoopbackServer(std::move(threads));
  ASSERT_FALSE(bad_threads.ok());
  EXPECT_EQ(bad_threads.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_threads.status().message().find("exec_threads"),
            std::string::npos)
      << bad_threads.status();

  ServerOptions deadline;
  deadline.default_deadline_ms = -1;
  auto bad_deadline = StartLoopbackServer(std::move(deadline));
  ASSERT_FALSE(bad_deadline.ok());
  EXPECT_EQ(bad_deadline.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_deadline.status().message().find("default_deadline_ms"),
            std::string::npos)
      << bad_deadline.status();
}

// ---- A child daemon process --------------------------------------------

/// `idrepair_cli serve --listen unix:<socket> <extra...>` as a child
/// process, stdout discarded. The destructor SIGKILLs and reaps a child
/// still running, so a failing test never leaves one behind.
class ChildDaemon {
 public:
  ChildDaemon(const std::string& socket, std::vector<std::string> extra)
      : address_("unix:" + socket) {
    std::vector<std::string> args = {IDREPAIR_CLI_PATH, "serve", "--listen",
                                     address_};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    if (posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(),
                    environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }
  ~ChildDaemon() { Kill(); }
  ChildDaemon(const ChildDaemon&) = delete;
  ChildDaemon& operator=(const ChildDaemon&) = delete;

  bool running() const { return pid_ > 0; }
  const std::string& address() const { return address_; }

  /// Connects, retrying until the child listens (or 60 s pass).
  Result<RepairClient> Connect() const {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (true) {
      auto client = RepairClient::Connect(address_);
      if (client.ok() || std::chrono::steady_clock::now() > deadline) {
        return client;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  /// SIGKILL, then reap. Returns the wait status (0 if not running).
  int Kill() {
    if (pid_ <= 0) return 0;
    ::kill(pid_, SIGKILL);
    return Reap();
  }

  /// Reaps a child that is exiting on its own. Returns the wait status.
  int Reap() {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return status;
  }

 private:
  std::string address_;
  pid_t pid_ = -1;
};

// A crash between the temp write and the rename of a snapshot save must
// leave the previous snapshot in place: the child daemon is SIGKILLed
// while its second save sleeps at the io.snapshot.save failpoint, and a
// restarted daemon loads the first snapshot and repairs byte-identically.
TEST(ServerProcessTest, SigkillMidSnapshotSaveKeepsThePreviousSnapshot) {
  TempDir dir("sigkill_save");
  const std::string socket = (dir.path() / "d.sock").string();
  const fs::path snapshots = dir.path() / "snaps";
  const fs::path live = snapshots / GraphRegistry::SnapshotFileName("paper");
  const fs::path temp = live.string() + kSnapshotTempSuffix;
  SnapshotRequest snap;
  snap.dir = snapshots.string();
  RepairRequest corpus_repair;
  corpus_repair.name = "paper";
  corpus_repair.use_corpus = true;

  std::vector<TrackingRecord> before_kill;
  {
    // The first save (hit 1) runs through; the second sleeps for a minute
    // after writing its temp file, long enough to be killed there.
    ChildDaemon child(socket, {"--failpoints",
                               "io.snapshot.save=delay,on_hit=2,"
                               "delay_us=60000000"});
    ASSERT_TRUE(child.running());
    auto client = child.Connect();
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(
        client->RegisterGraph(PaperRegisterRequest("paper", true)).ok());
    auto reply = client->Repair(corpus_repair);
    ASSERT_TRUE(reply.ok()) << reply.status();
    before_kill = reply->batches.at(0).repaired;
    auto saved = client->Snapshot(snap);
    ASSERT_TRUE(saved.ok()) << saved.status();
    ASSERT_TRUE(fs::exists(live));
    ASSERT_FALSE(fs::exists(temp));

    // Epoch 2 repairs differently (θ=2 forbids every join of Table 1), so
    // loading its bytes by mistake would show in the repair after the
    // restart.
    RegisterGraphRequest second = PaperRegisterRequest("paper", true);
    second.options.theta = 2;
    ASSERT_TRUE(client->RegisterGraph(second).ok());
    auto epoch2 = client->Repair(corpus_repair);
    ASSERT_TRUE(epoch2.ok()) << epoch2.status();
    ASSERT_NE(epoch2->batches.at(0).repaired, before_kill);

    Status blocked_save;
    std::thread saver([&] {
      auto c = RepairClient::Connect(child.address());
      blocked_save = c.ok() ? c->Snapshot(snap).status() : c.status();
    });
    // Snapshot bytes are deterministic, so the temp file is complete once
    // it holds as many bytes as epoch 2 encodes to; the save then sleeps
    // at the failpoint, before its rename.
    auto epoch2_bundle =
        MakeBundle("paper", 2, MakePaperExampleGraph(), second.options,
                   testutil::MakeTable1Records());
    ASSERT_TRUE(epoch2_bundle.ok()) << epoch2_bundle.status();
    const uintmax_t temp_bytes = EncodeSnapshot(**epoch2_bundle).size();
    auto temp_complete = [&] {
      std::error_code ec;
      return fs::file_size(temp, ec) == temp_bytes && !ec;
    };
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!temp_complete() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const bool temp_written = temp_complete();
    int status = child.Kill();
    saver.join();
    ASSERT_TRUE(temp_written) << "the second save never reached its rename";
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
    EXPECT_FALSE(blocked_save.ok());  // the reply died with the child
  }
  // The crash lost only the rename: the temp file holds all of epoch 2.
  auto stranded = ReadSnapshotFile(temp.string());
  ASSERT_TRUE(stranded.ok()) << stranded.status();
  EXPECT_EQ((*stranded)->version, 2u);

  auto previous = ReadSnapshotFile(live.string());
  ASSERT_TRUE(previous.ok()) << previous.status();
  EXPECT_EQ((*previous)->version, 1u);

  fs::remove(socket);
  ChildDaemon restarted(socket, {"--load-dir", snapshots.string()});
  ASSERT_TRUE(restarted.running());
  auto client = restarted.Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  auto stats = client->Stats(StatsRequest{});
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(stats->entries.size(), 1u);
  EXPECT_EQ(stats->entries[0].version, 1u);
  auto reply = client->Repair(corpus_repair);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->batches.at(0).repaired, before_kill);
  EXPECT_EQ(before_kill, LocalRepair(testutil::MakeTable1Records(),
                                     testutil::RunningExampleOptions(),
                                     MakePaperExampleGraph()));
  ASSERT_TRUE(client->Shutdown().ok());
  int status = restarted.Reap();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
}

// ---- The CLI's flag checks, in a child process --------------------------

/// Runs `idrepair_cli <args...>` to completion with stdout discarded and
/// stderr captured in `dir`. Returns the exit code (-1 unless the child
/// exited normally) and what it wrote to stderr.
std::pair<int, std::string> RunCli(const fs::path& dir,
                                   std::vector<std::string> args) {
  args.insert(args.begin(), IDREPAIR_CLI_PATH);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const std::string err_path = (dir / "stderr.txt").string();
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = -1;
  int spawned =
      posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) return {-1, "spawn failed"};
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  std::ifstream in(err_path);
  std::ostringstream text;
  text << in.rdbuf();
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, text.str()};
}

// A flag `repair` never reads — a typo, or a flag the CLI retired — stops
// it with exit 2 and the flag's name before any work, so nothing is
// written. Values of flags it does read are still checked (exit 1).
TEST(CliProcessTest, RepairRejectsUnreadFlagsAndBadObservabilityValues) {
  TempDir dir("cli_flags");
  const std::string graph = (dir.path() / "g.txt").string();
  const std::string records = (dir.path() / "r.csv").string();
  const std::string out = (dir.path() / "out.csv").string();
  ASSERT_TRUE(WriteTransitionGraphFile(graph, MakePaperExampleGraph()).ok());
  ASSERT_TRUE(WriteRecordsCsvFile(records, MakePaperExampleGraph(),
                                  testutil::MakeTable1Records())
                  .ok());
  auto repair = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = {"repair", "--graph", graph,
                                     "--records", records, "--out", out};
    args.insert(args.end(), extra.begin(), extra.end());
    return RunCli(dir.path(), std::move(args));
  };

  auto [code, err] = repair({"--candidate-grain", "1", "--thetaa", "3"});
  EXPECT_EQ(code, 2) << err;
  EXPECT_NE(err.find("--candidate-grain"), std::string::npos) << err;
  EXPECT_NE(err.find("--thetaa"), std::string::npos) << err;
  EXPECT_FALSE(fs::exists(out));

  for (const auto& [flag, value] :
       {std::pair<std::string, std::string>{"--metrics-interval", "-1"},
        {"--trace-capacity", "0"}}) {
    auto [bad_code, bad_err] = repair({flag, value});
    EXPECT_EQ(bad_code, 1) << flag << ": " << bad_err;
    EXPECT_NE(bad_err.find(flag), std::string::npos) << bad_err;
    EXPECT_FALSE(fs::exists(out));
  }

  auto [ok_code, ok_err] = repair({"--grain", "1", "--threads", "2"});
  EXPECT_EQ(ok_code, 0) << ok_err;
  EXPECT_TRUE(fs::exists(out));
}

// --threads parses as int64; a value past INT_MAX used to be narrowed
// (4294967297 ran at one thread, exit 0). `repair` and `serve` now reject
// it with the flag's name, and serve rejects a negative thread count or
// default deadline before it listens. The socket directory does not exist,
// so a serve that accepted its flags would fail to listen, not hang.
TEST(CliProcessTest, ThreadsPastIntMaxAndNegativeServeValuesAreRejected) {
  TempDir dir("cli_threads");
  const std::string graph = (dir.path() / "g.txt").string();
  const std::string records = (dir.path() / "r.csv").string();
  const std::string out = (dir.path() / "out.csv").string();
  ASSERT_TRUE(WriteTransitionGraphFile(graph, MakePaperExampleGraph()).ok());
  ASSERT_TRUE(WriteRecordsCsvFile(records, MakePaperExampleGraph(),
                                  testutil::MakeTable1Records())
                  .ok());
  auto [code, err] =
      RunCli(dir.path(), {"repair", "--graph", graph, "--records", records,
                          "--out", out, "--threads", "4294967297"});
  EXPECT_NE(code, 0) << err;
  EXPECT_NE(err.find("--threads"), std::string::npos) << err;
  EXPECT_FALSE(fs::exists(out));

  const std::string nowhere =
      "unix:" + (dir.path() / "missing" / "d.sock").string();
  for (const auto& [flag, value, named] :
       {std::tuple<std::string, std::string, std::string>{
            "--threads", "4294967297", "--threads"},
        {"--threads", "-1", "exec_threads"},
        {"--default-deadline-ms", "-5", "default_deadline_ms"}}) {
    auto [serve_code, serve_err] =
        RunCli(dir.path(), {"serve", "--listen", nowhere, flag, value});
    EXPECT_EQ(serve_code, 1) << flag << " " << value << ": " << serve_err;
    EXPECT_NE(serve_err.find(named), std::string::npos) << serve_err;
  }
}

std::string ReadText(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// `repair --stats-json F` switches obs on, so the streaming engine's
// counters reach F's `metrics` array; the document has no `stream` block.
TEST(CliProcessTest, StreamingStatsJsonCarriesStreamCountersInMetrics) {
  TempDir dir("cli_stats_json");
  const std::string graph = (dir.path() / "g.txt").string();
  const std::string records = (dir.path() / "r.csv").string();
  const fs::path stats = dir.path() / "stats.json";
  ASSERT_TRUE(WriteTransitionGraphFile(graph, MakePaperExampleGraph()).ok());
  ASSERT_TRUE(WriteRecordsCsvFile(records, MakePaperExampleGraph(),
                                  testutil::MakeTable1Records())
                  .ok());
  auto [code, err] = RunCli(
      dir.path(),
      {"repair", "--graph", graph, "--records", records, "--out",
       (dir.path() / "out.csv").string(), "--engine", "streaming",
       "--stats-json", stats.string()});
  ASSERT_EQ(code, 0) << err;
  const std::string json = ReadText(stats);
  EXPECT_EQ(json.find("\"stream\":"), std::string::npos) << json;
  const size_t metrics = json.find("\"metrics\":[");
  ASSERT_NE(metrics, std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"idrepair_stream_generation_runs_total\"",
                      metrics),
            std::string::npos)
      << json;
}

// A negative count for `generate` is rejected with exit 1 and the flag's
// name (it used to wrap to a huge size_t and abort the process), and
// nothing is written; a zero count still generates.
TEST(CliProcessTest, GenerateRejectsNegativeCounts) {
  TempDir dir("cli_generate");
  const std::string graph = (dir.path() / "g.txt").string();
  const std::string out = (dir.path() / "out.csv").string();
  ASSERT_TRUE(WriteTransitionGraphFile(graph, MakePaperExampleGraph()).ok());
  auto generate = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = {"generate", "--graph", graph, "--out",
                                     out};
    args.insert(args.end(), extra.begin(), extra.end());
    return RunCli(dir.path(), std::move(args));
  };
  for (const std::string flag : {"--trajectories", "--max-path-len"}) {
    auto [code, err] = generate({flag, "-1"});
    EXPECT_EQ(code, 1) << flag << ": " << err;
    EXPECT_NE(err.find(flag), std::string::npos) << err;
    EXPECT_FALSE(fs::exists(out));
  }
  auto [ok_code, ok_err] = generate({"--trajectories", "0"});
  EXPECT_EQ(ok_code, 0) << ok_err;
  EXPECT_TRUE(fs::exists(out));
}

// `serve --listen ... --threads N` (the benchmark's daemon command line)
// keeps working, and an unread flag stops serve before it listens. The
// rejected run's socket directory does not exist, so a serve that did not
// reject the flag would fail to listen (exit 1) rather than hang.
TEST(CliProcessTest, ServeRunsWithListenAndThreadsAndRejectsUnreadFlags) {
  TempDir dir("cli_serve");
  const std::string socket = (dir.path() / "d.sock").string();
  {
    ChildDaemon child(socket, {"--threads", "2"});
    ASSERT_TRUE(child.running());
    auto client = child.Connect();
    ASSERT_TRUE(client.ok()) << client.status();
    EXPECT_TRUE(client->Stats(StatsRequest{}).ok());
    ASSERT_TRUE(client->Shutdown().ok());
    int status = child.Reap();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  }
  const std::string nowhere = (dir.path() / "missing" / "d.sock").string();
  // --trace-out belongs to `repair`; serve records no trace.
  auto [code, err] = RunCli(dir.path(), {"serve", "--listen",
                                         "unix:" + nowhere, "--threads", "2",
                                         "--trace-out", "t.json"});
  EXPECT_EQ(code, 2) << err;
  EXPECT_NE(err.find("--trace-out"), std::string::npos) << err;
}

// `serve --metrics-out F` without --metrics-interval starts no scraper;
// it still writes one exposition to F when it shuts down, as `repair` does.
TEST(CliProcessTest, ServeWritesMetricsOutAtShutdown) {
  TempDir dir("cli_serve_metrics");
  const std::string socket = (dir.path() / "d.sock").string();
  const fs::path metrics = dir.path() / "metrics.prom";
  ChildDaemon child(socket, {"--metrics-out", metrics.string()});
  ASSERT_TRUE(child.running());
  auto client = child.Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->RegisterGraph(PaperRegisterRequest("paper", true)).ok());
  RepairRequest corpus_repair;
  corpus_repair.name = "paper";
  corpus_repair.use_corpus = true;
  ASSERT_TRUE(client->Repair(corpus_repair).ok());
  ASSERT_TRUE(client->Shutdown().ok());
  int status = child.Reap();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  const std::string text = ReadText(metrics);
  EXPECT_NE(text.find("idrepair_server_admitted_total 1"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace server
}  // namespace idrepair
