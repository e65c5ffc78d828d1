#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <thread>

#include "server/client.h"

extern char** environ;

namespace idrepair::bench {

namespace {

constexpr double kStartTimeoutS = 30.0;
constexpr double kStopTimeoutS = 10.0;

std::string SocketPath(const std::string& address) {
  return address.substr(std::string("unix:").size());
}

}  // namespace

std::string SocketPathFor(const Args& args, int index) {
  std::filesystem::path dir =
      args.out.empty() ? std::filesystem::path(".")
                       : std::filesystem::path(args.out).parent_path();
  if (dir.empty()) dir = ".";
  return (dir / ("idrepair-bench-" + std::to_string(::getpid()) + "-" +
                 std::to_string(index) + ".sock"))
      .string();
}

void ClientRun::Add(const ClientRun& other) {
  latency_s.insert(latency_s.end(), other.latency_s.begin(),
                   other.latency_s.end());
  engine_s.insert(engine_s.end(), other.engine_s.begin(),
                  other.engine_s.end());
  tenant.insert(tenant.end(), other.tenant.begin(), other.tenant.end());
  failed += other.failed;
  mismatched += other.mismatched;
  records += other.records;
  wall_s += other.wall_s;
}

Result<std::unique_ptr<Daemon>> Daemon::Start(
    const std::string& socket_path, int threads,
    const std::vector<Tenant>& tenants, double* setup_s) {
  std::vector<server::RegisterGraphRequest> registrations;
  for (const Tenant& t : tenants) {
    registrations.push_back(
        server::RegisterGraphRequest{t.name, t.graph_text, t.options, {}});
  }
  if (socket_path.size() > 100) {
    return Status::InvalidArgument("socket path too long: " + socket_path);
  }
  std::string address = "unix:" + socket_path;
  std::string threads_arg = std::to_string(threads);
  const char* argv[] = {"idrepair_cli", "serve",  "--listen", address.c_str(),
                        "--threads",    threads_arg.c_str(), nullptr};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);

  int64_t start = NowNs();
  pid_t pid = -1;
  int rc = posix_spawn(&pid, IDREPAIR_BENCH_CLI, &actions, nullptr,
                       const_cast<char**>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    return Status::IoError("cannot spawn " + std::string(IDREPAIR_BENCH_CLI));
  }
  std::unique_ptr<Daemon> daemon(new Daemon(pid, address));

  std::optional<server::RepairClient> client;
  while (!client.has_value()) {
    auto connected = server::RepairClient::Connect(address);
    if (connected.ok()) {
      client.emplace(std::move(connected).value());
      break;
    }
    if (waitpid(pid, nullptr, WNOHANG) == pid) {
      daemon->pid_ = -1;
      return Status::Internal("daemon exited before it listened");
    }
    if (SecondsSince(start) > kStartTimeoutS) return connected.status();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (const server::RegisterGraphRequest& req : registrations) {
    auto reply = client->RegisterGraph(req);
    if (!reply.ok()) return reply.status();
  }
  *setup_s = SecondsSince(start);
  return daemon;
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    ::unlink(SocketPath(address_).c_str());
  }
}

Result<server::AdmissionStats> Daemon::Admission() const {
  auto client = server::RepairClient::Connect(address_);
  if (!client.ok()) return client.status();
  auto stats = client->Stats(server::StatsRequest{});
  if (!stats.ok()) return stats.status();
  return stats->admission;
}

Status Daemon::Stop() {
  {
    auto client = server::RepairClient::Connect(address_);
    if (!client.ok()) return client.status();
    IDREPAIR_RETURN_NOT_OK(client->Shutdown());
  }
  int64_t start = NowNs();
  while (SecondsSince(start) < kStopTimeoutS) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        return Status::Internal("daemon exited abnormally");
      }
      return Status::OK();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::Internal("daemon did not stop after a Shutdown request");
}

size_t RequestsPerClient(const Args& args, size_t tenants, int clients,
                         size_t loops) {
  const size_t rounds = Work::Scaled(
      args, OpsPerSecond("daemon_catalog") /
                static_cast<double>(loops * static_cast<size_t>(clients) *
                                    tenants));
  return (args.smoke ? 1 : std::max<size_t>(rounds, 1)) * tenants;
}

server::RepairRequest RequestFor(const Tenant& tenant) {
  server::RepairRequest req;
  req.name = tenant.name;
  req.batches.push_back(tenant.batch);
  return req;
}

Result<ClientRun> RunClients(const std::string& address,
                             const std::vector<Tenant>& tenants, int clients,
                             size_t requests, obs::TraceSink* sink) {
  std::vector<server::RepairRequest> bodies;
  for (const Tenant& t : tenants) bodies.push_back(RequestFor(t));

  std::vector<ClientRun> runs(static_cast<size_t>(clients));
  std::vector<Status> errors(static_cast<size_t>(clients));
  int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientRun& run = runs[static_cast<size_t>(c)];
      auto client = server::RepairClient::Connect(address);
      if (!client.ok()) {
        errors[static_cast<size_t>(c)] = client.status();
        return;
      }
      for (size_t i = 0; i < requests; ++i) {
        // Clients start evenly spaced around the tenant cycle.
        size_t k = (static_cast<size_t>(c) * tenants.size() / clients + i) %
                   tenants.size();
        int64_t t0 = NowNs();
        auto reply = [&] {
          obs::TraceSpan span(sink, "client.request", i);
          return client->Repair(bodies[k]);
        }();
        run.latency_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
        run.tenant.push_back(k);
        if (!reply.ok()) {
          ++run.failed;
          // A shed request leaves the connection usable; anything else
          // (I/O, a garbled frame) ends this client.
          if (reply.status().code() != StatusCode::kResourceExhausted) {
            errors[static_cast<size_t>(c)] = reply.status();
            return;
          }
          continue;
        }
        if (reply->batches.size() != 1) {
          ++run.mismatched;
          continue;
        }
        const server::BatchReply& batch = reply->batches.front();
        run.engine_s.push_back(batch.seconds_total);
        if (!batch.completion.ok()) ++run.failed;
        if (batch.repaired != tenants[k].expected) {
          ++run.mismatched;
        } else {
          run.records += batch.repaired.size();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ClientRun merged;
  for (size_t c = 0; c < runs.size(); ++c) {
    if (!errors[c].ok()) return errors[c];
    merged.Add(runs[c]);
  }
  merged.wall_s = SecondsSince(start);
  return merged;
}

}  // namespace idrepair::bench
