// The daemon_catalog workload's moving parts: a child `idrepair_cli serve`
// on a unix socket, tenant registration, and closed-loop RepairClient
// connections.
#ifndef IDREPAIR_BENCHMARK_DAEMON_H_
#define IDREPAIR_BENCHMARK_DAEMON_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness.h"
#include "server/protocol.h"
#include "workloads.h"

namespace idrepair::bench {

/// A unix socket path next to the result file (or in the working
/// directory), unique to this process and `index`. Kept relative, since a
/// socket path is limited to about 100 bytes.
std::string SocketPathFor(const Args& args, int index);

/// A child daemon process. The destructor kills and reaps a child that was
/// not stopped, so no exit path leaves one running.
class Daemon {
 public:
  /// Spawns `idrepair_cli serve --listen unix:<socket_path> --threads N`,
  /// registers every tenant, and returns once the last RegisterGraph reply
  /// is in. `*setup_s` receives the time from spawn to that reply.
  static Result<std::unique_ptr<Daemon>> Start(
      const std::string& socket_path, int threads,
      const std::vector<Tenant>& tenants, double* setup_s);

  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& address() const { return address_; }

  /// The child's peak resident set (VmHWM), MB.
  double PeakRssMb() const { return ProcessPeakRssMb(pid_); }

  /// The daemon's admission counters.
  Result<server::AdmissionStats> Admission() const;

  /// Asks the daemon to shut down and waits for it to exit.
  Status Stop();

 private:
  Daemon(pid_t pid, std::string address)
      : pid_(pid), address_(std::move(address)) {}

  pid_t pid_;
  std::string address_;
};

/// Outcome of the closed-loop clients.
struct ClientRun {
  std::vector<double> latency_s;  // one per request, every client
  std::vector<double> engine_s;   // BatchReply.seconds_total per request
  std::vector<size_t> tenant;     // tenant index per request
  size_t failed = 0;      // non-OK replies and degraded completions
  size_t mismatched = 0;  // replies that differ from Tenant::expected
  size_t records = 0;     // records in the replies that came back OK
  double wall_s = 0.0;

  /// Appends `other`'s requests and adds its counts and wall time.
  void Add(const ClientRun& other);
};

/// Runs `clients` connections, each sending `requests` one-batch Repair
/// requests round-robin over the tenants, the next only after the previous
/// reply. With a `sink`, each round trip is a `client.request` span (arg:
/// the client's request index) on its client's thread.
Result<ClientRun> RunClients(const std::string& address,
                             const std::vector<Tenant>& tenants, int clients,
                             size_t requests, obs::TraceSink* sink);

/// How many requests each of `clients` clients sends in each of `loops`
/// client loops (segments, or a plain and a traced half) so that the run
/// makes OpsPerSecond("daemon_catalog") requests per second of --seconds:
/// whole rounds over the tenants, so every loop has the same tenant mix.
/// One round under --smoke.
size_t RequestsPerClient(const Args& args, size_t tenants, int clients,
                         size_t loops);

/// The one-batch request the clients send for `tenant`.
server::RepairRequest RequestFor(const Tenant& tenant);

}  // namespace idrepair::bench

#endif  // IDREPAIR_BENCHMARK_DAEMON_H_
