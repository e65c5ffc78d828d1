#ifndef IDREPAIR_SERVER_SERVER_H_
#define IDREPAIR_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "server/protocol.h"
#include "server/registry.h"

namespace idrepair {
namespace server {

struct ServerOptions {
  /// Listen target ("unix:<path>", "tcp:<host>:<port>", "tcp:<port>";
  /// tcp port 0 binds an ephemeral port, reported by address()).
  std::string listen = "tcp:127.0.0.1:0";
  /// Snapshot directory loaded (via GraphRegistry::LoadDir) before the
  /// server accepts connections.
  /// Empty starts with an empty registry.
  std::string load_dir;
  /// Default directory of the Snapshot request; empty makes an explicit
  /// dir in the request mandatory.
  std::string snapshot_dir;
  /// Admission bound: total repair batches admitted but not yet finished
  /// (waiting for a worker of their request's fan-out loop + running).
  /// Requests that would push the count past this are shed whole with
  /// ResourceExhausted — the backlog must not grow without bound under
  /// overload.
  uint64_t max_inflight = 64;
  /// deadline_ms applied to repairs whose request carries no budget and
  /// whose bundle registered none. 0 = unbounded.
  int64_t default_deadline_ms = 0;
  /// Thread count handed to the repair engines (RepairOptions::exec);
  /// 0 = the engines' own default resolution.
  int exec_threads = 0;
};

/// `idrepaird`: the long-running repair daemon. One acceptor thread plus
/// one thread per live connection; a request's repair batches fan out
/// through ParallelFor, one block per batch, with the connection thread as
/// the first worker and the process-wide exec pool (ThreadPool::Default())
/// supplying helpers, so the repair parallelism and its determinism
/// guarantees are exactly the library's. All socket loops poll with short timeouts against an atomic
/// stop flag, which keeps Stop() prompt and TSan-clean.
class IdRepairServer {
 public:
  /// Loads options.load_dir (if set), binds, listens, and starts the
  /// acceptor. On return the server is reachable at address().
  static Result<std::unique_ptr<IdRepairServer>> Start(ServerOptions options);

  /// Stops accepting, wakes every connection thread, joins them, closes
  /// the listener (unlinking a Unix socket path). Idempotent. Does NOT
  /// write a snapshot: persistence is an explicit Snapshot request, so a
  /// destructor-level "kill" genuinely simulates a crash.
  void Stop();

  ~IdRepairServer();

  IdRepairServer(const IdRepairServer&) = delete;
  IdRepairServer& operator=(const IdRepairServer&) = delete;

  /// The bound address in ParseAddress form (ephemeral tcp port resolved).
  const std::string& address() const { return address_; }

  GraphRegistry& registry() { return registry_; }
  const ServerOptions& options() const { return options_; }

  /// Blocks until a Shutdown request arrives or `timeout_ms` passes
  /// (negative = forever). True when shutdown was requested. The caller
  /// that owns the server then calls Stop() — request handling never
  /// destroys the server out from under its own threads.
  bool WaitForShutdownRequest(int64_t timeout_ms = -1);

  AdmissionStats admission() const;

 private:
  explicit IdRepairServer(ServerOptions options);

  Status Listen();
  void AcceptLoop();
  void ServeConnection(int fd);
  /// Dispatches one decoded request; returns the reply payload (status
  /// envelope included).
  std::string HandleRequest(const Frame& frame);
  std::string HandleRegisterGraph(std::string_view payload);
  std::string HandleSnapshot(std::string_view payload);
  std::string HandleRepair(std::string_view payload);
  std::string HandleStats(std::string_view payload);

  bool stopping() const { return stop_.load(std::memory_order_acquire); }

  const ServerOptions options_;
  std::string address_;
  GraphRegistry registry_;

  int listen_fd_ = -1;
  std::string unix_path_;  // unlinked on Stop()
  std::thread accept_thread_;
  std::atomic<bool> stop_{false};

  std::mutex conn_mu_;
  std::vector<std::thread> connections_;  // joined by Stop()

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  // Admission control. `inflight_` counts admitted-but-unfinished batches;
  // `queue_peak_` its high-water mark.
  std::atomic<int64_t> inflight_{0};
  std::atomic<int64_t> queue_peak_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
};

}  // namespace server
}  // namespace idrepair

#endif  // IDREPAIR_SERVER_SERVER_H_
