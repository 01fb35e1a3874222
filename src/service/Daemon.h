//===- service/Daemon.h - tpdbt-sweepd socket front end ---------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The socket-facing half of the sweep daemon: accepts Unix-domain
/// connections, speaks the framed protocol (service/Protocol.h), and
/// dispatches REQUEST frames onto a SweepService.
///
/// Threading model: one thread per connection reads frames; each REQUEST
/// runs on its own worker thread so a client may pipeline requests (up to
/// the per-client depth — beyond it the daemon answers Busy immediately
/// instead of queueing unboundedly). Replies carry the request Id, so
/// they may interleave in any order; a per-connection write lock keeps
/// individual frames atomic on the wire.
///
/// Shutdown (a SHUTDOWN frame, or requestStop() from a signal handler's
/// listener shutdown): the listener stops accepting, every open
/// connection is shut down to unblock its reader, connection threads
/// drain their in-flight requests, and run() returns. The SHUTDOWN
/// sender gets a RESULT(Ok) ack after its own pending requests finish.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_SERVICE_DAEMON_H
#define TPDBT_SERVICE_DAEMON_H

#include "service/SweepService.h"
#include "support/Socket.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace tpdbt {
namespace service {

/// Daemon configuration. fromEnv() reads TPDBT_SWEEPD_SOCKET plus the
/// ExperimentConfig and ServiceLimits knobs.
struct DaemonOptions {
  std::string SocketPath = "/tmp/tpdbt-sweepd.sock";
  core::ExperimentConfig Base;
  ServiceLimits Limits;
  bool Quiet = false; ///< suppress per-connection log lines

  static DaemonOptions fromEnv();
};

/// The tpdbt-sweepd server loop.
class Daemon {
public:
  explicit Daemon(DaemonOptions Opts);
  ~Daemon();

  /// Binds the socket. False (with \p Error) when the path is unusable.
  bool start(std::string *Error);

  /// Serves until a SHUTDOWN frame or requestStop(); joins every
  /// connection before returning.
  void run();

  /// Stops accepting and unblocks every connection reader. Idempotent;
  /// safe from another thread. (Signal handlers should instead shut down
  /// the listener fd directly — see tools/tpdbt_sweepd.cpp.)
  void requestStop();

  SweepService &service() { return Service; }
  const DaemonOptions &options() const { return Opts; }
  /// The listener fd, for async-signal-safe shutdown(2) from handlers.
  int listenerFd() const;

private:
  struct Connection {
    UnixSocket Sock;
    std::mutex WriteLock;      ///< frames are written whole
    unsigned Outstanding = 0;  ///< under WriteLock (tiny critical section)
    /// Per-client session counters, reported via STATS on this
    /// connection with a "client_" prefix.
    uint64_t Served = 0, Deduped = 0, Queued = 0, Rejected = 0;
  };

  void serveConnection(std::shared_ptr<Connection> Conn);
  void handleRequest(std::shared_ptr<Connection> Conn, SweepRequest R);
  bool sendFrame(Connection &Conn, MsgType Type, const std::string &Body);

  DaemonOptions Opts;
  SweepService Service;
  UnixListener Listener;
  std::atomic<bool> Stopping{false};

  /// Guards Threads and LiveConns; a connection's socket is closed only
  /// under it, after the connection left LiveConns (see serveConnection).
  std::mutex ConnsLock;
  std::vector<std::thread> Threads;
  std::vector<std::weak_ptr<Connection>> LiveConns;
};

} // namespace service
} // namespace tpdbt

#endif // TPDBT_SERVICE_DAEMON_H
