#ifndef HOTMAN_TESTS_SUPPORT_DAEMON_CLUSTER_H_
#define HOTMAN_TESTS_SUPPORT_DAEMON_CLUSTER_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/remote_client.h"

namespace hotman::support {

/// A loopback cluster of `hotmand` processes: the one place that picks
/// their ports, forks and execs them, waits for them to serve and reaps
/// them. Daemon i is named `db<i+1>:<19870+i>` whatever port it listens
/// on, so ring placement does not change from run to run. A daemon dies
/// with the thread that started it (PR_SET_PDEATHSIG), so use the cluster
/// from one long-lived thread (main, a test body). Daemons share the
/// caller's stderr, so a test's log gets their sanitizer reports and a
/// bench shows why one died.
class DaemonCluster {
 public:
  /// Every daemon gets `flags` (NWR, --shards, timeouts) plus its own
  /// --node and --listen, --seeds db1 and one --peer per daemon.
  DaemonCluster(std::string hotmand, int nodes, std::vector<std::string> flags);
  /// SIGKILLs and reaps every daemon still running.
  ~DaemonCluster();

  DaemonCluster(const DaemonCluster&) = delete;
  DaemonCluster& operator=(const DaemonCluster&) = delete;

  /// Picks one distinct loopback port per daemon, starts them all and
  /// waits at the boot barrier: a put through each daemon in turn, retried
  /// until it succeeds. Fails at once, naming the daemon and its exit code,
  /// when one exits first, and with Timeout when one never serves.
  Status Start();

  /// Sends `sig`, which must end the process, to daemon i and reaps it;
  /// returns its exit code (see Terminate).
  int Kill(int i, int sig);

  /// SIGTERM to every running daemon and SIGKILL to any left at a fixed
  /// deadline; then every daemon's exit code, in order: its exit status,
  /// 128 + the signal that ended it, or -1 if it never ran.
  std::vector<int> Terminate();

  const std::string& name(int i) const { return nodes_[Index(i)].name; }

  /// The CPU time, user plus system, that the running daemons have used so
  /// far, summed, in seconds: utime + stime of /proc/<pid>/stat, in clock
  /// ticks (10 ms at the usual 100 Hz).
  double CpuSeconds() const;

  /// A client of daemon i named `<who>-<pid>`, with a 5 s op timeout.
  net::RemoteClientConfig ClientConfig(int i, const std::string& who) const;

 private:
  struct Node {
    std::string name;
    std::uint16_t port = 0;
    pid_t pid = 0;    ///< 0 unless running
    int status = -1;  ///< waitpid's once reaped, else -1
  };

  static std::size_t Index(int i) { return static_cast<std::size_t>(i); }
  /// Forks and execs `node`'s daemon; false when fork fails.
  bool SpawnOne(Node* node) const;
  /// True once `node` has been reaped; `block` waits for a running one.
  static bool Reap(Node* node, bool block);

  const std::string hotmand_;
  const std::vector<std::string> flags_;
  std::vector<Node> nodes_;
};

}  // namespace hotman::support

#endif  // HOTMAN_TESTS_SUPPORT_DAEMON_CLUSTER_H_
