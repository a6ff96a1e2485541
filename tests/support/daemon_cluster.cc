#include "support/daemon_cluster.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/bytes.h"

namespace hotman::support {

namespace {

using namespace std::chrono_literals;

constexpr auto kBootDeadline = 30s;
/// A booting daemon may drop a probe put; this is how long one waits.
constexpr Micros kProbeTimeout = 500 * kMicrosPerMilli;
constexpr auto kTerminateDeadline = 20s;

/// An ephemeral loopback port, bound and released. Another process may
/// take it before the daemon binds; that daemon then exits, and the boot
/// barrier says so.
std::uint16_t PickPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  ::close(fd);
  return ok ? ntohs(addr.sin_port) : 0;
}

int ExitCode(int status) {
  if (status == -1) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

}  // namespace

DaemonCluster::DaemonCluster(std::string hotmand, int nodes,
                             std::vector<std::string> flags)
    : hotmand_(std::move(hotmand)), flags_(std::move(flags)) {
  for (int i = 0; i < nodes; ++i) {
    nodes_.push_back({"db" + std::to_string(i + 1) + ":" + std::to_string(19870 + i)});
  }
}

DaemonCluster::~DaemonCluster() {
  for (Node& node : nodes_) {
    if (node.pid > 0) ::kill(node.pid, SIGKILL);
    Reap(&node, /*block=*/true);
  }
}

Status DaemonCluster::Start() {
  // A released port can come straight back from the next pick, and two
  // daemons given one port leave one dead.
  std::set<std::uint16_t> picked;
  for (Node& node : nodes_) {
    do {
      node.port = PickPort();
    } while (node.port != 0 && !picked.insert(node.port).second);
    if (node.port == 0) return Status::IOError("could not reserve a loopback port");
  }
  for (Node& node : nodes_) {
    if (!SpawnOne(&node)) return Status::IOError("could not fork " + hotmand_);
  }
  const auto deadline = std::chrono::steady_clock::now() + kBootDeadline;
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    net::RemoteClientConfig config = ClientConfig(i, "boot-probe");
    config.op_timeout = kProbeTimeout;
    net::RemoteClient probe(config);
    while (!probe.Put(name(i), "boot-probe", ToBytes("up")).ok()) {
      for (Node& node : nodes_) {
        if (Reap(&node, /*block=*/false)) {
          return Status::Aborted(node.name + " exited with code " +
                                 std::to_string(ExitCode(node.status)) +
                                 " before the cluster booted");
        }
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        return Status::Timeout(name(i) + " never served a put");
      }
      std::this_thread::sleep_for(100ms);
    }
  }
  return Status::OK();
}

bool DaemonCluster::SpawnOne(Node* node) const {
  std::vector<std::string> args = {hotmand_, "--node", node->name, "--listen",
                                   "127.0.0.1:" + std::to_string(node->port), "--seeds",
                                   nodes_.front().name};
  args.insert(args.end(), flags_.begin(), flags_.end());
  for (const Node& peer : nodes_) {
    args.push_back("--peer");
    args.push_back(peer.name + "=127.0.0.1:" + std::to_string(peer.port));
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Only async-signal-safe calls from here to exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);  // the parent died before prctl
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  if (pid > 0) node->pid = pid;
  return pid > 0;
}

bool DaemonCluster::Reap(Node* node, bool block) {
  if (node->pid == 0) return node->status != -1;
  int status = 0;
  if (::waitpid(node->pid, &status, block ? 0 : WNOHANG) != node->pid) return false;
  node->pid = 0;
  node->status = status;
  return true;
}

int DaemonCluster::Kill(int i, int sig) {
  Node& node = nodes_[Index(i)];
  if (node.pid > 0) ::kill(node.pid, sig);
  Reap(&node, /*block=*/true);
  return ExitCode(node.status);
}

std::vector<int> DaemonCluster::Terminate() {
  for (Node& node : nodes_) {
    if (node.pid > 0) ::kill(node.pid, SIGTERM);
  }
  const auto deadline = std::chrono::steady_clock::now() + kTerminateDeadline;
  std::vector<int> codes;
  for (Node& node : nodes_) {
    while (node.pid > 0 && !Reap(&node, /*block=*/false) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(5ms);
    }
    if (node.pid > 0) {
      std::fprintf(stderr, "%s outlived SIGTERM; sending SIGKILL\n", node.name.c_str());
      ::kill(node.pid, SIGKILL);
      Reap(&node, /*block=*/true);
    }
    codes.push_back(ExitCode(node.status));
  }
  return codes;
}

double DaemonCluster::CpuSeconds() const {
  const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  double total = 0.0;
  for (const Node& node : nodes_) {
    if (node.pid <= 0) continue;
    std::ifstream in("/proc/" + std::to_string(node.pid) + "/stat");
    std::string line;
    std::getline(in, line);
    // The fields after "(comm)", which may itself hold spaces: state is
    // field 3, utime 14 and stime 15.
    const std::size_t paren = line.rfind(')');
    if (paren == std::string::npos) continue;
    std::istringstream fields(line.substr(paren + 2));
    std::string field;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i >= 14) total += std::stod(field) / ticks;
    }
  }
  return total;
}

net::RemoteClientConfig DaemonCluster::ClientConfig(int i, const std::string& who) const {
  net::RemoteClientConfig config;
  config.port = nodes_[Index(i)].port;
  config.name = who + "-" + std::to_string(::getpid());
  config.op_timeout = 5 * kMicrosPerSecond;
  return config;
}

}  // namespace hotman::support
