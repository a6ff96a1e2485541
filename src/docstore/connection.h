#ifndef HOTMAN_DOCSTORE_CONNECTION_H_
#define HOTMAN_DOCSTORE_CONNECTION_H_

#include <deque>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "docstore/server.h"

namespace hotman::docstore {

/// Connection parameters, mirroring §5.1 step (2): the three pool-side
/// parameters the paper names (connecttimeoutms, sockettimeoutms,
/// autoconnectretry) plus the database-side endpoint identity.
struct ConnectionConfig {
  int connect_timeout_ms = 1000;   ///< connecttimeoutms
  int socket_timeout_ms = 2000;    ///< sockettimeoutms
  bool auto_connect_retry = true;  ///< autoconnectretry
  int max_retries = 2;             ///< attempts when auto_connect_retry

  std::string host = "127.0.0.1";  ///< database server IP
  int port = 27017;                ///< monitoring port (Table 1)
  std::string db_name = "mystore";

  int pool_min_size = 4;   ///< connections pre-created in memory
  int pool_max_size = 64;  ///< hard cap on live connections
};

/// One logical connection to a DocStoreServer. Connections become broken
/// when the server faults during use and are then discarded by the pool.
class Connection {
 public:
  explicit Connection(DocStoreServer* server) : server_(server) {}

  /// OK when the server end is still reachable.
  Status Ping() const { return server_->CheckConnectable(); }

  DocStoreServer* server() { return server_; }

  bool broken() const { return broken_; }
  void MarkBroken() { broken_ = true; }

 private:
  DocStoreServer* server_;
  bool broken_ = false;
};

/// RAII lease of a pooled connection; returns it on destruction.
class ConnectionPool;
class ConnectionLease {
 public:
  ConnectionLease() = default;
  ConnectionLease(ConnectionPool* pool, std::unique_ptr<Connection> conn);
  ~ConnectionLease();

  ConnectionLease(ConnectionLease&& other) noexcept;
  ConnectionLease& operator=(ConnectionLease&& other) noexcept;
  ConnectionLease(const ConnectionLease&) = delete;
  ConnectionLease& operator=(const ConnectionLease&) = delete;

  Connection* operator->() { return conn_.get(); }
  Connection* get() { return conn_.get(); }
  explicit operator bool() const { return conn_ != nullptr; }

 private:
  ConnectionPool* pool_ = nullptr;
  std::unique_ptr<Connection> conn_;
};

/// Connection pool per §5.1: "create a certain amount of connections in
/// memory in advance ... implemented as a singleton". Here it is a plain
/// class over one DocStoreServer; no singleton or process-wide default
/// exists, and only tests create one (the cluster layer reaches its store
/// directly).
class ConnectionPool {
 public:
  /// The pool pre-creates `config.pool_min_size` connections.
  ConnectionPool(DocStoreServer* server, ConnectionConfig config);

  ConnectionPool(const ConnectionPool&) = delete;
  ConnectionPool& operator=(const ConnectionPool&) = delete;

  /// §5.1 step (3): a real end-to-end connection test — acquires a
  /// connection and queries the server version. "Only when the connection
  /// to the database is built really, the Connect will return true."
  /// Retries up to max_retries when auto_connect_retry is set.
  Status Connect() HOTMAN_EXCLUDES(mu_);

  /// Leases a connection (creating one up to pool_max_size). Fails with
  /// Busy when the pool is exhausted, or the server's fault status when
  /// unreachable.
  Result<ConnectionLease> Acquire() HOTMAN_EXCLUDES(mu_);

  /// Returns a connection to the pool (called by ConnectionLease).
  void Release(std::unique_ptr<Connection> conn) HOTMAN_EXCLUDES(mu_);

  const ConnectionConfig& config() const { return config_; }
  std::size_t IdleCount() const HOTMAN_EXCLUDES(mu_);
  std::size_t LiveCount() const HOTMAN_EXCLUDES(mu_);

 private:
  DocStoreServer* server_;
  ConnectionConfig config_;
  mutable SharedMutex mu_;
  std::deque<std::unique_ptr<Connection>> idle_ HOTMAN_GUARDED_BY(mu_);
  std::size_t live_ HOTMAN_GUARDED_BY(mu_) = 0;  // idle + leased
};

}  // namespace hotman::docstore

#endif  // HOTMAN_DOCSTORE_CONNECTION_H_
