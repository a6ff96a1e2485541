#include "net/transport.h"

#include "common/logging.h"

namespace hotman::net {

void Dispatcher::On(const std::string& type, Handler handler) {
  handlers_[type] = std::move(handler);
}

bool Dispatcher::Dispatch(const Message& msg) const {
  auto it = handlers_.find(msg.type);
  if (it == handlers_.end()) return false;
  it->second(msg);
  return true;
}

Transport::Handler Dispatcher::AsTransportHandler() {
  return [this](const Message& msg) {
    if (!Dispatch(msg)) {
      unknown_.fetch_add(1, std::memory_order_relaxed);
      HOTMAN_LOG(kWarn) << msg.to << ": unknown message type " << msg.type
                        << " from " << msg.from;
    }
  };
}

}  // namespace hotman::net
