#ifndef HOTMAN_NET_SPSC_QUEUE_H_
#define HOTMAN_NET_SPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace hotman::net {

/// Bounded lock-free single-producer/single-consumer ring.
///
/// One designated producer thread calls TryPush; one designated consumer
/// thread calls TryPop/Drain. No mutex anywhere: the producer publishes a
/// slot with a release store of its cursor and the consumer observes it
/// with an acquire load, so the item written before the push is visible
/// after the pop. This is the cross-shard mailbox primitive of the
/// shard-per-core runtime — reactors exchange closures through one lane
/// per (producer, consumer) pair and never share a hot-path lock.
///
/// Capacity is rounded up to a power of two so the cursors can run free
/// and slot selection is a mask. A full ring rejects the push (the caller
/// escalates to its overflow path and counts the event); it never blocks.
template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t min_capacity = 1024) {
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  /// Producer side. Returns false when the ring is full — and then leaves
  /// `item` untouched (it is only moved from on success), so the caller can
  /// route the very same item to its overflow path.
  bool TryPush(T&& item) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    if (tail - head >= slots_.size()) return false;
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: pops one item into `*out`; false when empty.
  bool TryPop(T* out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;
    *out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: moves every currently-visible item into `*out`
  /// (appended) and returns how many were drained.
  std::size_t Drain(std::vector<T>* out) {
    std::size_t n = 0;
    T item;
    while (TryPop(&item)) {
      out->push_back(std::move(item));
      ++n;
    }
    return n;
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  // Separate cache lines so the producer's tail stores never invalidate the
  // consumer's head line and vice versa.
  alignas(64) std::atomic<std::size_t> head_{0};  ///< consumer cursor
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< producer cursor
};

}  // namespace hotman::net

#endif  // HOTMAN_NET_SPSC_QUEUE_H_
