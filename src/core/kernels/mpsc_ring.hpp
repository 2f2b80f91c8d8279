// Bounded multi-producer single-consumer ring buffer.
//
// The streaming sink uses this as the backpressure channel between the join
// workers (producers, one completed query strip per push) and the dedicated
// callback thread (the single consumer).  Callbacks run off the workers, so
// a slow consumer does not throttle the kernel one lock hold at a time:
// workers only stall when `capacity` strips are already waiting — bounded
// memory, and the kernel keeps running while the consumer catches up.
//
// The implementation is the Vyukov bounded-queue scheme specialized to one
// consumer: each cell carries a sequence number; producers claim a slot with
// a CAS on the tail and publish by bumping the cell sequence; the consumer
// owns the head outright (no atomics on its side beyond the cell
// sequences).  Waiting is spin-then-yield on both sides — pushes block when
// the ring is full (that IS the backpressure), pops return false when it is
// empty so the consumer can check for shutdown.

#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <utility>

namespace fasted::kernels {

template <typename T>
class BoundedMpscRing {
 public:
  // Capacity is rounded up to a power of two (minimum 2).
  explicit BoundedMpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cells_ = std::make_unique<Cell[]>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  std::size_t capacity() const { return mask_ + 1; }

  // Non-blocking push; false when the ring is full.  Thread-safe across any
  // number of producers.  On success `value` has been moved from.
  bool try_push(T& value) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    Cell* cell;
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::ptrdiff_t>(seq) -
                       static_cast<std::ptrdiff_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // full: the claimed slot has not been consumed yet
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(value);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  // Blocking push: spins, then yields, until a slot frees up.  This is the
  // producer-side backpressure — a worker with a completed strip parks here
  // while the consumer drains.
  void push(T value) {
    std::size_t spins = 0;
    while (!try_push(value)) {
      if (++spins > 64) std::this_thread::yield();
    }
  }

  // Single-consumer pop; false when the ring is currently empty.  Must only
  // ever be called from one thread.
  bool try_pop(T& out) {
    Cell& cell = cells_[head_ & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<std::ptrdiff_t>(seq) -
            static_cast<std::ptrdiff_t>(head_ + 1) <
        0) {
      return false;  // producer has not published this slot yet
    }
    out = std::move(cell.value);
    cell.value = T{};  // release payload memory eagerly
    cell.seq.store(head_ + mask_ + 1, std::memory_order_release);
    ++head_;
    return true;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::size_t head_ = 0;  // consumer-private
};

}  // namespace fasted::kernels
