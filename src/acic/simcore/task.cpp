#include "acic/simcore/task.hpp"

#include <new>

namespace acic::sim::detail {

#if ACIC_SIM_FRAME_POOL

namespace {

// Frames of up to kMaxPooledFrame bytes are allocated at their size
// class's full size, so a freed frame can serve any later frame of its
// class, on this thread or, if it was handed over, on another.
constexpr std::size_t kFrameGranule = 16;
constexpr std::size_t kMaxPooledFrame = 512;
constexpr std::size_t kFrameClasses = kMaxPooledFrame / kFrameGranule;

/// A free frame's first bytes link it to the next free frame of its class.
struct FreeFrame {
  FreeFrame* next;
};

enum class PoolState : unsigned char {
  kUnarmed,    ///< no pooled frame allocated on this thread yet
  kArmed,      ///< frames are recycled; the reaper runs at thread exit
  kDestroyed,  ///< the thread is exiting: frames go to the global allocator
};

// Constant-initialised and trivially destructible, so reading them on the
// hot path needs no thread-local initialisation guard.
constinit thread_local FreeFrame* free_frames[kFrameClasses] = {};
constinit thread_local PoolState pool_state = PoolState::kUnarmed;

/// Returns the thread's free frames to the global allocator when the
/// thread exits, after which the pool stays closed.
struct PoolReaper {
  PoolReaper() = default;
  PoolReaper(const PoolReaper&) = delete;
  PoolReaper& operator=(const PoolReaper&) = delete;
  ~PoolReaper() {
    pool_state = PoolState::kDestroyed;
    for (FreeFrame*& head : free_frames) {
      while (head != nullptr) {
        FreeFrame* frame = head;
        head = frame->next;
        ::operator delete(frame);
      }
    }
  }
};

std::size_t size_class(std::size_t bytes) {
  return (bytes - 1) / kFrameGranule;
}

std::size_t class_bytes(std::size_t cls) { return (cls + 1) * kFrameGranule; }

}  // namespace

void* allocate_frame(std::size_t bytes) {
  if (bytes > kMaxPooledFrame) return ::operator new(bytes);
  const std::size_t cls = size_class(bytes);
  if (pool_state == PoolState::kArmed) {
    if (FreeFrame* frame = free_frames[cls]) {
      free_frames[cls] = frame->next;
      return frame;
    }
  } else if (pool_state == PoolState::kUnarmed) {
    // First pooled frame on this thread: register the reaper.
    thread_local PoolReaper reaper;
    pool_state = PoolState::kArmed;
  }
  return ::operator new(class_bytes(cls));
}

void free_frame(void* frame, std::size_t bytes) noexcept {
  if (bytes > kMaxPooledFrame) {
    ::operator delete(frame, bytes);
    return;
  }
  const std::size_t cls = size_class(bytes);
  if (pool_state != PoolState::kArmed) {
    ::operator delete(frame, class_bytes(cls));
    return;
  }
  auto* node = static_cast<FreeFrame*>(frame);
  node->next = free_frames[cls];
  free_frames[cls] = node;
}

#endif  // ACIC_SIM_FRAME_POOL

}  // namespace acic::sim::detail
