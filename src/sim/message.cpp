#include "sim/message.hpp"

#include <new>

namespace gqs {
namespace {

// Blocks of up to kGrain * kClasses bytes are pooled, one free list per
// 16-byte size class; larger messages (none of the protocols' today) go
// straight to the global heap.
constexpr std::size_t kGrain = 16;
constexpr std::size_t kClasses = 16;

struct free_block {
  free_block* next;
};

/// One thread's free lists. Blocks stay on the list of the thread that
/// released them; a thread's lists are returned to the heap at its exit.
struct message_pool {
  free_block* heads[kClasses] = {};

  ~message_pool();
};

thread_local message_pool pool;
// Set once this thread's pool is destroyed: a message released after that
// (a handle with static storage duration, say) goes to the heap directly.
// Trivially destructible, so it stays readable to the thread's very end.
thread_local bool pool_retired = false;

message_pool::~message_pool() {
  pool_retired = true;
  for (free_block*& head : heads)
    while (head) ::operator delete(std::exchange(head, head->next));
}

std::size_t class_of(std::size_t bytes) { return (bytes - 1) / kGrain; }

}  // namespace

void* message::operator new(std::size_t bytes) {
  const std::size_t c = class_of(bytes);
  if (c >= kClasses || pool_retired) return ::operator new(bytes);
  if (free_block* b = pool.heads[c]) {
    pool.heads[c] = b->next;
    return b;
  }
  return ::operator new((c + 1) * kGrain);
}

void message::operator delete(void* block, std::size_t bytes) noexcept {
  const std::size_t c = class_of(bytes);
  if (c >= kClasses || pool_retired) {
    ::operator delete(block);
    return;
  }
  pool.heads[c] = new (block) free_block{pool.heads[c]};
}

void message_ptr::destroy(const message* m) noexcept { delete m; }

}  // namespace gqs
