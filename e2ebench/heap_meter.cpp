#include "heap_meter.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

// GCC pairs the replaced operator new with the library free() at inlined
// call sites and reports a mismatch; every replacement below allocates
// through malloc/posix_memalign, so new/free pairing is correct.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

// Relaxed ordering throughout: the counters are statistics, read by the
// benchmark thread between operations.
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

void raise_peak(std::size_t live) noexcept {
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  const std::size_t usable = malloc_usable_size(p);
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(usable, std::memory_order_relaxed);
  raise_peak(g_live.fetch_add(usable, std::memory_order_relaxed) + usable);
  return p;
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0)
    throw std::bad_alloc();
  return counted(p);
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return counted(std::malloc(size)); }
void* operator new[](std::size_t size) { return counted(std::malloc(size)); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}

// The nothrow forms route through the counted ones, as the library's
// defaults do; replacing them keeps every form on one allocator even
// where a sanitizer intercepts the defaults.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new[](size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return ::operator new[](size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  release(p);
}

namespace e2e::heap {

Totals totals() noexcept {
  return {g_allocs.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

std::size_t live_bytes() noexcept {
  return g_live.load(std::memory_order_relaxed);
}

std::size_t peak_bytes() noexcept {
  return g_peak.load(std::memory_order_relaxed);
}

void reset_peak() noexcept {
  g_peak.store(live_bytes(), std::memory_order_relaxed);
}

void restore_peak(std::size_t peak) noexcept {
  g_peak.store(peak, std::memory_order_relaxed);
  raise_peak(live_bytes());
}

}  // namespace e2e::heap
