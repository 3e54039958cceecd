// Process-wide heap meter of the benchmark binary: the global operator
// new/delete are replaced (heap_meter.cpp) so every C++ allocation of
// the library and the benchmark is counted, and live bytes are tracked
// through malloc_usable_size so frees are charged exactly.
#pragma once

#include <cstddef>
#include <cstdint>

namespace e2e::heap {

/// Monotone totals since process start.
struct Totals {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

[[nodiscard]] Totals totals() noexcept;

/// Usable bytes currently allocated through operator new.
[[nodiscard]] std::size_t live_bytes() noexcept;

/// Highest live_bytes() since the last reset_peak()/restore_peak().
[[nodiscard]] std::size_t peak_bytes() noexcept;

/// Start a new peak window at the current live level.
void reset_peak() noexcept;

/// Set the peak back to `peak` (at least the current live level): lets
/// untimed work, such as correctness checks, run without raising the
/// peak of the window around it.
void restore_peak(std::size_t peak) noexcept;

}  // namespace e2e::heap
