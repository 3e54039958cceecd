// Host context recorded with every result: CPU capacity as the process
// sees it, the toolchain, and a calibration loop that shares no code
// with whart.  Context only — nothing here gates a result.
#pragma once

#include <vector>

#include "json.hpp"

namespace e2e {

/// Probe the host (about 0.2 s: a spin probe and SpeedProbe readings)
/// and describe it as a JSON object.
json::Object host_context();

/// The CPUs the process may run on (its affinity set at the call).
std::vector<int> allowed_cpus();

/// Pin the calling thread to `cpu`; false when the kernel refuses.
bool pin_to_cpu(int cpu);

}  // namespace e2e
