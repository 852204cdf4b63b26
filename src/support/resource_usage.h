// Process resource-usage snapshots for reports and the progress
// heartbeat: peak RSS plus major/minor page-fault counters. Page
// faults are the observable cost of the storage tier — a mapped
// `.opimg` load shifts work from parse time to (minor) faults, and a
// cold one shows up as major faults — so runs record them alongside
// wall-clock timings.

#pragma once

#include <cstdint>

namespace opim {

/// One snapshot of the process's resource counters. All fields are
/// cumulative since process start.
struct ResourceUsage {
  uint64_t peak_rss_bytes = 0;    // high-water resident set size
  uint64_t major_page_faults = 0; // faults that required I/O
  uint64_t minor_page_faults = 0; // faults served from memory
};

/// Reads the current counters. Peak RSS comes from /proc/self/status
/// (VmHWM) with a getrusage(RUSAGE_SELF) fallback; fault counters come
/// from getrusage. Never fails: fields a platform cannot supply stay 0.
ResourceUsage ReadResourceUsage();

}  // namespace opim
