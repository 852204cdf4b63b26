#include "obs/progress.h"

#include <unistd.h>

#include <cstdio>

#include "obs/metrics.h"
#include "support/resource_usage.h"
#include "support/run_control.h"

namespace opim {

namespace {

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Default().FindOrCreateCounter(name)->Value();
}

}  // namespace

ProgressHeartbeat::ProgressHeartbeat(const RunControl* control)
    : ProgressHeartbeat(control, Options()) {}

ProgressHeartbeat::ProgressHeartbeat(const RunControl* control,
                                     const Options& options)
    : control_(control),
      options_(options),
      start_(std::chrono::steady_clock::now()),
      base_iterations_(CounterValue("opim.opimc.iterations")),
      base_rr_sets_(CounterValue("opim.rrset.sets_generated")) {
  OPIM_CHECK_GT(options_.interval_seconds, 0.0);
  thread_ = std::thread([this] { Loop(); });
}

ProgressHeartbeat::~ProgressHeartbeat() { Stop(); }

void ProgressHeartbeat::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && !thread_.joinable()) return;
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

uint64_t ProgressHeartbeat::lines_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_written_;
}

size_t ProgressHeartbeat::FormatLine(char* buf, size_t buf_size) const {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  const uint64_t iters =
      CounterValue("opim.opimc.iterations") - base_iterations_;
  const uint64_t rr_sets =
      CounterValue("opim.rrset.sets_generated") - base_rr_sets_;

  int len = std::snprintf(buf, buf_size,
                          "opim: progress t=%.0fs iter=%llu rr_sets=%llu",
                          elapsed, static_cast<unsigned long long>(iters),
                          static_cast<unsigned long long>(rr_sets));
  if (len < 0) return 0;
  size_t pos = static_cast<size_t>(len) < buf_size
                   ? static_cast<size_t>(len)
                   : buf_size - 1;
  auto append = [&](const char* fmt, auto... args) {
    if (pos >= buf_size - 1) return;
    const int n = std::snprintf(buf + pos, buf_size - pos, fmt, args...);
    if (n > 0) {
      pos += static_cast<size_t>(n) < buf_size - pos
                 ? static_cast<size_t>(n)
                 : buf_size - pos - 1;
    }
  };
  if (control_ != nullptr) {
    append(" peak_rr_mb=%.1f",
           static_cast<double>(control_->peak_bytes()) / (1024.0 * 1024.0));
    if (control_->has_deadline()) {
      append(" deadline_slack_s=%.1f", control_->deadline_slack_seconds());
    }
    if (control_->Stopped()) {
      append(" stopping=%s", StopReasonName(control_->reason()));
    }
  }
  // Process residency next to the pool accounting: rss is the kernel's
  // view, and the major-fault delta exposes disk traffic (cold mmap
  // loads) the byte counters can't see.
  const ResourceUsage ru = ReadResourceUsage();
  append(" rss_mb=%.1f maj_flt=%llu min_flt=%llu",
         static_cast<double>(ru.peak_rss_bytes) / (1024.0 * 1024.0),
         static_cast<unsigned long long>(ru.major_page_faults),
         static_cast<unsigned long long>(ru.minor_page_faults));
  append("\n");
  return pos;
}

void ProgressHeartbeat::Loop() {
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(options_.interval_seconds));
  char line[320];
  for (;;) {
    bool last = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait_for(lock, interval, [this] { return stopping_; });
      last = stopping_;
    }
    const size_t len = FormatLine(line, sizeof(line));
    if (len > 0) {
      // One short write(2) per line: async-signal-safe and unbuffered, so
      // a signal-tripped process never leaves a half-flushed stdio stream.
      ssize_t written [[maybe_unused]] = write(options_.fd, line, len);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++lines_written_;
    }
    if (last) return;
  }
}

}  // namespace opim
