#include "support/io_util.h"

#include <errno.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

#include <string>

namespace opim::io {
namespace {

void BackoffSleep(int stall_round) {
  // 1ms doubling to 64ms; bounded so a wedged fd fails in ~127ms.
  long ms = 1L << (stall_round < 6 ? stall_round : 6);
  struct timespec ts;
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = (ms % 1000) * 1000000L;
  ::nanosleep(&ts, nullptr);
}

Status StalledError(const char* op, size_t remaining) {
  return Status::IOError(std::string(op) + " stalled with " +
                         std::to_string(remaining) +
                         " bytes left after " +
                         std::to_string(kMaxStalledRetries) + " retries");
}

Status ErrnoError(const char* op, int err) {
  return Status::IOError(std::string(op) + " failed: " + ::strerror(err));
}

// One loop services both entry points: `xfer` performs a single
// read/write attempt and returns its ssize_t result.
template <typename Xfer>
Status TransferFull(const char* op, size_t len, bool reads, Xfer&& xfer) {
  size_t done = 0;
  int stalls = 0;
  while (done < len) {
    const ssize_t got = xfer(done, len - done);
    if (got > 0) {
      done += static_cast<size_t>(got);
      stalls = 0;
      continue;
    }
    if (got == 0) {
      if (reads) {
        return Status::IOError(std::string(op) + " hit EOF with " +
                               std::to_string(len - done) + " bytes left");
      }
      // write(2) returning 0 for a non-zero count is a stall, not an
      // error code; back off like EAGAIN.
      if (++stalls > kMaxStalledRetries) return StalledError(op, len - done);
      BackoffSleep(stalls - 1);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (++stalls > kMaxStalledRetries) return StalledError(op, len - done);
      BackoffSleep(stalls - 1);
      continue;
    }
    return ErrnoError(op, errno);
  }
  return Status::OK();
}

}  // namespace

Status WriteFull(int fd, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  return TransferFull("write", len, /*reads=*/false,
                      [&](size_t off, size_t n) { return ::write(fd, p + off, n); });
}

Status ReadFull(int fd, void* data, size_t len) {
  uint8_t* p = static_cast<uint8_t*>(data);
  return TransferFull("read", len, /*reads=*/true,
                      [&](size_t off, size_t n) { return ::read(fd, p + off, n); });
}

}  // namespace opim::io
