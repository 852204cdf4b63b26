// Retrying full-buffer I/O over POSIX file descriptors.
//
// write(2)/read(2) are allowed to transfer fewer bytes than asked, to be
// interrupted by a signal (EINTR), or — on descriptors someone marked
// non-blocking — to fail transiently with EAGAIN. Every durable path in
// the repo (the atomic-file writer behind snapshots) must treat a
// partial transfer as "keep going", not as corruption, so the loop lives
// here once:
//
//   - EINTR retries immediately (conventional; a signal arriving
//     mid-write is not a fault).
//   - EAGAIN/EWOULDBLOCK and zero-byte progress retry with bounded
//     exponential backoff (1ms doubling to 64ms, at most
//     kMaxStalledRetries stalls) and then fail with an IOError rather
//     than spinning forever on a wedged descriptor.
//   - Any other errno fails immediately with an IOError naming the
//     operation and the errno string.
//
// All helpers either transfer exactly `len` bytes or return a non-OK
// Status; there is no partial-success return.

#pragma once

#include <cstddef>
#include <cstdint>

#include "support/status.h"

namespace opim::io {

/// Stalled-transfer retry budget: after this many EAGAIN/zero-progress
/// rounds (with backoff sleeps totalling ~127ms) the helper gives up.
inline constexpr int kMaxStalledRetries = 8;

/// Writes all `len` bytes to `fd` at the current offset.
Status WriteFull(int fd, const void* data, size_t len);

/// Reads exactly `len` bytes from `fd` at the current offset. EOF
/// before `len` bytes is an IOError (the caller asked for bytes the
/// file does not have).
Status ReadFull(int fd, void* data, size_t len);

}  // namespace opim::io
