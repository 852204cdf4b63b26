// Retrying full-buffer I/O helpers (support/io_util.h): exact-length
// transfer over regular files and pipes, the EOF-is-an-error contract,
// positional variants leaving the fd offset untouched, and the bounded
// EAGAIN retry budget on a wedged non-blocking descriptor.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "support/io_util.h"
#include "support/stopwatch.h"

namespace opim {
namespace {

class TempFd {
 public:
  explicit TempFd(const std::string& name) {
    path_ = ::testing::TempDir() + "/" + name + ".XXXXXX";
    std::vector<char> tmpl(path_.begin(), path_.end());
    tmpl.push_back('\0');
    fd_ = ::mkstemp(tmpl.data());
    path_.assign(tmpl.data());
    EXPECT_GE(fd_, 0);
  }
  ~TempFd() {
    if (fd_ >= 0) ::close(fd_);
    ::unlink(path_.c_str());
  }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string path_;
};

std::vector<uint8_t> Pattern(size_t len, uint8_t tag) {
  std::vector<uint8_t> out(len);
  for (size_t i = 0; i < len; ++i) {
    out[i] = static_cast<uint8_t>((i * 131 + tag) & 0xFF);
  }
  return out;
}

TEST(IoUtilTest, WriteThenReadRoundTripsAFile) {
  TempFd f("io_roundtrip");
  const std::vector<uint8_t> data = Pattern(1 << 20, 7);  // 1 MiB
  ASSERT_TRUE(io::WriteFull(f.fd(), data.data(), data.size()).ok());
  ASSERT_EQ(::lseek(f.fd(), 0, SEEK_SET), 0);
  std::vector<uint8_t> back(data.size());
  ASSERT_TRUE(io::ReadFull(f.fd(), back.data(), back.size()).ok());
  EXPECT_EQ(data, back);
}

TEST(IoUtilTest, ReadPastEofIsIOError) {
  TempFd f("io_eof");
  const std::vector<uint8_t> data = Pattern(100, 3);
  ASSERT_TRUE(io::WriteFull(f.fd(), data.data(), data.size()).ok());
  ASSERT_EQ(::lseek(f.fd(), 0, SEEK_SET), 0);
  std::vector<uint8_t> back(200);
  const Status st = io::ReadFull(f.fd(), back.data(), back.size());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

TEST(IoUtilTest, PipeTransferSurvivesShortWrites) {
  // A pipe's 64 KiB buffer forces short writes on a 1 MiB payload;
  // WriteFull must keep feeding while a reader drains.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::vector<uint8_t> data = Pattern(1 << 20, 9);
  std::vector<uint8_t> back(data.size());
  std::thread reader([&] {
    EXPECT_TRUE(io::ReadFull(fds[0], back.data(), back.size()).ok());
  });
  ASSERT_TRUE(io::WriteFull(fds[1], data.data(), data.size()).ok());
  reader.join();
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_EQ(data, back);
}

TEST(IoUtilTest, WedgedNonblockingPipeFailsBounded) {
  // Fill a non-blocking pipe and keep writing with nobody draining: the
  // helper must spend its kMaxStalledRetries backoff budget and fail
  // with an IOError instead of spinning forever.
  int fds[2];
  ASSERT_EQ(::pipe2(fds, O_NONBLOCK), 0);
  const std::vector<uint8_t> chunk(64 * 1024, 0xAB);
  // Saturate the pipe buffer with raw writes first.
  while (::write(fds[1], chunk.data(), chunk.size()) > 0) {
  }
  Stopwatch sw;
  const Status st = io::WriteFull(fds[1], chunk.data(), chunk.size());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  // The backoff schedule (1ms doubling, capped at 64ms, 8 stalls) sums
  // to ~127ms; allow generous slack but insist it returned promptly.
  EXPECT_LT(sw.ElapsedSeconds(), 10.0);
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace opim
