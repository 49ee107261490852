#include "io/checked_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace mrscan::io {

[[noreturn]] void fail(const std::filesystem::path& path,
                       const std::string& what) {
  const int saved_errno = errno;
  std::string message = "mrscan: " + what + ": " + path.string();
  if (saved_errno != 0) {
    message += ": ";
    message += std::strerror(saved_errno);
  }
  throw std::runtime_error(message);
}

[[noreturn]] void format_fail(const std::filesystem::path& path,
                              const std::string& what) {
  errno = 0;
  fail(path, what);
}

void append_format_header(std::vector<std::uint8_t>& buf,
                          const FileFormat& format) {
  util::append(buf, format.magic);
  util::append(buf, format.version);
}

void check_format_header(const std::filesystem::path& path,
                         util::ByteReader& in, const FileFormat& format) {
  char magic[4] = {};
  if (!in.read(magic) || std::memcmp(magic, format.magic, 4) != 0) {
    format_fail(path, std::string("not a mrscan ") + format.name);
  }
  std::uint32_t version = 0;
  if (!in.read(version)) {
    format_fail(path, std::string("truncated ") + format.name + " header");
  }
  if (version != format.version) {
    format_fail(path, std::string("unsupported ") + format.name + " version");
  }
}

std::vector<std::uint8_t> read_file_bytes(const std::filesystem::path& path) {
  errno = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) fail(path, "cannot open");

  struct stat st{};
  if (::fstat(::fileno(f), &st) != 0) {
    std::fclose(f);
    fail(path, "cannot stat");
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(st.st_size));
  if (!bytes.empty()) {
    const std::size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
    if (got != bytes.size()) {
      // A short fread either hit EOF (file shrank under us) or an error;
      // surface whichever errno the stream recorded.
      if (errno == 0 && std::ferror(f) == 0) errno = EIO;
      std::fclose(f);
      fail(path, "short read");
    }
  }
  if (std::fclose(f) != 0) fail(path, "close failed");
  return bytes;
}

void write_file(const std::filesystem::path& path,
                std::span<const std::uint8_t> bytes) {
  errno = 0;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) fail(path, "cannot open for writing");
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    std::fclose(f);
    fail(path, "short write");
  }
  // fclose flushes what the stream still buffers; a full disk shows here.
  if (std::fclose(f) != 0) fail(path, "close failed");
}

void write_file_atomic(const std::filesystem::path& path,
                       std::span<const std::uint8_t> bytes) {
  const std::filesystem::path tmp =
      path.parent_path() / (path.filename().string() + ".tmp");
  errno = 0;
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) fail(tmp, "cannot open for writing");

  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    std::fclose(f);
    fail(tmp, "short write");
  }
  // Data must be durable before the rename publishes it; otherwise a
  // crash could leave the new name pointing at unwritten blocks.
  if (std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0) {
    std::fclose(f);
    fail(tmp, "flush failed");
  }
  if (std::fclose(f) != 0) fail(tmp, "close failed");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) fail(path, "rename failed");

  // Make the rename itself durable. Failure here (e.g. an unsyncable
  // filesystem) leaves a complete, valid file either way, so it is
  // best-effort by design.
  const std::filesystem::path dir =
      path.parent_path().empty() ? "." : path.parent_path();
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd >= 0) {
    ::fsync(dirfd);
    ::close(dirfd);
  }
}

void append_file(const std::filesystem::path& path,
                 std::span<const std::uint8_t> bytes) {
  errno = 0;
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) fail(path, "cannot open for appending");
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ::ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n == 0) errno = EIO;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      fail(path, "short append");
    }
    done += static_cast<std::size_t>(n);
  }
  // The appended bytes (and the size that covers them) must reach the
  // disk before the caller counts them as durable; the file's name and
  // the bytes before them already were.
  if (::fdatasync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail(path, "fdatasync failed");
  }
  if (::close(fd) != 0) fail(path, "close failed");
}

}  // namespace mrscan::io
