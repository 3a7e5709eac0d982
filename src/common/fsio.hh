/**
 * @file
 * Durable filesystem primitives for the experiment service.
 *
 * Thin wrappers over POSIX I/O providing the three guarantees the
 * `dapsim.expq.v1` store is built on:
 *
 *  - atomicWriteFile(): write-to-temp + fsync + rename(2), so readers
 *    never observe a half-written file no matter when the writer dies.
 *  - AppendFile: O_APPEND writes with an explicit fsync per record,
 *    so a crash can tear at most the final record of a ledger.
 *  - createExclusive(): write-to-temp + link(2) lock-file creation,
 *    the atomic take-it-or-lose primitive behind job leases and
 *    warmup locks; a lock is never visible without its content.
 *
 * Everything throws std::runtime_error on failure (never fatal()), so
 * an I/O error inside a worker fails one operation, not the process.
 */

#ifndef DAPSIM_COMMON_FSIO_HH
#define DAPSIM_COMMON_FSIO_HH

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

namespace dapsim::fsio
{

inline std::runtime_error
errnoError(const std::string &what, const std::string &path)
{
    return std::runtime_error(what + " " + path + ": " +
                              std::strerror(errno));
}

/** write(2) the whole span, retrying short writes and EINTR. */
inline void
writeAll(int fd, const void *data, std::size_t n, const std::string &path)
{
    const char *p = static_cast<const char *>(data);
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            throw errnoError("fsio: write failed:", path);
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
}

/**
 * A fresh temp-file name next to @p path. It must be unique per CALL,
 * not just per process: two threads of one process publishing the
 * same path concurrently would otherwise truncate each other's temp
 * file and publish half-written bytes.
 */
inline std::string
uniqueTempPath(const std::string &path)
{
    static std::atomic<std::uint64_t> counter{0};
    return path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(counter.fetch_add(1));
}

/** Create @p tmp holding @p data, fsync'd; unlinked again on error. */
inline void
writeTempFile(const std::string &tmp, const void *data, std::size_t n)
{
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        throw errnoError("fsio: cannot create", tmp);
    try {
        writeAll(fd, data, n, tmp);
        if (::fsync(fd) != 0)
            throw errnoError("fsio: fsync failed:", tmp);
    } catch (...) {
        ::close(fd);
        ::unlink(tmp.c_str());
        throw;
    }
    ::close(fd);
}

/**
 * Atomically replace @p path with @p data: write a uniquely named
 * temp file next to it, fsync it, rename(2) it into place. Concurrent
 * writers race benignly (last rename wins; every observable file is
 * complete), and a crash leaves at worst an orphaned temp file.
 */
inline void
atomicWriteFile(const std::string &path, const void *data, std::size_t n)
{
    const std::string tmp = uniqueTempPath(path);
    writeTempFile(tmp, data, n);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const int saved = errno;
        ::unlink(tmp.c_str());
        errno = saved;
        throw errnoError("fsio: rename failed:", path);
    }
}

inline void
atomicWriteFile(const std::string &path, const std::string &data)
{
    atomicWriteFile(path, data.data(), data.size());
}

/**
 * Create @p path holding @p content — the atomic "exactly one winner"
 * primitive. The content goes to a temp file first, which link(2)
 * then publishes under @p path only if nothing is there yet: a reader
 * never sees the file without its content, even if the creator is
 * killed half-way (an owner-less empty lock could only be reaped by
 * age). Returns false when the file already exists; throws on any
 * other failure.
 */
inline bool
createExclusive(const std::string &path, const std::string &content)
{
    const std::string tmp = uniqueTempPath(path);
    writeTempFile(tmp, content.data(), content.size());
    const int rc = ::link(tmp.c_str(), path.c_str());
    const int saved = errno;
    ::unlink(tmp.c_str());
    if (rc == 0)
        return true;
    if (saved == EEXIST)
        return false;
    errno = saved;
    throw errnoError("fsio: cannot create", path);
}

/** Bump @p path's mtime to now (lease/lock heartbeat). */
inline bool
touchFile(const std::string &path)
{
    return ::utimes(path.c_str(), nullptr) == 0;
}

/** Seconds since @p path's mtime; negative when the file is gone. */
inline double
fileAgeSeconds(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return -1.0;
    struct timeval now;
    ::gettimeofday(&now, nullptr);
    return static_cast<double>(now.tv_sec - st.st_mtime);
}

inline bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/**
 * Append-only ledger file: every append() is one write(2) into an
 * O_APPEND descriptor followed by fsync, so records from concurrent
 * writers never interleave mid-record and a SIGKILL tears at most the
 * final record (which the reader detects and drops).
 */
class AppendFile
{
  public:
    explicit AppendFile(std::string path) : path_(std::move(path))
    {
        fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                     0644);
        if (fd_ < 0)
            throw errnoError("fsio: cannot open for append", path_);
    }

    ~AppendFile()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    AppendFile(const AppendFile &) = delete;
    AppendFile &operator=(const AppendFile &) = delete;

    void
    append(const std::string &record)
    {
        writeAll(fd_, record.data(), record.size(), path_);
        if (::fsync(fd_) != 0)
            throw errnoError("fsio: fsync failed:", path_);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    int fd_ = -1;
};

} // namespace dapsim::fsio

#endif // DAPSIM_COMMON_FSIO_HH
