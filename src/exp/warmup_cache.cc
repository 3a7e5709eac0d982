#include "exp/warmup_cache.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <thread>

#include <unistd.h>

#include "common/fsio.hh"
#include "common/json_reader.hh"
#include "common/json_writer.hh"

namespace dapsim::exp
{

namespace
{

std::string
hostName()
{
    char buf[256] = {0};
    if (::gethostname(buf, sizeof(buf) - 1) != 0)
        return "unknown-host";
    return buf;
}

/** {"pid":N,"host":"..."} — the lock owner's identity. */
std::string
lockContent()
{
    json::JsonWriter w;
    w.beginObject();
    w.key("pid").value(static_cast<std::uint64_t>(::getpid()));
    w.key("host").value(hostName());
    w.endObject();
    return w.str();
}

} // namespace

WarmupCache::WarmupCache(std::string dir, double lock_ttl_sec)
    : dir_(std::move(dir)), lockTtlSec_(lock_ttl_sec)
{
}

std::string
WarmupCache::checkpointPath(std::uint64_t state_hash) const
{
    return dir_ + "/warmup-" + hashHex(state_hash) + ".ckpt";
}

bool
WarmupCache::lockIsStale(const std::string &path) const
{
    // Same-host dead owner: immediately stale. Foreign or unreadable
    // owners fall back to the mtime TTL.
    try {
        std::ifstream in(path);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        if (in && !text.empty()) {
            const json::Value v = json::parse(text);
            if (v.at("host").asString() == hostName()) {
                const pid_t pid =
                    static_cast<pid_t>(v.at("pid").asU64());
                if (::kill(pid, 0) != 0 && errno == ESRCH)
                    return true;
            }
        }
    } catch (const std::exception &) {
        // Torn lock content (owner died mid-write): age decides.
    }
    const double age = fsio::fileAgeSeconds(path);
    return age > lockTtlSec_;
}

WarmupCache::Result
WarmupCache::prepare(const JobSpec &spec, std::uint64_t state_hash)
{
    Result out;
    // The heap checkpoint this call simulated (kept so the acquired
    // branch can publish it to disk after serving the view).
    std::shared_ptr<const ckpt::Checkpoint> simulated;
    auto simulate = [&]() {
        SystemConfig cfg = spec.cfg;
        cfg.policy = spec.policy;
        simulated = std::make_shared<const ckpt::Checkpoint>(
            ckpt::makeWarmupCheckpoint(cfg, spec.mix, spec.instr,
                                       spec.seedSalt));
        out.ckpt = ckpt::viewOf(simulated);
        out.executed = true;
    };

    if (dir_.empty()) {
        simulate();
        return out;
    }

    const std::string path = checkpointPath(state_hash);
    const std::string lock = path + ".lock";
    auto tryLoad = [&]() -> bool {
        try {
            // Serve the published checkpoint as a read-only mapping:
            // every forked job deserializes straight from the page
            // cache, no per-process heap copy of a multi-MB payload.
            ckpt::CheckpointView loaded = ckpt::readFileMapped(path);
            if (loaded.header.stateHash != state_hash)
                return false; // foreign file under our name: recreate
            out.ckpt = std::move(loaded);
            out.reused = true;
            return true;
        } catch (const std::exception &) {
            // Missing, torn, or of a refused version: recreate.
            return false;
        }
    };

    // Bound the wait on a foreign creator: past the deadline we
    // simulate locally — a duplicate warmup, never a wrong result
    // (warmups are deterministic and publication is atomic).
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(2.0 * lockTtlSec_ + 10.0));

    for (;;) {
        if (tryLoad())
            return out;

        bool acquired = false;
        try {
            acquired = fsio::createExclusive(lock, lockContent());
        } catch (const std::exception &e) {
            // Lock dir unwritable: degrade to a local warmup.
            std::fprintf(stderr, "warmup-cache: %s; running warmup "
                                 "locally\n",
                         e.what());
            simulate();
            return out;
        }

        if (acquired) {
            // Double-check: the previous holder may have published
            // between our load attempt and the lock acquisition.
            if (tryLoad()) {
                ::unlink(lock.c_str());
                return out;
            }
            try {
                simulate();
                ckpt::writeFile(path, *simulated);
            } catch (...) {
                ::unlink(lock.c_str());
                throw;
            }
            ::unlink(lock.c_str());
            return out;
        }

        if (lockIsStale(lock)) {
            // Reap via rename so exactly one reaper wins, then re-run
            // the election.
            const std::string reaped =
                lock + ".reaped." + std::to_string(::getpid());
            if (::rename(lock.c_str(), reaped.c_str()) == 0)
                ::unlink(reaped.c_str());
            continue;
        }

        if (std::chrono::steady_clock::now() > deadline) {
            std::fprintf(stderr,
                         "warmup-cache: gave up waiting on %s; "
                         "running warmup locally\n",
                         lock.c_str());
            simulate();
            return out;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

WarmupCache::Result
WarmupCache::ensure(const JobSpec &spec)
{
    const std::uint64_t key = warmupStateHash(spec);
    std::shared_ptr<Group> group;
    {
        std::lock_guard lock(mapMutex_);
        auto &slot = groups_[key];
        if (!slot)
            slot = std::make_shared<Group>();
        group = slot;
    }

    std::lock_guard glock(group->mutex);
    if (group->done) {
        Result repeat = group->result;
        repeat.executed = false; // only the preparing call reports it
        repeat.reused = false;
        return repeat;
    }
    try {
        group->result = prepare(spec, key);
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "warmup-cache: shared warmup failed (%s); group "
                     "runs unforked\n",
                     e.what());
        group->result = Result{}; // null ckpt: callers run unforked
    }
    group->done = true;
    {
        std::lock_guard lock(mapMutex_);
        executed_ += group->result.executed ? 1 : 0;
        reused_ += group->result.reused ? 1 : 0;
    }
    return group->result;
}

void
WarmupCache::release(std::uint64_t state_hash)
{
    std::lock_guard lock(mapMutex_);
    groups_.erase(state_hash);
}

} // namespace dapsim::exp
