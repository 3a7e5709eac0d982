/**
 * @file
 * Tests for the persistent experiment service (`dapsim.expq.v1`):
 * durable store create/open, sharded workers, lease reaping,
 * fleet-wide warmup dedup across processes, retry-failed, and the
 * crash-resume contract — a worker SIGKILLed mid-grid must leave a
 * store whose resumed, merged output is bit-identical to an
 * uninterrupted serial run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/fsio.hh"
#include "common/json_writer.hh"
#include "exp/result_sink.hh"
#include "expd/store.hh"
#include "expd/worker.hh"

namespace dapsim
{
namespace
{

/** Fresh store directory under the system temp dir. */
std::string
freshDir(const std::string &name)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / name).string();
    std::filesystem::remove_all(dir);
    return dir;
}

/** Small real grid: 4 cores, 2 MiB MS$, short warm-up. */
expd::GridOptions
tinyGrid(std::vector<std::string> workloads = {"mcf"})
{
    expd::GridOptions opt;
    opt.archs = {"sectored"};
    opt.policies = {"baseline", "dap"};
    opt.workloads = std::move(workloads);
    opt.capacitiesMb = {2};
    opt.cores = 4;
    opt.instr = 2'000;
    opt.warmup = 2'000;
    return opt;
}

/** The rows a serial, unforked sweep of the store's grid produces —
 *  the byte-exact reference for merge output. */
std::vector<std::string>
serialReferenceRows(const expd::Store &store)
{
    std::vector<std::string> rows;
    for (std::size_t i = 0; i < store.jobs().size(); ++i)
        rows.push_back(
            exp::jobResultToJson(exp::runJob(store.jobs()[i].spec, i)));
    return rows;
}

expd::WorkerOptions
workerOpts(const std::string &dir, const std::string &id,
           std::size_t shard_index = 0, std::size_t shard_count = 1)
{
    expd::WorkerOptions opt;
    opt.storeDir = dir;
    opt.workerId = id;
    opt.shardIndex = shard_index;
    opt.shardCount = shard_count;
    return opt;
}

TEST(ExpqStore, CreateOpenRoundTripsTheGrid)
{
    const std::string dir = freshDir("dapsim_expq_roundtrip");
    const expd::Store created =
        expd::Store::create(dir, tinyGrid({"mcf", "bwaves"}));
    EXPECT_EQ(created.jobs().size(), 4u);

    const expd::Store opened = expd::Store::open(dir);
    ASSERT_EQ(opened.jobs().size(), created.jobs().size());
    for (std::size_t i = 0; i < created.jobs().size(); ++i)
        EXPECT_EQ(opened.jobs()[i].id, created.jobs()[i].id);
    // A second create on the same directory must refuse.
    EXPECT_THROW(expd::Store::create(dir, tinyGrid()),
                 expd::StoreError);
    std::filesystem::remove_all(dir);
}

TEST(ExpqStore, OpenRejectsDriftedManifest)
{
    const std::string dir = freshDir("dapsim_expq_drift");
    const expd::GridOptions opt = tinyGrid();
    expd::Store::create(dir, opt);

    // Rewrite the manifest with the job ids swapped: every record is
    // individually valid (CRC-sealed), but the store no longer
    // describes what this build expands to.
    const auto jobs = expd::expandGrid(opt);
    std::string text = expd::gridRecord(opt, jobs.size());
    text += expd::jobRecord(jobs[1], 0);
    text += expd::jobRecord(jobs[0], 1);
    fsio::atomicWriteFile(dir + "/grid.jsonl", text);

    EXPECT_THROW(expd::Store::open(dir), expd::StoreError);
    std::filesystem::remove_all(dir);
}

TEST(ExpqStore, MergeRefusesAnIncompleteStore)
{
    const std::string dir = freshDir("dapsim_expq_incomplete");
    const expd::Store store = expd::Store::create(dir, tinyGrid());
    EXPECT_THROW(store.mergedRows(store.replay()), expd::StoreError);
    std::filesystem::remove_all(dir);
}

TEST(ExpqWorker, MergedRowsAreBitIdenticalToSerialSweep)
{
    const std::string dir = freshDir("dapsim_expq_serial");
    const expd::Store store =
        expd::Store::create(dir, tinyGrid({"mcf", "bwaves"}));
    const std::vector<std::string> reference =
        serialReferenceRows(store);

    const expd::WorkerStats stats =
        expd::runWorker(workerOpts(dir, "w0"));
    EXPECT_EQ(stats.executed, 4u);
    EXPECT_EQ(stats.failed, 0u);
    // 2 workloads -> 2 warmup groups, each simulated once.
    EXPECT_EQ(stats.warmupsExecuted, 2u);

    const std::vector<std::string> merged =
        store.mergedRows(store.replay());
    ASSERT_EQ(merged.size(), reference.size());
    for (std::size_t i = 0; i < merged.size(); ++i)
        EXPECT_EQ(merged[i], reference[i]) << "row " << i;
    std::filesystem::remove_all(dir);
}

TEST(ExpqWorker, ShardsPartitionTheGrid)
{
    const std::string dir = freshDir("dapsim_expq_shards");
    const expd::Store store =
        expd::Store::create(dir, tinyGrid({"mcf", "bwaves"}));

    const expd::WorkerStats a =
        expd::runWorker(workerOpts(dir, "wa", 0, 2));
    const expd::WorkerStats b =
        expd::runWorker(workerOpts(dir, "wb", 1, 2));
    EXPECT_EQ(a.executed, 2u);
    EXPECT_EQ(b.executed, 2u);

    const expd::Replay replay = store.replay();
    EXPECT_EQ(replay.countState(expd::JobState::State::Done), 4u);
    EXPECT_EQ(replay.doneByWorker.at("wa"), 2u);
    EXPECT_EQ(replay.doneByWorker.at("wb"), 2u);
    // Shard workers share the on-disk warmup cache: the second worker
    // reuses the first's checkpoints instead of re-simulating.
    EXPECT_EQ(b.warmupsExecuted, 0u);
    EXPECT_EQ(b.warmupsReused, 2u);
    std::filesystem::remove_all(dir);
}

TEST(ExpqWorker, MaxJobsStopsEarlyAndResumeFinishes)
{
    const std::string dir = freshDir("dapsim_expq_maxjobs");
    const expd::Store store = expd::Store::create(dir, tinyGrid());

    expd::WorkerOptions first = workerOpts(dir, "w0");
    first.maxJobs = 1;
    EXPECT_EQ(expd::runWorker(first).executed, 1u);
    EXPECT_EQ(store.replay().countState(expd::JobState::State::Done),
              1u);

    EXPECT_EQ(expd::runWorker(workerOpts(dir, "w1")).executed, 1u);
    EXPECT_EQ(store.replay().countState(expd::JobState::State::Done),
              2u);
    std::filesystem::remove_all(dir);
}

TEST(ExpqWorker, FailedJobsAreRecordedAndRetryable)
{
    const std::string dir = freshDir("dapsim_expq_failed");
    // "nosuch" expands to deterministic error jobs.
    const expd::Store store =
        expd::Store::create(dir, tinyGrid({"nosuch"}));

    const expd::WorkerStats stats =
        expd::runWorker(workerOpts(dir, "w0"));
    EXPECT_EQ(stats.executed, 0u);
    EXPECT_EQ(stats.failed, 2u);

    expd::Replay replay = store.replay();
    EXPECT_EQ(replay.countState(expd::JobState::State::Failed), 2u);
    EXPECT_NE(replay.jobs[0].error.find("unknown workload"),
              std::string::npos);
    // The failure text is captured per job for `status`.
    std::ifstream stderr_file(store.stderrPath(0));
    std::string captured;
    std::getline(stderr_file, captured);
    EXPECT_NE(captured.find("unknown workload"), std::string::npos);

    // Failed rows still merge (rectangular grid), identical to what
    // a serial sweep emits for them.
    const std::vector<std::string> reference =
        serialReferenceRows(store);
    EXPECT_EQ(store.mergedRows(replay), reference);

    // retry-failed semantics: one retry record per failure returns
    // the job to pending.
    {
        fsio::AppendFile events(store.eventsPath("retry"));
        events.append(expd::retryRecord(0));
        events.append(expd::retryRecord(1));
    }
    replay = store.replay();
    EXPECT_EQ(replay.countState(expd::JobState::State::Failed), 0u);
    EXPECT_EQ(replay.countState(expd::JobState::State::Pending), 2u);
    std::filesystem::remove_all(dir);
}

TEST(ExpqWorker, StaleLeaseOfDeadProcessIsReaped)
{
    const std::string dir = freshDir("dapsim_expq_lease");
    const expd::Store store = expd::Store::create(dir, tinyGrid());

    // A guaranteed-dead same-host pid: fork a child that exits
    // immediately and reap it.
    const pid_t dead = fork();
    ASSERT_GE(dead, 0);
    if (dead == 0)
        _exit(0);
    int status = 0;
    ASSERT_EQ(waitpid(dead, &status, 0), dead);

    char host[256] = {0};
    ASSERT_EQ(gethostname(host, sizeof(host) - 1), 0);
    json::JsonWriter w;
    w.beginObject();
    w.key("pid").value(static_cast<std::uint64_t>(dead));
    w.key("host").value(std::string(host));
    w.endObject();
    ASSERT_TRUE(fsio::createExclusive(store.leasePath(0), w.str()));

    // Dead owner: reaped and re-acquired immediately, even with a
    // huge TTL.
    EXPECT_TRUE(store.tryLease(0, 1e9));
    // We are alive: a second claim on the same job must lose.
    EXPECT_FALSE(store.tryLease(0, 1e9));
    store.releaseLease(0);
    EXPECT_TRUE(store.tryLease(0, 1e9));
    std::filesystem::remove_all(dir);
}

TEST(ExpqStore, RacingReaderNeverSeesAnEmptyLock)
{
    // A lock without its owner record can only be reaped by age (the
    // lease TTL, a minute by default): a worker killed between
    // creating a lock and writing it used to stall the next warm-up
    // of that group that long. createExclusive publishes the complete
    // file in one step, so a concurrent reader sees either no lock or
    // the full record.
    const std::string dir = freshDir("dapsim_expq_lockrace");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/warmup.lock";
    const std::string owner = R"({"pid":1,"host":"h"})";
    std::atomic<bool> done{false};
    std::size_t seen = 0;
    std::size_t empty = 0;
    std::thread reader([&] {
        char buf[64];
        while (!done.load()) {
            const int fd = ::open(path.c_str(), O_RDONLY);
            if (fd < 0)
                continue;
            ++seen;
            if (::read(fd, buf, sizeof(buf)) <= 0)
                ++empty;
            ::close(fd);
        }
    });
    for (int i = 0; i < 400; ++i) {
        ASSERT_TRUE(fsio::createExclusive(path, owner));
        EXPECT_FALSE(fsio::createExclusive(path, owner));
        ::unlink(path.c_str());
    }
    done.store(true);
    reader.join();
    EXPECT_EQ(empty, 0u) << "of " << seen << " reads";
    // Only the lock itself is left behind: no temp files.
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

TEST(ExpqService, KilledWorkerResumesToBitIdenticalMerge)
{
    const std::string dir = freshDir("dapsim_expq_kill");
    const expd::Store store = expd::Store::create(
        dir, tinyGrid({"mcf", "bwaves", "omnetpp"}));
    const std::vector<std::string> reference =
        serialReferenceRows(store);

    // Child: a worker chewing through the whole grid.
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        try {
            expd::runWorker(workerOpts(dir, "victim"));
        } catch (...) {
        }
        _exit(0);
    }

    // SIGKILL it as soon as the first durable result lands; no
    // cooperation from the worker whatsoever.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::minutes(5);
    for (;;) {
        if (store.replay().countState(expd::JobState::State::Done) >=
            1)
            break;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "worker made no progress";
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));

    // Resume in this process: dead-owner leases are reaped, done jobs
    // are skipped, pending jobs run.
    const expd::Replay mid = store.replay();
    const std::size_t done_before_resume =
        mid.countState(expd::JobState::State::Done);
    const expd::WorkerStats resumed =
        expd::runWorker(workerOpts(dir, "resume"));
    EXPECT_EQ(resumed.skipped + resumed.executed, 6u);
    EXPECT_EQ(resumed.executed, 6u - done_before_resume);

    // The resumed merge is byte-identical to the uninterrupted
    // serial reference.
    const std::vector<std::string> merged =
        store.mergedRows(store.replay());
    ASSERT_EQ(merged.size(), reference.size());
    for (std::size_t i = 0; i < merged.size(); ++i)
        EXPECT_EQ(merged[i], reference[i]) << "row " << i;
    std::filesystem::remove_all(dir);
}

TEST(ExpqService, WarmupsExecuteExactlyOncePerGroupFleetWide)
{
    const std::string dir = freshDir("dapsim_expq_warmup_fleet");
    // One workload, two policies: both shards race for ONE warmup
    // group, from two separate processes started back-to-back.
    const expd::Store store = expd::Store::create(dir, tinyGrid());

    pid_t pids[2];
    for (int s = 0; s < 2; ++s) {
        pids[s] = fork();
        ASSERT_GE(pids[s], 0);
        if (pids[s] == 0) {
            try {
                expd::runWorker(workerOpts(
                    dir, "w" + std::to_string(s),
                    static_cast<std::size_t>(s), 2));
                _exit(0);
            } catch (...) {
                _exit(1);
            }
        }
    }
    for (const pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        ASSERT_EQ(WEXITSTATUS(status), 0);
    }

    const expd::Replay replay = store.replay();
    EXPECT_EQ(replay.countState(expd::JobState::State::Done), 2u);
    // The fleet-wide dedup invariant, asserted from the durable stat
    // counters: each warmup group was simulated exactly once across
    // both worker processes.
    ASSERT_EQ(replay.warmupsExecuted.size(), 1u);
    for (const auto &[group, count] : replay.warmupsExecuted)
        EXPECT_EQ(count, 1u) << "group " << group;

    // And the racing processes still produced the serial rows.
    EXPECT_EQ(store.mergedRows(replay), serialReferenceRows(store));
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace dapsim
