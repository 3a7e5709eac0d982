#include "exp/sweep_runner.hh"

#include <cinttypes>
#include <fstream>

#include "exp/thread_pool.hh"
#include "obs/chrome_trace.hh"

namespace dapsim::exp
{

std::size_t
SweepRunner::add(JobSpec spec)
{
    specs_.push_back(std::move(spec));
    return specs_.size() - 1;
}

std::size_t
SweepRunner::addGrid(const SystemConfig &cfg,
                     const std::vector<Mix> &mixes,
                     const std::vector<PolicyKind> &policies,
                     std::uint64_t instr, std::uint64_t seed_salt)
{
    const std::size_t first = specs_.size();
    for (const auto &mix : mixes) {
        for (PolicyKind policy : policies) {
            JobSpec spec;
            spec.cfg = cfg;
            spec.mix = mix;
            spec.policy = policy;
            spec.instr = instr;
            spec.seedSalt = seed_salt;
            add(std::move(spec));
        }
    }
    return first;
}

void
SweepRunner::buildForkGroups()
{
    groups_.clear();
    jobGroup_.assign(specs_.size(), nullptr);
    if (!warmupFork_)
        return;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        const JobSpec &spec = specs_[i];
        // Only standard, well-formed jobs fork; everything else keeps
        // the unforked path (and custom jobs have no warm-up to share).
        if (!warmupForkable(spec))
            continue;
        const std::uint64_t key = warmupStateHash(spec);
        ForkGroup &g = groups_[key];
        g.stateHash = key;
        ++g.pending;
        jobGroup_[i] = &g;
    }
}

std::size_t
SweepRunner::workerOrdinal()
{
    std::lock_guard lock(phaseMutex_);
    const auto id = std::this_thread::get_id();
    auto it = workerIds_.find(id);
    if (it != workerIds_.end())
        return it->second;
    const std::size_t ordinal = workerIds_.size();
    workerIds_.emplace(id, ordinal);
    return ordinal;
}

double
SweepRunner::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
SweepRunner::recordSpan(const std::string &name, const std::string &cat,
                        double start_us, double end_us)
{
    if (phaseTracePath_.empty())
        return;
    const std::size_t worker = workerOrdinal();
    std::lock_guard lock(phaseMutex_);
    phaseSpans_.push_back({name, cat, start_us, end_us, worker});
}

void
SweepRunner::writePhaseTrace()
{
    if (phaseTracePath_.empty())
        return;
    std::ofstream os(phaseTracePath_);
    if (!os) {
        std::fprintf(stderr, "sweep: cannot open %s for writing\n",
                     phaseTracePath_.c_str());
        return;
    }
    obs::ChromeTraceWriter trace(os, 0);
    for (const PhaseSpan &s : phaseSpans_)
        trace.span("worker " + std::to_string(s.worker), s.name, s.cat,
                   s.startUs, s.endUs - s.startUs);
    trace.finish();
}

JobResult
SweepRunner::execute(std::size_t i)
{
    ForkGroup *g = jobGroup_[i];
    const double start = phaseTracePath_.empty() ? 0.0 : nowUs();
    JobResult r;
    if (g == nullptr) {
        r = runJob(specs_[i], i);
    } else {
        std::call_once(g->once, [this, g, i] {
            const double wstart =
                phaseTracePath_.empty() ? 0.0 : nowUs();
            const WarmupCache::Result res =
                warmupCache_->ensure(specs_[i]);
            g->ckpt = res.ckpt;
            if (res.executed)
                ++warmupsExecuted_;
            recordSpan("warmup " + hashHex(g->stateHash), "warmup",
                       wstart, nowUs());
        });
        r = runJob(specs_[i], i, g->ckpt ? &g->ckpt : nullptr);
        if (--g->pending == 0) {
            g->ckpt = {};
            warmupCache_->release(g->stateHash);
        }
    }
    recordSpan(specs_[i].displayLabel(), r.ok ? "job" : "failed",
               start, nowUs());
    return r;
}

void
SweepRunner::drainReady()
{
    // Caller holds mutex_ (or is single-threaded in serial mode).
    while (nextToDeliver_ < specs_.size() && done_[nextToDeliver_]) {
        JobResult &r = results_[nextToDeliver_];
        // Every sink sees the result as the job produced it; a sink
        // failure is applied afterwards so it cannot hide the row
        // from other sinks, and it fails only this job.
        std::string sink_error;
        for (ResultSink *sink : sinks_) {
            try {
                sink->consume(r);
            } catch (const std::exception &e) {
                sink_error = e.what();
            }
        }
        if (!sink_error.empty() && r.ok) {
            r.ok = false;
            r.error = "result sink failed: " + sink_error;
        }
        ++nextToDeliver_;
    }
}

std::vector<JobResult>
SweepRunner::run(std::size_t threads)
{
    const std::size_t n = specs_.size();
    results_.assign(n, JobResult{});
    done_.assign(n, false);
    nextToDeliver_ = 0;
    completed_ = 0;
    warmupsExecuted_ = 0;
    epoch_ = std::chrono::steady_clock::now();
    phaseSpans_.clear();
    workerIds_.clear();
    buildForkGroups();
    if (warmupFork_)
        warmupCache_ = std::make_unique<WarmupCache>(ckptDir_);

    for (ResultSink *sink : sinks_)
        sink->begin(n);

    auto finish = [this, n](std::size_t i, JobResult r) {
        std::lock_guard lock(mutex_);
        ++completed_;
        if (progress_) {
            std::fprintf(stderr, "[%zu/%zu] %s %s\n", completed_, n,
                         r.label.c_str(),
                         r.ok ? "done" : ("FAILED: " + r.error).c_str());
            std::fflush(stderr);
        }
        results_[i] = std::move(r);
        done_[i] = true;
        drainReady();
    };

    if (threads <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            finish(i, execute(i));
    } else {
        ThreadPool pool(threads);
        for (std::size_t i = 0; i < n; ++i)
            pool.submit([this, i, &finish] {
                finish(i, execute(i));
            });
        pool.wait();
    }

    for (ResultSink *sink : sinks_) {
        try {
            sink->end();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "sweep: sink end() failed: %s\n",
                         e.what());
        }
    }
    writePhaseTrace();

    return std::move(results_);
}

} // namespace dapsim::exp
