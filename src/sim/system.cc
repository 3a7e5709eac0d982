#include "sim/system.hh"

#include "common/log.hh"
#include "dap/bandwidth_model.hh"
#include "obs/observability.hh"
#include "sim/warm_pipeline.hh"

namespace dapsim
{

namespace
{

/** A pass-through "cache" used by MsArch::None. */
class NullMsCache final : public MemSideCache
{
  public:
    using MemSideCache::MemSideCache;

    void
    handleRead(Addr addr, Done done) override
    {
        readMisses.inc();
        memAccess(addr, false, std::move(done));
    }

    void
    handleWrite(Addr addr) override
    {
        writeMisses.inc();
        memAccess(addr, true);
    }
};

} // namespace

std::uint64_t
SystemConfig::msCapacityBytes() const
{
    switch (arch) {
      case MsArch::Sectored:
        return sectored.capacityBytes;
      case MsArch::Alloy:
        return alloy.capacityBytes;
      case MsArch::Edram:
        return edram.capacityBytes;
      case MsArch::None:
        return 0;
    }
    return 0;
}

double
msPeakAccPerCycle(const SystemConfig &cfg)
{
    switch (cfg.arch) {
      case MsArch::Sectored:
        return cfg.sectored.array.peakAccessesPerCpuCycle();
      case MsArch::Alloy: {
        const auto &a = cfg.alloy;
        const double data_clocks =
            a.array.ddr ? (a.array.burstLength + 1) / 2
                        : a.array.burstLength;
        return a.array.peakAccessesPerCpuCycle() * data_clocks /
               (data_clocks + a.tadExtraClocks);
      }
      case MsArch::Edram:
        return cfg.edram.array.peakAccessesPerCpuCycle();
      case MsArch::None:
        return 0.0;
    }
    return 0.0;
}

System::System(const SystemConfig &cfg,
               std::vector<AccessGeneratorPtr> gens)
    : cfg_(cfg), gens_(std::move(gens))
{
    if (gens_.size() != cfg_.numCores)
        fatal("System: need one generator per core");

    // Steady-state pending events are bounded by outstanding reads
    // (cores x MSHRs), plus per-channel kicks/refreshes and the
    // window/sampler ticks; pre-size the scheduler so the run loop
    // never grows its arrays.
    eq_.reserve(static_cast<std::size_t>(cfg_.numCores) *
                    cfg_.core.maxOutstanding +
                64);

    mm_ = std::make_unique<DramSystem>(eq_, cfg_.mainMemory);
    if (cfg_.remote.enabled)
        remote_ = std::make_unique<RemoteMemory>(
            eq_, cfg_.remote, cfg_.mainMemory.peakGBps());
    deriveDapConfig();
    buildPolicy();
    buildMsCache();
    if (remote_) {
        ms_->setRemote(remote_.get());
        // Static Eq 4 split for policies without their own remote
        // credit machinery: the remote pool's bandwidth share of the
        // combined lower tier. DapPolicy overrides the router, so the
        // fraction is inert there.
        const double b_mm = cfg_.mainMemory.peakAccessesPerCpuCycle();
        const double b_rem = remote_->peakAccessesPerCpuCycle();
        policy_->setRemoteFraction(b_rem / (b_mm + b_rem));
    }
    l3_ = std::make_unique<L3Cache>(eq_, cfg_.l3, *ms_);
    pfScratch_.reserve(cfg_.prefetch.degree);

    for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
        AccessGenerator *gen = gens_[i].get();
        prefetchers_.push_back(
            std::make_unique<StridePrefetcher>(cfg_.prefetch));
        StridePrefetcher *pf = prefetchers_.back().get();
        auto fetch = [gen](TraceRequest &out) { return gen->next(out); };
        auto issue = [this, pf](Addr a, bool w,
                                EventQueue::Callback done) {
            if (!w) {
                // Demand reads train the stride prefetcher; prefetches
                // are injected into the L3 as non-blocking reads.
                pfScratch_.clear();
                pf->observe(a, pfScratch_);
                for (Addr p : pfScratch_)
                    l3_->access(p, false, nullptr);
            }
            l3_->access(a, w, std::move(done));
        };
        cores_.push_back(std::make_unique<RobCore>(
            eq_, cfg_.core, i, std::move(fetch), std::move(issue)));
    }

    setupObservability();
}

System::~System() = default;

void
System::deriveDapConfig()
{
    if (cfg_.dapExplicit)
        return;
    cfg_.dap.mmPeakAccPerCycle =
        cfg_.mainMemory.peakAccessesPerCpuCycle();
    cfg_.dap.msPeakAccPerCycle = msPeakAccPerCycle(cfg_);
    if (remote_)
        cfg_.dap.remotePeakAccPerCycle =
            remote_->peakAccessesPerCpuCycle();
    cfg_.dap.windowCycles = cfg_.windowCycles;
    switch (cfg_.arch) {
      case MsArch::Sectored:
        cfg_.dap.arch = DapConfig::Arch::Sectored;
        break;
      case MsArch::Alloy:
        cfg_.dap.arch = DapConfig::Arch::Alloy;
        break;
      case MsArch::Edram:
        cfg_.dap.arch = DapConfig::Arch::Edram;
        cfg_.dap.msWritePeakAccPerCycle =
            cfg_.edram.writeChannels.value_or(cfg_.edram.array)
                .peakAccessesPerCpuCycle();
        break;
      case MsArch::None:
        break;
    }
}

void
System::buildPolicy()
{
    switch (cfg_.policy) {
      case PolicyKind::Baseline:
        policy_ = std::make_unique<BaselinePolicy>();
        break;
      case PolicyKind::Dap:
        policy_ = std::make_unique<DapPolicy>(cfg_.dap);
        break;
      case PolicyKind::Sbd:
        cfg_.sbd.writeThroughOnly = false;
        policy_ = std::make_unique<SbdPolicy>(cfg_.sbd);
        break;
      case PolicyKind::SbdWt:
        cfg_.sbd.writeThroughOnly = true;
        policy_ = std::make_unique<SbdPolicy>(cfg_.sbd);
        break;
      case PolicyKind::Batman: {
        if (!cfg_.batmanExplicit) {
            switch (cfg_.arch) {
              case MsArch::Sectored:
                cfg_.batman.numSets = cfg_.sectored.numSets();
                break;
              case MsArch::Alloy:
                cfg_.batman.numSets = cfg_.alloy.numSets();
                break;
              case MsArch::Edram:
                cfg_.batman.numSets = cfg_.edram.numSets();
                break;
              case MsArch::None:
                break;
            }
            const double bms = msPeakAccPerCycle(cfg_);
            const double bmm =
                cfg_.mainMemory.peakAccessesPerCpuCycle();
            cfg_.batman.targetHitRate =
                1.0 - bwmodel::optimalMemoryFraction(bms, bmm);
        }
        policy_ = std::make_unique<BatmanPolicy>(cfg_.batman);
        break;
      }
      case PolicyKind::Bear:
        policy_ = std::make_unique<BearPolicy>(cfg_.bear);
        break;
    }
}

void
System::buildMsCache()
{
    switch (cfg_.arch) {
      case MsArch::Sectored:
        ms_ = std::make_unique<SectoredDramCache>(eq_, *mm_, *policy_,
                                                  cfg_.sectored);
        break;
      case MsArch::Alloy:
        ms_ = std::make_unique<AlloyCache>(eq_, *mm_, *policy_,
                                           cfg_.alloy);
        break;
      case MsArch::Edram:
        ms_ = std::make_unique<SectoredDramCache>(eq_, *mm_, *policy_,
                                                  cfg_.edram);
        break;
      case MsArch::None:
        ms_ = std::make_unique<NullMsCache>(eq_, *mm_, *policy_);
        break;
    }
}

DapPolicy *
System::dapPolicy()
{
    return dynamic_cast<DapPolicy *>(policy_.get());
}

void
System::setupObservability()
{
    if (!cfg_.obs.anyEnabled())
        return;
    obs_ = std::make_unique<obs::Observability>(cfg_.obs, eq_);

    if (obs::ChromeTraceWriter *ct = obs_->chromeTrace()) {
        eq_.setDispatchHook(ct);
        mm_->setBusTrace(ct, "mainMemory");
        if (remote_)
            remote_->setBusTrace(ct, "remote");
        for (const MemSideCache::NamedArray &a : ms_->arrays())
            a.dram->setBusTrace(ct, a.name);
    }

    if (obs_->dapTrace())
        if (DapPolicy *dap = dapPolicy())
            dap->setTraceSink(obs_->dapTrace());

    // Per-tenant traffic attribution (workload MixComposer runs).
    const auto tenants = tenantViews();
    if (obs_->dapTrace()) {
        for (const auto &t : tenants) {
            const auto &members = t.second;
            obs_->dapTrace()->addProbe(t.first + ".reads", [this,
                                                            members] {
                std::uint64_t sum = 0;
                for (std::uint32_t i : members)
                    sum += cores_[i]->readsIssued.value();
                return sum;
            });
            obs_->dapTrace()->addProbe(t.first + ".writes", [this,
                                                             members] {
                std::uint64_t sum = 0;
                for (std::uint32_t i : members)
                    sum += cores_[i]->writesIssued.value();
                return sum;
            });
        }
    }

    if (!cfg_.obs.samplingEnabled())
        return;
    obs::Sampler &smp = obs_->sampler();

    StatGroup &l3g = obs_->makeGroup("l3");
    l3g.addCounter("hits", &l3_->hits);
    l3g.addCounter("misses", &l3_->misses);
    l3g.addCounter("writebacks", &l3_->writebacksToMs);

    StatGroup &msg = obs_->makeGroup("ms");
    msg.addCounter("readHits", &ms_->readHits);
    msg.addCounter("readMisses", &ms_->readMisses);
    msg.addCounter("writeHits", &ms_->writeHits);
    msg.addCounter("writeMisses", &ms_->writeMisses);
    msg.addCounter("fills", &ms_->fills);
    msg.addCounter("fillsBypassed", &ms_->fillsBypassed);
    msg.addCounter("writesBypassed", &ms_->writesBypassed);
    msg.addCounter("forcedReadMisses", &ms_->forcedReadMisses);
    msg.addCounter("speculativeReads", &ms_->speculativeReads);
    msg.addCounter("dirtyWritebacks", &ms_->dirtyWritebacks);
    smp.addGroup(&l3g);
    smp.addGroup(&msg);

    if (remote_) {
        StatGroup &rg = obs_->makeGroup("remote");
        rg.addCounter("reads", &remote_->reads);
        rg.addCounter("writes", &remote_->writes);
        smp.addGroup(&rg);
        smp.addColumn("remote.busUtilization", [this] {
            return remote_->busUtilization(eq_.now());
        });
        smp.addColumn("remote.queuePeakDepth", [this] {
            return static_cast<double>(remote_->queuePeakDepth());
        });
    }

    if (DapPolicy *dap = dapPolicy()) {
        StatGroup &dg = obs_->makeGroup("dap");
        dg.addCounter("fwbApplied", &dap->fwbApplied);
        dg.addCounter("wbApplied", &dap->wbApplied);
        dg.addCounter("ifrmApplied", &dap->ifrmApplied);
        dg.addCounter("sfrmApplied", &dap->sfrmApplied);
        dg.addCounter("wtApplied", &dap->writeThroughApplied);
        if (dap->config().remoteEnabled())
            dg.addCounter("remoteApplied", &dap->remoteApplied);
        dg.addCounter("windowsPartitioned", &dap->windowsPartitioned);
        dg.addCounter("windowsTotal", &dap->windowsTotal);
        smp.addGroup(&dg);
        smp.addColumn("dap.fwbCredits", [dap] {
            return static_cast<double>(dap->fwbCredits());
        });
        smp.addColumn("dap.wbCredits", [dap] {
            return static_cast<double>(dap->wbCredits());
        });
        smp.addColumn("dap.ifrmCredits", [dap] {
            return static_cast<double>(dap->ifrmCredits());
        });
        smp.addColumn("dap.sfrmCredits", [dap] {
            return static_cast<double>(dap->sfrmCredits());
        });
        smp.addColumn("dap.wtCredits", [dap] {
            return static_cast<double>(dap->wtCredits());
        });
        if (dap->config().remoteEnabled())
            smp.addColumn("dap.remoteCredits", [dap] {
                return static_cast<double>(dap->remoteCredits());
            });
    }

    smp.addColumn("sim.events", [this] {
        return static_cast<double>(eq_.executed());
    });
    smp.addColumn("cores.ipc", [this] {
        double sum = 0.0;
        const Tick now = eq_.now();
        for (const auto &c : cores_)
            sum += c->finished() ? c->finishIpc() : c->ipcAt(now);
        return sum;
    });
    smp.addColumn("ms.hitRatio",
                  [this] { return ms_->hitRatio(); });
    smp.addColumn("ms.mmCasFraction",
                  [this] { return ms_->mainMemoryCasFraction(); });
    smp.addColumn("mainMemory.casReads", [this] {
        return static_cast<double>(mm_->casReads());
    });
    smp.addColumn("mainMemory.casWrites", [this] {
        return static_cast<double>(mm_->casWrites());
    });
    smp.addColumn("mainMemory.rowHits", [this] {
        return static_cast<double>(mm_->rowHits());
    });
    smp.addColumn("mainMemory.rowMisses", [this] {
        return static_cast<double>(mm_->rowMisses());
    });

    for (const auto &t : tenants) {
        const auto &members = t.second;
        smp.addColumn("tenant." + t.first + ".reads", [this, members] {
            double sum = 0.0;
            for (std::uint32_t i : members)
                sum += static_cast<double>(
                    cores_[i]->readsIssued.value());
            return sum;
        });
        smp.addColumn("tenant." + t.first + ".writes", [this, members] {
            double sum = 0.0;
            for (std::uint32_t i : members)
                sum += static_cast<double>(
                    cores_[i]->writesIssued.value());
            return sum;
        });
        smp.addColumn("tenant." + t.first + ".ipc", [this, members] {
            double sum = 0.0;
            const Tick now = eq_.now();
            for (std::uint32_t i : members) {
                const RobCore &c = *cores_[i];
                sum += c.finished() ? c.finishIpc() : c.ipcAt(now);
            }
            return sum;
        });
    }
}

std::vector<std::pair<std::string, std::vector<std::uint32_t>>>
System::tenantViews() const
{
    std::vector<std::pair<std::string, std::vector<std::uint32_t>>> v;
    const auto &ct = cfg_.obs.coreTenants;
    if (ct.empty())
        return v;
    if (ct.size() != cfg_.numCores)
        fatal("obs: coreTenants has " + std::to_string(ct.size()) +
              " entries for " + std::to_string(cfg_.numCores) +
              " cores");
    for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
        auto it = std::find_if(v.begin(), v.end(), [&](const auto &t) {
            return t.first == ct[i];
        });
        if (it == v.end())
            v.push_back({ct[i], {i}});
        else
            it->second.push_back(i);
    }
    return v;
}

bool
System::allCoresFinished() const
{
    for (const auto &c : cores_)
        if (!c->finished())
            return false;
    return true;
}

void
System::warmup(std::uint64_t accesses_per_core)
{
    warm::pipelinedWarmup(gens_, *l3_, *ms_, accesses_per_core);
    // Warm-up must not leak into the reported predictor statistics.
    ms_->resetWarmupStats();
}

namespace
{

void
dumpDram(std::ostream &os, const std::string &name, DramSystem &mem,
         Tick elapsed)
{
    os << name << ".casReads " << mem.casReads() << '\n';
    os << name << ".casWrites " << mem.casWrites() << '\n';
    os << name << ".rowHits " << mem.rowHits() << '\n';
    os << name << ".rowMisses " << mem.rowMisses() << '\n';
    os << name << ".meanReadLatencyNs "
       << mem.meanReadLatency() / 1000.0 << '\n';
    os << name << ".busUtilization " << mem.busUtilization(elapsed)
       << '\n';
    os << name << ".deliveredGBps "
       << (elapsed ? static_cast<double>(mem.dataBytes()) /
                         (static_cast<double>(elapsed) / kPsPerSecond) /
                         1e9
                   : 0.0)
       << '\n';
}

} // namespace

void
System::dumpStats(std::ostream &os)
{
    const Tick elapsed = eq_.now();
    os << "sim.ticks " << elapsed << '\n';
    os << "sim.cycles " << elapsed / kCpuPeriodPs << '\n';
    os << "sim.events " << eq_.executed() << '\n';
    os << "sim.eventsPeakPending " << eq_.peakPending() << '\n';

    for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
        RobCore &c = *cores_[i];
        const std::string n = "core" + std::to_string(i);
        os << n << ".ipc "
           << (c.finished() ? c.finishIpc() : c.ipcAt(elapsed)) << '\n';
        os << n << ".reads " << c.readsIssued.value() << '\n';
        os << n << ".writes " << c.writesIssued.value() << '\n';
        os << n << ".meanReadLatencyNs "
           << c.readLatency.mean() / 1000.0 << '\n';
    }

    // Per-tenant aggregates (only for MixComposer-attributed runs, so
    // classic runs keep their exact historical row set).
    for (const auto &t : tenantViews()) {
        const std::string n = "tenant." + t.first;
        double ipc = 0.0;
        std::uint64_t reads = 0, writes = 0;
        for (std::uint32_t i : t.second) {
            const RobCore &c = *cores_[i];
            ipc += c.finished() ? c.finishIpc() : c.ipcAt(elapsed);
            reads += c.readsIssued.value();
            writes += c.writesIssued.value();
        }
        os << n << ".cores " << t.second.size() << '\n';
        os << n << ".ipc " << ipc << '\n';
        os << n << ".reads " << reads << '\n';
        os << n << ".writes " << writes << '\n';
    }

    os << "l3.hits " << l3_->hits.value() << '\n';
    os << "l3.misses " << l3_->misses.value() << '\n';
    os << "l3.writebacks " << l3_->writebacksToMs.value() << '\n';
    os << "l3.meanReadMissLatencyNs "
       << l3_->meanReadMissLatency() / 1000.0 << '\n';

    os << "ms.readHits " << ms_->readHits.value() << '\n';
    os << "ms.readMisses " << ms_->readMisses.value() << '\n';
    os << "ms.writeHits " << ms_->writeHits.value() << '\n';
    os << "ms.writeMisses " << ms_->writeMisses.value() << '\n';
    os << "ms.hitRatio " << ms_->hitRatio() << '\n';
    os << "ms.fills " << ms_->fills.value() << '\n';
    os << "ms.fillsBypassed " << ms_->fillsBypassed.value() << '\n';
    os << "ms.writesBypassed " << ms_->writesBypassed.value() << '\n';
    os << "ms.forcedReadMisses " << ms_->forcedReadMisses.value()
       << '\n';
    os << "ms.speculativeReads " << ms_->speculativeReads.value()
       << '\n';
    os << "ms.sectorEvictions " << ms_->sectorEvictions.value() << '\n';
    os << "ms.dirtyWritebacks " << ms_->dirtyWritebacks.value() << '\n';
    os << "ms.mmCasFraction " << ms_->mainMemoryCasFraction() << '\n';

    if (const TagCache *tc = ms_->tagCacheStats())
        os << "ms.tagCache.missRatio " << tc->missRatio() << '\n';
    for (const MemSideCache::NamedArray &a : ms_->arrays())
        dumpDram(os, a.name, *a.dram, elapsed);
    dumpDram(os, "mainMemory", *mm_, elapsed);

    if (remote_) {
        os << "remote.reads " << remote_->reads.value() << '\n';
        os << "remote.writes " << remote_->writes.value() << '\n';
        os << "remote.meanReadLatencyNs "
           << remote_->meanReadLatency() / 1000.0 << '\n';
        os << "remote.busUtilization "
           << remote_->busUtilization(elapsed) << '\n';
        os << "remote.deliveredGBps "
           << (elapsed ? static_cast<double>(remote_->dataBytes()) /
                             (static_cast<double>(elapsed) /
                              kPsPerSecond) /
                             1e9
                       : 0.0)
           << '\n';
        os << "remote.queuePeakDepth " << remote_->queuePeakDepth()
           << '\n';
    }

    if (DapPolicy *dap = dapPolicy()) {
        os << "dap.fwbApplied " << dap->fwbApplied.value() << '\n';
        os << "dap.wbApplied " << dap->wbApplied.value() << '\n';
        os << "dap.ifrmApplied " << dap->ifrmApplied.value() << '\n';
        os << "dap.sfrmApplied " << dap->sfrmApplied.value() << '\n';
        if (dap->config().remoteEnabled())
            os << "dap.remoteApplied " << dap->remoteApplied.value()
               << '\n';
        os << "dap.windowsPartitioned "
           << dap->windowsPartitioned.value() << '\n';
        os << "dap.windowsTotal " << dap->windowsTotal.value() << '\n';
    }
}

void
System::save(ckpt::Serializer &s) const
{
    // The only pending events at tick 0 are the construction-time ones
    // (staggered refresh, when enabled), which a freshly built
    // identical System reproduces exactly; everything else would carry
    // closures we cannot serialize.
    if (eq_.now() != 0 || eq_.executed() != 0)
        throw ckpt::CkptError(
            "ckpt: checkpoints must be taken at tick 0, before run()");

    s.beginSection("meta");
    s.u64(eq_.pending());
    // Trailing marker present only in 3-tier configurations (2-tier
    // layout unchanged): restore() probes for it to refuse a tier
    // mismatch up-front with a clear message.
    if (remote_)
        s.boolean(true);
    s.endSection();

    s.beginSection("gens");
    s.u64(gens_.size());
    for (const auto &g : gens_)
        g->save(s);
    s.endSection();

    s.beginSection("cores");
    s.u64(cores_.size());
    for (const auto &c : cores_)
        c->save(s);
    s.endSection();

    s.beginSection("prefetchers");
    s.u64(prefetchers_.size());
    for (const auto &p : prefetchers_)
        p->save(s);
    s.endSection();

    s.beginSection("l3");
    l3_->save(s);
    s.endSection();

    s.beginSection("ms");
    ms_->save(s);
    s.endSection();

    s.beginSection("mm");
    mm_->save(s);
    s.endSection();

    // Present only in 3-tier configurations so 2-tier checkpoints keep
    // their exact historical layout.
    if (remote_) {
        s.beginSection("remote");
        remote_->save(s);
        s.endSection();
    }

    // Last, so a fork-restore into a different policy can skip it.
    s.beginSection("policy");
    policy_->save(s);
    s.endSection();
}

void
System::restore(ckpt::Deserializer &d, bool skip_policy)
{
    if (eq_.now() != 0 || eq_.executed() != 0)
        throw ckpt::CkptError(
            "ckpt: restore requires a freshly constructed system");

    d.enterSection("meta");
    if (d.u64() != eq_.pending())
        throw ckpt::CkptError(
            "ckpt: pending-event count mismatch (the checkpoint was "
            "taken under a different DRAM refresh configuration)");
    const bool ckpt_has_remote =
        d.sectionRemaining() > 0 && d.boolean();
    if (remote_ && !ckpt_has_remote)
        throw ckpt::CkptError(
            "ckpt: checkpoint has no remote-tier section (it was "
            "taken with the remote tier disabled); it cannot seed a "
            "3-tier configuration");
    if (!remote_ && ckpt_has_remote)
        throw ckpt::CkptError(
            "ckpt: checkpoint carries a remote-tier section but this "
            "configuration has the remote tier disabled");
    d.leaveSection();

    d.enterSection("gens");
    if (d.u64() != gens_.size())
        throw ckpt::CkptError("ckpt: generator count mismatch");
    for (auto &g : gens_)
        g->restore(d);
    d.leaveSection();

    d.enterSection("cores");
    if (d.u64() != cores_.size())
        throw ckpt::CkptError("ckpt: core count mismatch");
    for (auto &c : cores_)
        c->restore(d);
    d.leaveSection();

    d.enterSection("prefetchers");
    if (d.u64() != prefetchers_.size())
        throw ckpt::CkptError("ckpt: prefetcher count mismatch");
    for (auto &p : prefetchers_)
        p->restore(d);
    d.leaveSection();

    d.enterSection("l3");
    l3_->restore(d);
    d.leaveSection();

    d.enterSection("ms");
    ms_->restore(d);
    d.leaveSection();

    d.enterSection("mm");
    mm_->restore(d);
    d.leaveSection();

    if (remote_) {
        try {
            d.enterSection("remote");
        } catch (const ckpt::CkptError &) {
            throw ckpt::CkptError(
                "ckpt: checkpoint has no remote-tier section (it was "
                "taken with the remote tier disabled); it cannot seed "
                "a 3-tier configuration");
        }
        remote_->restore(d);
        d.leaveSection();
    }

    if (skip_policy) {
        // Post-warmup policy state equals a fresh policy's (warmTouch
        // never consults the policy), so the fork keeps its own.
        if (d.skipSection() != "policy")
            throw ckpt::CkptError("ckpt: expected trailing policy section");
    } else {
        d.enterSection("policy");
        policy_->restore(d);
        d.leaveSection();
    }
}

void
System::startRun()
{
    // Sampling starts here rather than at construction so checkpoint
    // save/restore (tick 0, construction-time events only) still sees
    // the pending-event count a freshly built System reproduces.
    if (obs_)
        obs_->startSampling(eq_);
    ms_->startWindows(cfg_.windowCycles);
    for (auto &c : cores_)
        c->start();
}

void
System::finishRun()
{
    ms_->stopWindows();
    if (obs_)
        obs_->sampler().stop();
}

void
System::run(Tick max_ticks)
{
    startRun();
    eq_.runUntil([this] { return allCoresFinished(); }, max_ticks);
    finishRun();
}

void
System::runDetailedUntilRetired(std::uint64_t target_per_core,
                                Tick max_ticks)
{
    eq_.runUntil(
        [this, target_per_core] {
            for (const auto &c : cores_)
                if (c->retiredInstructions() < target_per_core)
                    return false;
            return true;
        },
        max_ticks);
}

System::FastForwardPull
System::fastForward(std::uint64_t instr_per_core)
{
    FastForwardPull out;
    out.instrPerCore.assign(cfg_.numCores, 0);
    TraceRequest req;
    for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
        std::uint64_t done = 0;
        while (done < instr_per_core && gens_[i]->next(req)) {
            // Each record occupies its gap plus the memory op itself,
            // matching RobCore's fetch accounting.
            done += req.instrGap + 1;
            if (req.isWrite)
                ++out.writes;
            else
                ++out.reads;
            const L3Cache::WarmOutcome o =
                l3_->warmTouch(req.addr, req.isWrite);
            const bool ms_hit = L3Cache::forwardWarm(*ms_, req.addr, o);
            if (o.l3Hit)
                ++out.l3Hits;
            else
                ++out.l3Misses;
            if (o.msRead) {
                ++out.msReads;
                if (ms_hit)
                    ++out.msHits;
            }
            if (o.msWriteback)
                ++out.msWritebacks;
        }
        out.instrPerCore[i] = done;
        out.instr += done;
    }
    return out;
}

System::SourceSnapshot
System::sourceSnapshot() const
{
    SourceSnapshot out;
    for (const auto &c : cores_)
        out.retired += c->retiredInstructions();
    for (const MemSideCache::NamedArray &a : ms_->arrays()) {
        out.msReads += a.dram->casReads();
        out.msWrites += a.dram->casWrites();
    }
    out.mmReads = mm_->casReads();
    out.mmWrites = mm_->casWrites();
    if (remote_) {
        out.remReads = remote_->reads.value();
        out.remWrites = remote_->writes.value();
    }
    return out;
}

void
System::creditFastForward(const fastfwd::FastForwardChunk &ff)
{
    ms_->creditFastForward(ff.msReads, ff.msWrites);
    mm_->creditFastForward(ff.mmReads, ff.mmWrites);
    if (remote_)
        remote_->creditFastForward(ff.remReads, ff.remWrites);
}

void
System::warmPolicyWindow(const WindowCounters &modeled)
{
    ms_->warmPolicyWindow(modeled);
}

} // namespace dapsim
