#include "pipeline.hh"

#include <algorithm>
#include <memory>

#include "checks.hh"
#include "common/logging.hh"
#include "harness/openloop.hh"
#include "harness/system.hh"
#include "txn/undo_log.hh"
#include "workloads/workload.hh"

namespace hostbench
{

using namespace janus;

int
SpanLog::open(std::string name, std::uint64_t run, int parent)
{
    const std::int64_t now = nowNs();
    spans_.push_back(Span{std::move(name), run, parent, now, now});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::close(int index)
{
    spans_.at(index).endNs = nowNs();
}

double
SpanLog::durationNs(std::string_view name, std::uint64_t run) const
{
    for (const Span &s : spans_)
        if (s.run == run && s.name == name)
            return static_cast<double>(s.endNs - s.startNs);
    return 0;
}

void
SpanLog::writeJson(std::ostream &os) const
{
    os << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << s.name
           << "\", \"run\": " << s.run << ", \"parent\": " << s.parent
           << ", \"start_ns\": " << s.startNs
           << ", \"end_ns\": " << s.endNs << "}";
    }
    os << "\n]}\n";
}

std::int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::string
Fingerprint::json() const
{
    std::string roots;
    for (const Sha1Digest &root : merkleRoots)
        roots += (roots.empty() ? "\"" : ", \"") + root.toHex() + "\"";
    return strprintf("{\"makespan_ticks\": %llu, \"persists\": %llu, "
                     "\"events\": %llu, \"instructions\": %llu, "
                     "\"merkle_roots\": [%s], \"mem_hash\": "
                     "\"%016llx\"}",
                     static_cast<unsigned long long>(makespan),
                     static_cast<unsigned long long>(persists),
                     static_cast<unsigned long long>(events),
                     static_cast<unsigned long long>(instructions),
                     roots.c_str(),
                     static_cast<unsigned long long>(memHash));
}

namespace
{

/** Mean simulated ns per persist of one critical-path edge. */
double
edgeNsPerPersist(const CritPathSummary &cp, CritEdge edge)
{
    return cp.persists ? ticks::toNsF(cp.ticksOf(edge)) /
                             static_cast<double>(cp.persists)
                       : 0.0;
}

double
rate(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

/** Per-layer counters, read from public accessors after the run. */
std::map<std::string, double>
readLayers(NvmSystem &system, const ExperimentResult &r)
{
    std::map<std::string, double> m;
    const double persists = static_cast<double>(r.persists);

    std::uint64_t loads = 0, stores = 0;
    std::uint64_t l1_hits = 0, l1_all = 0, l2_hits = 0, l2_all = 0;
    for (unsigned c = 0; c < system.numCores(); ++c) {
        TimingCore &core = system.core(c);
        loads += core.loads();
        stores += core.stores();
        l1_hits += core.l1().hits();
        l1_all += core.l1().hits() + core.l1().misses();
        l2_hits += core.l2().hits();
        l2_all += core.l2().hits() + core.l2().misses();
    }
    m["cpu.instructions"] = static_cast<double>(r.instructions);
    m["cpu.transactions"] = static_cast<double>(r.transactions);
    m["cpu.persists"] = persists;
    m["cpu.loads"] = static_cast<double>(loads);
    m["cpu.stores"] = static_cast<double>(stores);
    m["cpu.pre_requests"] = static_cast<double>(r.preRequests);
    m["cpu.fence_stall_sim_ns"] =
        persists > 0 ? ticks::toNsF(r.fenceStallTicks) / persists : 0;
    m["cache.l1_hit_rate"] = rate(l1_hits, l1_all);
    m["cache.l2_hit_rate"] = rate(l2_hits, l2_all);
    m["mem.pages"] = static_cast<double>(system.mem().pageCount());
    m["sim.events"] = static_cast<double>(r.eventsExecuted);

    std::uint64_t ctr_hits = 0, ctr_all = 0, subops = 0, piped = 0;
    std::uint64_t rehashes = 0, meta_atomic = 0, watchdog = 0;
    std::uint64_t accepted = 0, reads = 0;
    double stall_sum = 0;
    std::uint64_t stall_count = 0;
    std::uint64_t irb_hits = 0, irb_misses = 0, chunks = 0, covered = 0;
    std::uint64_t consumed = 0, dropped = 0, mismatches = 0;
    for (unsigned s = 0; s < system.numShards(); ++s) {
        MemoryController &mc = system.mc(s);
        ctr_hits += mc.counterCache().hits();
        ctr_all += mc.counterCache().hits() + mc.counterCache().misses();
        subops += mc.engine().subOpsExecuted();
        piped += mc.engine().pipelinedSubOps();
        rehashes += mc.backend().merkleTree().interiorRehashes();
        meta_atomic += mc.metaAtomicWrites();
        watchdog += mc.qos().watchdogEnters();
        accepted += mc.device().writesAccepted();
        reads += mc.device().readsIssued();
        stall_sum += mc.device().acceptStall().sum();
        stall_count += mc.device().acceptStall().count();
        if (mc.mode() != WritePathMode::Janus)
            continue;
        const JanusFrontend &fe = mc.frontend();
        irb_hits += fe.irbHits();
        irb_misses += fe.irbMisses();
        chunks += fe.chunksPreExecuted();
        covered += fe.preexecCoveredSubOps();
        consumed += fe.consumedWithEntry();
        dropped += fe.droppedOpQueue() + fe.droppedIrb() +
                   fe.droppedRequestQueue() + fe.agedOut() +
                   fe.droppedDisabled();
        mismatches += fe.dataMismatches();
    }
    const CritPathSummary &cp = r.critPath;
    m["cache.counter_hit_rate"] = rate(ctr_hits, ctr_all);

    m["bmo.dup_ratio"] = r.measuredDupRatio;
    m["bmo.merkle_interior_rehashes"] = static_cast<double>(rehashes);
    m["bmo.tree_cache_hit_rate"] = r.treeCacheHitRate;
    m["bmo.engine_subops"] = static_cast<double>(subops);
    m["bmo.engine_pipelined_subops"] = static_cast<double>(piped);
    m["bmo.exec_aes_sim_ns"] = edgeNsPerPersist(cp, CritEdge::ExecAes);
    m["bmo.exec_hash_sim_ns"] = edgeNsPerPersist(cp, CritEdge::ExecHash);
    m["bmo.exec_dedup_sim_ns"] =
        edgeNsPerPersist(cp, CritEdge::ExecDedup);
    m["bmo.unit_busy_sim_ns"] = edgeNsPerPersist(cp, CritEdge::UnitBusy);
    m["bmo.tree_pipe_sim_ns"] = edgeNsPerPersist(cp, CritEdge::TreePipe);

    m["janus.irb_hits"] = static_cast<double>(irb_hits);
    m["janus.irb_misses"] = static_cast<double>(irb_misses);
    m["janus.chunks_preexecuted"] = static_cast<double>(chunks);
    m["janus.covered_subops"] = static_cast<double>(covered);
    m["janus.fully_preexecuted_frac"] = r.fullyPreExecutedFrac;
    m["janus.preexec_useful_frac"] = rate(consumed, chunks);
    m["janus.dropped"] = static_cast<double>(dropped);
    m["janus.data_mismatches"] = static_cast<double>(mismatches);
    m["janus.irb_lookup_sim_ns"] =
        edgeNsPerPersist(cp, CritEdge::IrbLookup);
    m["janus.pre_exec_wait_sim_ns"] =
        edgeNsPerPersist(cp, CritEdge::PreExecWait);

    m["memctrl.writes"] = static_cast<double>(system.mcWrites());
    m["memctrl.meta_atomic_writes"] = static_cast<double>(meta_atomic);
    m["memctrl.watchdog_enters"] = static_cast<double>(watchdog);
    m["memctrl.order_fifo_sim_ns"] =
        edgeNsPerPersist(cp, CritEdge::OrderFifo);
    m["memctrl.meta_cowrite_sim_ns"] =
        edgeNsPerPersist(cp, CritEdge::MetaCowrite);
    m["memctrl.qos_throttle_sim_ns"] =
        edgeNsPerPersist(cp, CritEdge::QosThrottle);

    m["nvm.writes_accepted"] = static_cast<double>(accepted);
    m["nvm.reads_issued"] = static_cast<double>(reads);
    m["nvm.avg_accept_stall_ns"] =
        stall_count ? stall_sum / static_cast<double>(stall_count) : 0;
    m["nvm.wq_full_sim_ns"] = edgeNsPerPersist(cp, CritEdge::WqFull);

    m["harness.shard_rounds"] = static_cast<double>(r.schedulerRounds);
    m["harness.cross_shard_msgs"] =
        static_cast<double>(r.crossShardMessages);
    std::uint64_t offered = 0, completed = 0, shed = 0, rejected = 0;
    std::uint64_t retries = 0, max_backlog = 0;
    for (const OpenLoopTenantStats &t : r.tenants) {
        offered += t.offered;
        completed += t.completed;
        shed += t.shed;
        rejected += t.rejected;
        retries += t.retries;
        max_backlog = std::max(max_backlog, t.maxBacklog);
    }
    m["harness.openloop_offered"] = static_cast<double>(offered);
    m["harness.openloop_completed"] = static_cast<double>(completed);
    m["harness.openloop_shed"] = static_cast<double>(shed);
    m["harness.openloop_rejected"] = static_cast<double>(rejected);
    m["harness.openloop_retries"] = static_cast<double>(retries);
    m["harness.openloop_max_backlog"] = static_cast<double>(max_backlog);
    return m;
}

} // namespace

RunOutcome
runWorkload(const ExperimentConfig &requested, const RunOptions &options,
            SpanLog &spans, std::uint64_t run)
{
    ExperimentConfig config = requested;
    config.sys.profilePersist = options.profilePersist;
    if (options.shardThreads)
        config.sys.shardThreads = *options.shardThreads;
    const unsigned cores = config.sys.cores;
    janus_assert(config.instr != Instrumentation::Auto,
                 "hostbench runs no compiler pass");

    RunOutcome out;
    ExperimentResult &result = out.result;
    const int root = spans.open("workload.run", run, -1);

    int span = spans.open("workloads.build", run, root);
    std::unique_ptr<Workload> workload =
        makeWorkload(config.workloadName, config.workload);
    Module module;
    buildTxnLibrary(module);
    workload->buildKernels(module,
                           config.instr == Instrumentation::Manual);
    spans.close(span);

    span = spans.open("ir.verify", run, root);
    verify(module);
    spans.close(span);

    span = spans.open("harness.assemble", run, root);
    NvmSystem system(config.sys, module);
    spans.close(span);

    const int setup = spans.open("workloads.setup", run, root);
    std::unique_ptr<OpenLoopDriver> driver;
    if (config.openLoop.enabled)
        driver = std::make_unique<OpenLoopDriver>(
            config.openLoop, config.sys.qos, cores,
            config.workload.seed);
    std::vector<TxnSource> sources;
    for (unsigned c = 0; c < cores; ++c) {
        workload->setupCore(c, system);
        if (driver) {
            driver->attach(c, &system.mc(system.shardOfCore(c)),
                           workload->source(c, system));
            system.core(c).setOpenLoopFeed(driver.get());
            sources.emplace_back(); // feed path; never invoked
        } else {
            sources.push_back(workload->source(c, system));
        }
    }
    spans.close(setup);
    out.setupNs = static_cast<double>(spans.spans()[setup].endNs -
                                      spans.spans()[root].startNs);
    if (options.setupOnly) {
        spans.close(root);
        return out;
    }

    if (options.journal)
        for (unsigned s = 0; s < system.numShards(); ++s)
            system.mc(s).enableJournal();

    const int loop = spans.open("harness.run", run, root);
    result.makespan = system.run(std::move(sources));
    spans.close(loop);

    // tenant_mix is shed-tolerant by construction, so unlike
    // runExperiment this validates the open-loop run too.
    span = spans.open("workloads.validate", run, root);
    out.failures = checkWorkload(*workload, system.mem(), cores);
    spans.close(span);

    // The harvest runExperiment does, field for field.
    span = spans.open("harness.harvest", run, root);
    result.avgWriteLatencyNs = system.avgWriteLatencyNs();
    const PersistBreakdown bd = system.mergedBreakdown();
    result.stageBmoNs = bd.bmoNs.mean();
    result.stageQueueNs = bd.queueNs.mean();
    result.stageOrderNs = bd.orderNs.mean();
    result.persistP50Ns = bd.totalHistNs.quantile(0.50);
    result.persistP99Ns = bd.totalHistNs.quantile(0.99);
    result.persistP999Ns = bd.totalHistNs.quantile(0.999);
    out.persistSamples = bd.totalHistNs.count();
    result.measuredDupRatio = system.dupRatio();
    result.treeCacheHits = system.treeCacheHits();
    result.treeCacheMisses = system.treeCacheMisses();
    result.treeCacheHitRate = system.treeCacheHitRate();
    result.merkleCoalescedLevels = system.merkleCoalescedLevels();
    result.merkleSavedRehashes = system.merkleSavedRehashes();
    if (config.sys.mode == WritePathMode::Janus)
        result.fullyPreExecutedFrac =
            rate(system.consumedFullyPreExecuted(), system.mcWrites());
    for (unsigned c = 0; c < cores; ++c) {
        TimingCore &core = system.core(c);
        result.instructions += core.instructions();
        result.transactions += core.transactions();
        result.persists += core.persists();
        result.preRequests += core.preRequests();
        result.fenceStallTicks += core.fenceStallTicks();
    }
    result.eventsExecuted = system.eventsExecuted();
    result.schedulerRounds = system.schedulerRounds();
    result.crossShardMessages = system.crossShardMessages();
    result.resilience = system.mergedResilience();
    result.critPath = system.mergedCritPath();
    if (driver)
        result.tenants = driver->harvest();
    spans.close(span);
    spans.close(root);

    const std::vector<Span> &t = spans.spans();
    out.runNs = static_cast<double>(t[loop].endNs - t[loop].startNs);
    out.wallNs = static_cast<double>(t[root].endNs - t[root].startNs);

    // --- output checks --------------------------------------------
    Failures more = checkBooks(result.tenants);
    if (options.profilePersist) {
        Failures cp = checkCritPath(result.critPath);
        more.insert(more.end(), cp.begin(), cp.end());
    }
    out.failures.insert(out.failures.end(), more.begin(), more.end());

    // --- end-to-end simulated figures -----------------------------
    if (driver) {
        for (const OpenLoopTenantStats &t : result.tenants) {
            out.offered += t.offered;
            out.completed += t.completed;
            if (t.priority == 0 && t.p999Ns >= out.readerP999Ns) {
                out.readerP999Ns = t.p999Ns;
                out.readerSamples = t.completed;
            }
        }
    } else {
        out.readerP999Ns = result.persistP999Ns;
        out.readerSamples = out.persistSamples;
        out.offered = out.completed = result.transactions;
    }

    // --- fingerprint, per-layer counters, journals ----------------
    Fingerprint &fp = out.fingerprint;
    fp.makespan = result.makespan;
    fp.persists = result.persists;
    fp.events = result.eventsExecuted;
    fp.instructions = result.instructions;
    for (unsigned s = 0; s < system.numShards(); ++s)
        fp.merkleRoots.push_back(system.mc(s).backend().merkleRoot());
    fp.memHash = system.mem().contentHash();

    out.layers = readLayers(system, result);

    if (options.journal) {
        for (unsigned s = 0; s < system.numShards(); ++s) {
            MemoryController &mc = system.mc(s);
            out.channels.push_back(ChannelCapture{
                mc.backend().config(), mc.journal(),
                mc.backend().merkleRoot(),
                mc.backend().storageContentHash()});
        }
    }
    return out;
}

} // namespace hostbench
