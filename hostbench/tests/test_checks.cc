/**
 * @file
 * Tests of the benchmark's output checks: each one passes on a
 * correct run and reports a failure on a broken input.
 */

#include <gtest/gtest.h>

#include "checks.hh"
#include "common/logging.hh"
#include "harness/system.hh"
#include "pipeline.hh"
#include "replay.hh"
#include "txn/undo_log.hh"
#include "workloads/tenant_mix.hh"

namespace hostbench
{
namespace
{

using namespace janus;

/** A small closed-loop run of @p workload. */
ExperimentConfig
smallConfig(const std::string &workload, unsigned shards = 1)
{
    ExperimentConfig config;
    config.workloadName = workload;
    config.sys.cores = 4;
    config.sys.mode = WritePathMode::Janus;
    config.sys.shards = shards;
    config.sys.shardPolicy = ShardRouterPolicy::RegionAffine;
    config.instr = Instrumentation::Manual;
    config.workload.txnsPerCore = 40;
    config.workload.seed = 7;
    return config;
}

TEST(HostbenchChecks, CorrectRunPassesEveryCheck)
{
    SpanLog spans;
    const RunOutcome out =
        runWorkload(smallConfig("tpcc"), {.journal = true}, spans, 0);
    EXPECT_TRUE(out.failures.empty());
    EXPECT_GT(out.result.persists, 0u);
    EXPECT_EQ(out.offered, out.completed);
    ASSERT_EQ(out.channels.size(), 1u);
    const ChannelCapture &cap = out.channels[0];
    const ReplayResult r =
        replayJournal(replayConfig(cap.bmo, ReplayMix::All), cap.journal);
    EXPECT_EQ(r.lines, cap.journal.size());
    EXPECT_TRUE(checkReplay(cap, r, 0).empty());
}

TEST(HostbenchChecks, WorkloadValidateFailureIsReported)
{
    setQuiet(true);
    WorkloadParams params;
    params.txnsPerCore = 5;
    std::unique_ptr<Workload> workload = makeWorkload("tpcc", params);
    Module module;
    buildTxnLibrary(module);
    workload->buildKernels(module, true);
    verify(module);
    SystemConfig sys;
    NvmSystem system(sys, module);
    workload->setupCore(0, system);
    // The workload now expects an order the machine never wrote.
    std::string fn;
    std::vector<std::uint64_t> args;
    ASSERT_TRUE(workload->source(0, system)(fn, args));
    const Failures failures = checkWorkload(*workload, system.mem(), 1);
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_NE(failures[0].find("validate core 0"), std::string::npos);
}

TEST(HostbenchChecks, UnbalancedBooksFail)
{
    OpenLoopTenantStats t;
    t.name = "rand_reader";
    t.offered = 10;
    t.completed = 7;
    t.shed = 2;
    t.rejected = 1;
    EXPECT_TRUE(checkBooks({t}).empty());
    t.shed = 1;
    EXPECT_EQ(checkBooks({t}).size(), 1u);
}

TEST(HostbenchChecks, CritPathEdgesMustSumToTotal)
{
    CritPathSummary cp;
    cp.persists = 2;
    cp.edgeTicks[static_cast<std::size_t>(CritEdge::ExecAes)] = 300;
    cp.edgeTicks[static_cast<std::size_t>(CritEdge::OrderFifo)] = 700;
    cp.totalTicks = 1000;
    EXPECT_TRUE(checkCritPath(cp).empty());
    cp.totalTicks = 1001;
    EXPECT_FALSE(checkCritPath(cp).empty());
}

TEST(HostbenchChecks, ReplayMismatchFails)
{
    ChannelCapture cap;
    cap.journal.push_back(
        JournalEntry{1000, 4096, CacheLine::filled(0x5a)});
    const ReplayResult good = replayJournal(cap.bmo, cap.journal);
    cap.liveRoot = good.root;
    cap.liveStorageHash = good.storageHash;
    EXPECT_TRUE(checkReplay(cap, good, 0).empty());

    ReplayResult bad = good;
    bad.storageHash ^= 1;
    bad.root.bytes[0] ^= 1;
    EXPECT_EQ(checkReplay(cap, bad, 0).size(), 2u);
}

TEST(HostbenchChecks, FingerprintIgnoresObserversAndThreads)
{
    const ExperimentConfig config = smallConfig("rb_tree", 4);
    SpanLog spans;
    const RunOutcome plain = runWorkload(config, {}, spans, 0);
    ASSERT_TRUE(plain.failures.empty());
    EXPECT_EQ(plain.fingerprint.merkleRoots.size(), 4u);
    const RunOutcome journal =
        runWorkload(config, {.journal = true}, spans, 1);
    const RunOutcome knockout =
        runWorkload(config, {.profilePersist = false}, spans, 2);
    const RunOutcome serial =
        runWorkload(config, {.shardThreads = 1}, spans, 3);
    EXPECT_TRUE(checkSameSimulation(plain.fingerprint,
                                    journal.fingerprint, "journal")
                    .empty());
    EXPECT_TRUE(checkSameSimulation(plain.fingerprint,
                                    knockout.fingerprint, "knockout")
                    .empty());
    EXPECT_TRUE(checkSameSimulation(plain.fingerprint, serial.fingerprint,
                                    "1 thread")
                    .empty());

    Fingerprint changed = plain.fingerprint;
    ++changed.events;
    EXPECT_EQ(checkSameSimulation(plain.fingerprint, changed, "edit")
                  .size(),
              1u);
}

TEST(HostbenchChecks, OpenLoopRunKeepsItsBooks)
{
    ExperimentConfig config = smallConfig("tenant_mix");
    config.instr = Instrumentation::None;
    config.sys.qos = tenantMixQos();
    config.openLoop.enabled = true;
    config.openLoop.ratePerUsPerCore = 0.5;
    config.openLoop.requestsPerCore = 40;
    SpanLog spans;
    const RunOutcome out = runWorkload(config, {}, spans, 0);
    EXPECT_TRUE(out.failures.empty());
    EXPECT_EQ(out.offered, 4u * 40u);
    EXPECT_GT(out.readerSamples, 0u);
    EXPECT_TRUE(checkBooks(out.result.tenants).empty());
}

TEST(HostbenchChecks, SpansNestUnderTheRunRoot)
{
    SpanLog spans;
    runWorkload(smallConfig("tpcc"), {}, spans, 5);
    ASSERT_EQ(spans.spans().size(), 8u);
    EXPECT_EQ(spans.spans()[0].name, "workload.run");
    EXPECT_EQ(spans.spans()[0].parent, -1);
    for (std::size_t i = 1; i < spans.spans().size(); ++i) {
        const Span &s = spans.spans()[i];
        EXPECT_EQ(s.parent, 0);
        EXPECT_EQ(s.run, 5u);
        EXPECT_GE(s.startNs, spans.spans()[i - 1].startNs);
        EXPECT_LE(s.endNs, spans.spans()[0].endNs);
    }
    EXPECT_GT(spans.durationNs("harness.run", 5), 0);
}

TEST(HostbenchChecks, SetupOnlyPassStopsBeforeTheLoop)
{
    SpanLog spans;
    const RunOutcome out = runWorkload(smallConfig("tpcc"),
                                       {.setupOnly = true}, spans, 0);
    EXPECT_GT(out.setupNs, 0);
    EXPECT_EQ(out.runNs, 0);
    EXPECT_EQ(out.result.makespan, 0u);
    EXPECT_EQ(spans.spans().size(), 5u); // root + 4 set-up steps
    EXPECT_EQ(spans.durationNs("harness.run", 0), 0);
}

} // namespace
} // namespace hostbench
