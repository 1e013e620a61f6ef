#include "workloads.hh"

#include "common/logging.hh"
#include "workloads/tenant_mix.hh"

namespace hostbench
{

using namespace janus;

namespace
{

constexpr unsigned benchCores = 8;
constexpr unsigned closedTxnsPerCore = 1500;
constexpr unsigned openRequestsPerCore = 60000;

/**
 * Closed-loop saturation rate of the tenant mix (8 cores, Janus
 * write path without PRE_*, 60,000 transactions per core, seed 1):
 * requests per core over the makespan, as calibrateTenantMixRate()
 * measures it (`hostbench --calibrate`). Measured once and fixed
 * here, so the offered load never depends on the code under test.
 */
constexpr double saturationReqPerUsPerCore = 2.108534;

/** Offered load as a factor of the saturation rate: readers stay
 *  comfortably below it, the writer classes run past it. */
constexpr double readerLoad = 0.7;
constexpr double writerLoad = 1.2;

ExperimentConfig
closedLoop(const std::string &workload, std::uint64_t seed)
{
    ExperimentConfig config;
    config.workloadName = workload;
    config.sys.cores = benchCores;
    config.sys.mode = WritePathMode::Janus;
    config.instr = Instrumentation::Manual;
    config.workload.txnsPerCore = closedTxnsPerCore;
    config.workload.seed = seed;
    return config;
}

/** The tenant mix driven closed-loop, without PRE_* calls. */
ExperimentConfig
tenantMixClosed(std::uint64_t seed)
{
    ExperimentConfig config = closedLoop("tenant_mix", seed);
    config.instr = Instrumentation::None;
    config.workload.txnsPerCore = openRequestsPerCore;
    return config;
}

/**
 * The shaped QoS policy of bench/interference, derived from the
 * fixed saturation rate: each writer class is capped at about 1.1x
 * the line rate it offers at saturation (free below the knee,
 * binding above it), deadlines shed what shaping refuses, and the
 * admission bound and watchdog handle queue pressure.
 */
QosConfig
shapedQos()
{
    QosConfig qos = tenantMixQos();
    const double class_cores = benchCores / 4.0;
    const double sat_line_interval =
        static_cast<double>(ticks::us) /
        (saturationReqPerUsPerCore * class_cores);
    QosTenant &flusher = qos.tenants[2]; // pageLines lines per request
    flusher.shapeIntervalTicks = static_cast<Tick>(
        sat_line_interval / (TenantMixWorkload::pageLines * 1.1));
    flusher.shapeBurstLines = 4 * TenantMixWorkload::pageLines;
    flusher.deadlineTicks = 100 * ticks::us;
    QosTenant &logger = qos.tenants[3]; // one line per request
    logger.shapeIntervalTicks =
        static_cast<Tick>(sat_line_interval / 1.1);
    logger.shapeBurstLines = 8;
    logger.deadlineTicks = 50 * ticks::us;
    qos.admissionQueueEntries = 48;
    qos.retryBackoffTicks = 2 * ticks::us;
    qos.maxRetries = 6;
    qos.watchdogEnterPct = 90;
    qos.watchdogExitPct = 50;
    qos.watchdogDwellTicks = 20 * ticks::us;
    return qos;
}

ExperimentConfig
tenantMixOpenLoop(std::uint64_t seed)
{
    ExperimentConfig config = tenantMixClosed(seed);
    OpenLoopConfig &ol = config.openLoop;
    ol.enabled = true;
    ol.process = ArrivalProcess::Poisson;
    ol.ratePerUsPerCore = saturationReqPerUsPerCore;
    ol.requestsPerCore = openRequestsPerCore;
    ol.rateFactorOfCore.resize(benchCores);
    for (unsigned c = 0; c < benchCores; ++c) {
        const TenantRole role = tenantMixRole(c);
        const bool reader = role == TenantRole::RandomReader ||
                            role == TenantRole::SequentialReader;
        ol.rateFactorOfCore[c] = reader ? readerLoad : writerLoad;
    }
    config.sys.qos = shapedQos();
    return config;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "tpcc_janus_1ch", "rbtree_janus_4ch", "tenant_mix_openloop"};
    return names;
}

std::optional<ExperimentConfig>
workloadConfig(const std::string &name, std::uint64_t seed)
{
    if (name == "tpcc_janus_1ch")
        return closedLoop("tpcc", seed);
    if (name == "rbtree_janus_4ch") {
        ExperimentConfig config = closedLoop("rb_tree", seed);
        config.sys.shards = 4;
        config.sys.shardPolicy = ShardRouterPolicy::RegionAffine;
        // One scheduler thread: at two, the host time of a process
        // swings with the load on a second shared vCPU, too far to be
        // steady. The traced run times the two-thread run per layer.
        config.sys.shardThreads = 1;
        return config;
    }
    if (name == "tenant_mix_openloop")
        return tenantMixOpenLoop(seed);
    return std::nullopt;
}

double
calibrateTenantMixRate(std::uint64_t seed)
{
    const ExperimentResult r = runExperiment(tenantMixClosed(seed));
    janus_assert(r.makespan > 0, "calibration run was empty");
    return openRequestsPerCore / (ticks::toNsF(r.makespan) / 1e3);
}

} // namespace hostbench
