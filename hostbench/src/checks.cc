#include "checks.hh"

#include <cmath>

#include "common/logging.hh"
#include "pipeline.hh"
#include "replay.hh"

namespace hostbench
{

using namespace janus;

namespace
{

unsigned long long
ull(std::uint64_t v)
{
    return static_cast<unsigned long long>(v);
}

} // namespace

Failures
checkWorkload(const Workload &workload, const SparseMemory &mem,
              unsigned cores)
{
    Failures failures;
    // validate() panics on a violated invariant; capture the panic so
    // the benchmark can report it instead of aborting.
    ScopedPanicCapture capture;
    for (unsigned c = 0; c < cores; ++c) {
        try {
            workload.validate(mem, c);
        } catch (const PanicError &e) {
            failures.push_back(
                strprintf("validate core %u: %s", c, e.what()));
        }
    }
    return failures;
}

Failures
checkBooks(const std::vector<OpenLoopTenantStats> &tenants)
{
    Failures failures;
    for (const OpenLoopTenantStats &t : tenants)
        if (t.offered != t.completed + t.shed + t.rejected)
            failures.push_back(strprintf(
                "books of tenant %s: offered %llu != completed %llu + "
                "shed %llu + rejected %llu",
                t.name.c_str(), ull(t.offered), ull(t.completed),
                ull(t.shed), ull(t.rejected)));
    return failures;
}

Failures
checkCritPath(const CritPathSummary &summary)
{
    Failures failures;
    std::uint64_t edge_sum = 0;
    for (std::uint64_t ticks : summary.edgeTicks)
        edge_sum += ticks;
    if (edge_sum != summary.totalTicks)
        failures.push_back(strprintf(
            "critical path: edges sum to %llu ticks, total is %llu",
            ull(edge_sum), ull(summary.totalTicks)));
    if (summary.persists > 0 &&
        std::fabs(summary.shareSum() - 1.0) > 1e-9)
        failures.push_back(strprintf(
            "critical path: share_sum %.12f != 1", summary.shareSum()));
    return failures;
}

Failures
checkReplay(const ChannelCapture &live, const ReplayResult &replayed,
            unsigned channel)
{
    Failures failures;
    if (!(replayed.root == live.liveRoot))
        failures.push_back(strprintf(
            "replay of channel %u: Merkle root differs from the live one",
            channel));
    if (replayed.storageHash != live.liveStorageHash)
        failures.push_back(strprintf(
            "replay of channel %u: storage hash %016llx, live %016llx",
            channel, ull(replayed.storageHash),
            ull(live.liveStorageHash)));
    return failures;
}

Failures
checkSameSimulation(const Fingerprint &reference,
                    const Fingerprint &variant,
                    const std::string &variant_name)
{
    if (variant == reference)
        return {};
    return {"fingerprint changed with " + variant_name + ": " +
            variant.json() + " vs " + reference.json()};
}

} // namespace hostbench
