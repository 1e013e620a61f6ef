/**
 * @file
 * Output checks. Each returns the failures it found as messages (an
 * empty list means the check passed); the benchmark reports a run
 * with any failure as incorrect and exits non-zero.
 */

#ifndef HOSTBENCH_CHECKS_HH
#define HOSTBENCH_CHECKS_HH

#include <string>
#include <vector>

#include "harness/openloop.hh"
#include "mem/sparse_memory.hh"
#include "sim/critpath.hh"
#include "workloads/workload.hh"

namespace hostbench
{

struct ChannelCapture;
struct Fingerprint;
struct ReplayResult;

using Failures = std::vector<std::string>;

/** The workload's own validate() on every core. */
Failures checkWorkload(const janus::Workload &workload,
                       const janus::SparseMemory &mem, unsigned cores);

/** Open-loop books: offered == completed + shed + rejected for every
 *  tenant. */
Failures checkBooks(const std::vector<janus::OpenLoopTenantStats> &tenants);

/** Critical path: the edges sum to total_ns and share_sum == 1. */
Failures checkCritPath(const janus::CritPathSummary &summary);

/** The replayed Merkle root and storage hash equal the live ones. */
Failures checkReplay(const ChannelCapture &live,
                     const ReplayResult &replayed, unsigned channel);

/** The fingerprint of a variant run equals the reference one. */
Failures checkSameSimulation(const Fingerprint &reference,
                             const Fingerprint &variant,
                             const std::string &variant_name);

} // namespace hostbench

#endif // HOSTBENCH_CHECKS_HH
