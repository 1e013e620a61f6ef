/**
 * @file
 * The benchmark's three workloads. Each is a fixed ExperimentConfig
 * whose only input is the seed; README.md records why each one was
 * chosen and which layers it stresses.
 */

#ifndef HOSTBENCH_WORKLOADS_HH
#define HOSTBENCH_WORKLOADS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace hostbench
{

/** Workload names, in report order. */
const std::vector<std::string> &workloadNames();

/** The named workload at @p seed, or nullopt for an unknown name. */
std::optional<janus::ExperimentConfig>
workloadConfig(const std::string &name, std::uint64_t seed);

/**
 * Closed-loop saturation rate of the tenant mix, in requests per
 * microsecond per core: the calibration step of bench/interference,
 * on the open-loop workload's own shape. It is how the open-loop
 * constants in workloads.cc were derived; the benchmark itself never
 * calls it.
 */
double calibrateTenantMixRate(std::uint64_t seed);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_HH
