/**
 * @file
 * Tests of the reference-speed reading of host times.
 */

#include <gtest/gtest.h>

#include "speed.hh"

namespace hostbench
{
namespace
{

constexpr double ref = SpeedProbe::referenceNs;

TEST(HostbenchSpeed, ReferenceSpeedLeavesTimeAsMeasured)
{
    EXPECT_DOUBLE_EQ(atReferenceSpeed(1000, ref, ref), 1000);
}

TEST(HostbenchSpeed, SlowerHostTimeIsScaledDown)
{
    // A host that runs the probe at half speed ran the workload at
    // half speed too: its time counts half.
    EXPECT_DOUBLE_EQ(atReferenceSpeed(1000, 2 * ref, 2 * ref), 500);
    EXPECT_DOUBLE_EQ(atReferenceSpeed(1000, ref / 2, ref / 2), 2000);
}

TEST(HostbenchSpeed, UsesTheMeanOfThePassesAround)
{
    EXPECT_DOUBLE_EQ(atReferenceSpeed(1000, ref, 3 * ref), 500);
}

TEST(HostbenchSpeed, ProbePassTakesTime)
{
    SpeedProbe probe;
    EXPECT_GT(probe.passNs(), 0);
}

} // namespace
} // namespace hostbench
