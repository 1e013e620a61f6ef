/**
 * @file
 * The machine's speed, read from a fixed piece of host work that
 * shares no code with the simulator. On a shared VM the same code
 * runs tens of percent slower for seconds to minutes at a time, as
 * other tenants load the host's caches and memory, and no run length
 * averages that away. The benchmark times one probe pass between
 * repetitions and reads each repetition's host time at a fixed
 * reference speed. A change to the simulator cannot move the probe,
 * so it cannot move the reference either.
 */

#ifndef HOSTBENCH_SPEED_HH
#define HOSTBENCH_SPEED_HH

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace hostbench
{

class SpeedProbe
{
  public:
    /**
     * Host ns of one pass at the reference speed: about the median
     * pass on the 4-vCPU VM the benchmark was sized on (456 passes,
     * quartiles 67 and 89 ms).
     */
    static constexpr double referenceNs = 80e6;

    /** Build the probe's fixed inputs (the same on every machine)
     *  and run one pass untimed. */
    SpeedProbe();

    /** Run one pass of the fixed work; @return its host ns. */
    double passNs();

  private:
    /** One 64-byte line of the probe's own "memory". */
    struct Line
    {
        std::uint64_t words[8];
    };

    std::vector<std::uint8_t> program_;
    std::vector<std::uint64_t> table_;
    std::unordered_map<std::uint64_t, Line> lines_;
    std::map<std::uint64_t, std::uint64_t> tree_;
    std::uint64_t sink_ = 0;
};

/**
 * @p ns of host time, measured between two probe passes that took
 * @p before and @p after ns, read at the reference speed.
 */
double atReferenceSpeed(double ns, double before, double after);

} // namespace hostbench

#endif // HOSTBENCH_SPEED_HH
