/**
 * @file
 * hostbench: host cost of the simulator per simulated persist, on
 * one workload per process.
 *
 *   hostbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--spans-out PATH]
 *   hostbench --calibrate [--seed N]
 *
 * Untraced (--trace 0), it repeats the workload for S seconds and
 * prints the end-to-end metrics: host medians over the repetitions,
 * simulated figures from the first (every repetition must simulate
 * bit-identically). Traced (--trace 1), it prints the per-layer
 * split. The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. Any failed output
 * check makes the exit code 1. See README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hh"
#include "common/logging.hh"
#include "pipeline.hh"
#include "replay.hh"
#include "speed.hh"
#include "workloads.hh"

namespace
{

using namespace hostbench;
using janus::ExperimentConfig;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spansOut;
    bool calibrate = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--spans-out PATH]\n       hostbench --calibrate "
                 "[--seed N]\nworkloads:",
                 why);
    for (const std::string &name : workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &text, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0)
        usage((std::string("malformed ") + flag + " '" + text + "'")
                  .c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        std::string value;
        const std::size_t eq = flag.find('=');
        const bool bare = flag == "--calibrate";
        if (eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag = flag.substr(0, eq);
        } else if (!bare) {
            if (i + 1 >= argc)
                usage(("missing value for " + flag).c_str());
            value = argv[++i];
        }
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = parseUnsigned(value, "--seed");
        else if (flag == "--seconds")
            args.seconds = static_cast<double>(
                parseUnsigned(value, "--seconds"));
        else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
        }
        else if (flag == "--spans-out")
            args.spansOut = value;
        else if (bare)
            args.calibrate = true;
        else
            usage(("unknown argument " + flag).c_str());
    }
    return args;
}

double
median(std::vector<double> xs)
{
    janus_assert(!xs.empty(), "median of nothing");
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

/** A metric as the result line prints it. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Unit of a per-layer metric, from its name. */
std::string
layerUnit(const std::string &name)
{
    for (const char *suffix : {"_rate", "_frac", "_ratio"})
        if (name.ends_with(suffix))
            return "ratio";
    if (name.find("_ns") != std::string::npos)
        return "ns";
    return "count";
}

/**
 * Wall-clock budget of one process's measurements. A run of the
 * benchmark starts another repetition only if one more, as long as
 * the last, still ends within the budget.
 */
class Budget
{
  public:
    explicit Budget(double seconds) : seconds_(seconds) {}

    /** Room for another step as long as the previous one? */
    bool
    roomForAnother()
    {
        const double now = elapsed();
        const double step = now - lastMark_;
        lastMark_ = now;
        return now + step <= seconds_;
    }

  private:
    double
    elapsed() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    double seconds_;
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
    double lastMark_ = 0;
};

/** Requests offered and checks failed over every run a process
 *  made. */
struct Tally
{
    std::uint64_t attempted = 0;
    Failures failures;

    void
    add(const RunOutcome &out)
    {
        attempted += out.offered;
        add(out.failures);
    }

    void
    add(const Failures &more)
    {
        failures.insert(failures.end(), more.begin(), more.end());
    }
};

void
printFingerprint(const char *label, const RunOutcome &out)
{
    std::printf("fingerprint %s %s\n", label,
                out.fingerprint.json().c_str());
}

/** --trace 0: the end-to-end metrics. */
std::vector<Metric>
measureEndToEnd(const ExperimentConfig &config, double seconds,
                SpanLog &spans, Tally &tally)
{
    constexpr std::size_t minReps = 3;
    // Set-up takes milliseconds, and how fast it runs right after a
    // long event loop swings with the cache state the loop leaves.
    // So setup_s is the median of separate set-up-only passes.
    constexpr std::size_t setupPasses = 21;
    Budget budget(seconds);
    std::uint64_t run_id = 0;
    std::vector<RunOutcome> reps;
    // run and wall hold host times at the reference speed; setup and
    // raw_run hold them as measured.
    std::vector<double> setup, run, wall, raw_run, probe_ns;
    double peak_rss = 0;
    std::unique_ptr<SpeedProbe> probe;
    do {
        reps.push_back(runWorkload(config, {}, spans, run_id++));
        const RunOutcome &rep = reps.back();
        if (!probe) {
            // Read before the probe allocates its tables, so that the
            // peak resident set is the workload's own.
            peak_rss = peakRssMiB();
            probe = std::make_unique<SpeedProbe>();
        }
        // The first repetition has no pass before it.
        const double after = probe->passNs();
        const double before = probe_ns.empty() ? after : probe_ns.back();
        probe_ns.push_back(after);
        tally.add(rep);
        tally.add(checkSameSimulation(reps.front().fingerprint,
                                      rep.fingerprint,
                                      "repetition " +
                                          std::to_string(reps.size())));
        raw_run.push_back(rep.runNs);
        run.push_back(atReferenceSpeed(rep.runNs, before, after));
        wall.push_back(atReferenceSpeed(rep.wallNs, before, after));
    } while (budget.roomForAnother() || reps.size() < minReps);
    while (setup.size() < setupPasses)
        setup.push_back(
            runWorkload(config, {.setupOnly = true}, spans, run_id++)
                .setupNs);
    const double setup_before = probe_ns.back();
    probe_ns.push_back(probe->passNs());
    const double setup_median =
        atReferenceSpeed(median(setup), setup_before, probe_ns.back());

    const RunOutcome &first = reps.front();
    printFingerprint("untraced", first);
    const double persists = static_cast<double>(first.result.persists);
    auto print_series = [](const char *label,
                           const std::vector<double> &xs, double scale) {
        std::printf("%s:", label);
        for (double x : xs)
            std::printf(" %.0f", x / scale);
        std::printf("\n");
    };
    print_series("host ns per persist by repetition, as measured",
                 raw_run, persists);
    print_series("host ns per persist by repetition, at reference speed",
                 run, persists);
    print_series("speed probe passes, us", probe_ns, 1e3);
    std::printf("samples: %zu repetitions, %zu set-ups; persist latency "
                "n=%llu; reader p999 n=%llu\n",
                reps.size(), setup.size(),
                static_cast<unsigned long long>(first.persistSamples),
                static_cast<unsigned long long>(first.readerSamples));

    const bool ok = tally.failures.empty();
    return {
        {"host_ns_per_persist", median(run) / persists, "ns"},
        {"wall_s", median(wall) / 1e9, "s"},
        {"setup_s", setup_median / 1e9, "s"},
        {"peak_rss_mib", peak_rss, "MiB"},
        {"sim_makespan_us", janus::ticks::toNsF(first.result.makespan) /
                                1e3,
         "us"},
        {"sim_persist_p50_ns", first.result.persistP50Ns, "ns"},
        {"sim_persist_p99_ns", first.result.persistP99Ns, "ns"},
        {"sim_reader_p999_ns", first.readerP999Ns, "ns"},
        {"sim_completed_frac",
         ok ? static_cast<double>(first.completed) /
                  static_cast<double>(first.offered)
            : 0.0,
         "ratio"},
    };
}

/** Host ns of one replay of every channel's journal, per mix. */
struct ReplayCost
{
    double ns[4] = {0, 0, 0, 0}; ///< indexed like replayMixes
    std::uint64_t lines = 0;
};

constexpr ReplayMix replayMixes[] = {
    ReplayMix::All, ReplayMix::EncryptionOnly, ReplayMix::DedupOnly,
    ReplayMix::IntegrityOnly};

/** Replay each captured channel under every mix; the all-BMO replay
 *  must land on the channel's live state. */
ReplayCost
replayChannels(const std::vector<ChannelCapture> &channels, Tally &tally)
{
    ReplayCost cost;
    for (unsigned ch = 0; ch < channels.size(); ++ch) {
        const ChannelCapture &cap = channels[ch];
        for (int m = 0; m < 4; ++m) {
            const ReplayResult r = replayJournal(
                replayConfig(cap.bmo, replayMixes[m]), cap.journal);
            cost.ns[m] += r.ns;
            if (replayMixes[m] == ReplayMix::All) {
                cost.lines += r.lines;
                tally.add(checkReplay(cap, r, ch));
            }
        }
    }
    return cost;
}

/** The traced run's measurements, one entry per cycle. */
struct TracedSeries
{
    std::vector<double> untracedRun, knockoutRun, tracedRun;
    /** Sharded workloads: the event loop on two scheduler threads. */
    std::vector<double> twoThreadRun;
    /** Replay host ns over all channels, per mix. */
    std::vector<double> replayNs[4];
    /** Lines every replay wrote (the same in every cycle). */
    double replayLines = 0;
    std::map<std::string, std::vector<double>> spans;
};

/** --trace 1: the per-layer split. */
std::vector<Metric>
measureLayers(const ExperimentConfig &config, double seconds,
              SpanLog &spans, Tally &tally)
{
    static const char *spanNames[] = {
        "workloads.build", "ir.verify",          "harness.assemble",
        "workloads.setup", "harness.run",        "workloads.validate",
        "harness.harvest"};
    std::uint64_t run_id = 0;
    TracedSeries series;
    // The first run of a process pays for cold host caches and heap
    // growth. It sets the reference fingerprint; its time is unused,
    // so that traced and untraced runs compare warm against warm.
    const RunOutcome reference = runWorkload(config, {}, spans, run_id++);
    tally.add(reference);
    Budget budget(seconds);
    RunOutcome traced;
    do {
        // Untraced, traced (journal capture) and the critical-path
        // profiler knocked out: all three must simulate identically.
        RunOutcome plain = runWorkload(config, {}, spans, run_id++);
        tally.add(plain);
        tally.add(checkSameSimulation(reference.fingerprint,
                                      plain.fingerprint, "a repetition"));
        series.untracedRun.push_back(plain.runNs);

        const std::uint64_t traced_id = run_id++;
        traced = runWorkload(config, {.journal = true}, spans, traced_id);
        tally.add(traced);
        tally.add(checkSameSimulation(reference.fingerprint,
                                      traced.fingerprint,
                                      "journal capture"));
        series.tracedRun.push_back(traced.runNs);
        for (const char *name : spanNames)
            series.spans[name].push_back(
                spans.durationNs(name, traced_id));

        RunOutcome knockout = runWorkload(
            config, {.profilePersist = false}, spans, run_id++);
        tally.add(knockout);
        tally.add(checkSameSimulation(reference.fingerprint,
                                      knockout.fingerprint,
                                      "profilePersist = false"));
        series.knockoutRun.push_back(knockout.runNs);

        // Thread count may change only wall time.
        if (config.sys.shards > 1) {
            RunOutcome two =
                runWorkload(config, {.shardThreads = 2}, spans, run_id++);
            tally.add(two);
            tally.add(checkSameSimulation(reference.fingerprint,
                                          two.fingerprint,
                                          "2 scheduler threads"));
            series.twoThreadRun.push_back(two.runNs);
        }

        const ReplayCost replay = replayChannels(traced.channels, tally);
        for (int m = 0; m < 4; ++m)
            series.replayNs[m].push_back(replay.ns[m]);
        series.replayLines = static_cast<double>(replay.lines);
    } while (budget.roomForAnother());

    // The benchmark's step-by-step run must be the harness's run.
    const janus::ExperimentResult harness = janus::runExperiment(config);
    const janus::ExperimentResult &mine = reference.result;
    if (harness.makespan != mine.makespan ||
        harness.persists != mine.persists ||
        harness.eventsExecuted != mine.eventsExecuted ||
        harness.instructions != mine.instructions ||
        harness.persistP99Ns != mine.persistP99Ns)
        tally.failures.push_back(
            "runExperiment simulates differently from the benchmark's "
            "own run");

    printFingerprint("traced", traced);
    const double persists = static_cast<double>(mine.persists);
    const double untraced = median(series.untracedRun);
    const double traced_run = median(series.tracedRun);
    const double critpath = untraced - median(series.knockoutRun);
    std::printf("tracing overhead: %.1f ns/persist traced vs %.1f "
                "untraced (%+.2f%%) over %zu cycles\n",
                traced_run / persists, untraced / persists,
                100.0 * (traced_run / untraced - 1.0),
                series.tracedRun.size());

    std::vector<Metric> metrics;
    auto add = [&metrics](const std::string &name, double value) {
        metrics.push_back({name, value, layerUnit(name)});
    };
    for (const char *name : spanNames) {
        std::string metric = std::string(name) + "_ns";
        add(metric, median(series.spans[name]));
    }
    const double replay_all = median(series.replayNs[0]);
    const double lines = series.replayLines;
    add("harness.run_other_ns", traced_run - replay_all - critpath);
    add("harness.run_ns_per_persist", traced_run / persists);
    add("harness.trace_overhead_frac", traced_run / untraced - 1.0);
    add("harness.run_2threads_ns_per_persist",
        series.twoThreadRun.empty()
            ? 0.0
            : median(series.twoThreadRun) / persists);
    add("sim.critpath_ns", critpath);
    add("bmo.backend_replay_ns_per_line", replay_all / lines);
    add("bmo.encryption_replay_ns_per_line",
        median(series.replayNs[1]) / lines);
    add("bmo.dedup_replay_ns_per_line", median(series.replayNs[2]) / lines);
    add("bmo.integrity_replay_ns_per_line",
        median(series.replayNs[3]) / lines);
    for (const auto &[name, value] : traced.layers)
        add(name, value);
    return metrics;
}

void
printResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    std::string out = tally.failures.empty() ? "{\"correct\": true"
                                             : "{\"correct\": false";
    // Once any check fails, no request of the process counts as
    // served correctly.
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " +
           std::to_string(tally.failures.empty() ? 0 : tally.attempted);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out += janus::strprintf(
            "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
            i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
            metrics[i].unit.c_str());
    out += "}}";
    std::printf("%s\n", out.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    janus::setQuiet(true);
    if (args.calibrate) {
        std::printf("tenant_mix closed-loop saturation rate: %.6f "
                    "req/us/core (seed %llu)\n",
                    calibrateTenantMixRate(args.seed),
                    static_cast<unsigned long long>(args.seed));
        return 0;
    }
    const std::optional<ExperimentConfig> config =
        workloadConfig(args.workload, args.seed);
    if (!config)
        usage(("unknown workload '" + args.workload + "'").c_str());
    if (args.seconds <= 0)
        usage("--seconds must be positive");

    std::printf("hostbench: workload=%s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::fflush(stdout);

    SpanLog spans;
    Tally tally;
    const std::vector<Metric> metrics =
        args.trace ? measureLayers(*config, args.seconds, spans, tally)
                   : measureEndToEnd(*config, args.seconds, spans, tally);
    if (!args.spansOut.empty()) {
        std::ofstream os(args.spansOut);
        spans.writeJson(os);
        if (!os)
            tally.failures.push_back("cannot write " + args.spansOut);
    }
    for (const std::string &failure : tally.failures)
        std::printf("CHECK FAILED: %s\n", failure.c_str());
    printResult(tally, metrics);
    return tally.failures.empty() ? 0 : 1;
}
