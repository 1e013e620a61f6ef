/**
 * @file
 * One workload run, step by step in runExperiment's order and
 * through the same public API (makeWorkload, verify, NvmSystem,
 * OpenLoopDriver), with a host-clock span around each step. After
 * the run it applies the output checks, takes the simulation
 * fingerprint and reads the per-layer counters from public
 * accessors.
 */

#ifndef HOSTBENCH_PIPELINE_HH
#define HOSTBENCH_PIPELINE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.hh"

namespace hostbench
{

/** One host-clock interval around a call the benchmark makes. */
struct Span
{
    std::string name;
    /** The workload run the span belongs to. */
    std::uint64_t run = 0;
    /** Index of the enclosing span; -1 for a run's root span. */
    int parent = -1;
    /** Nanoseconds since the log was created. */
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Spans kept in memory and written out once, at the end. */
class SpanLog
{
  public:
    /** Open a span now; @return its index. */
    int open(std::string name, std::uint64_t run, int parent);
    /** Close the span at @p index now. */
    void close(int index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration of the named span of @p run (0 when absent). */
    double durationNs(std::string_view name, std::uint64_t run) const;

    /** {"spans": [{"name", "run", "parent", "start_ns", "end_ns"}]} */
    void writeJson(std::ostream &os) const;

  private:
    std::int64_t nowNs() const;

    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
};

/**
 * What a run simulated, bit for bit. A change to host code only must
 * leave it identical for every seed.
 */
struct Fingerprint
{
    janus::Tick makespan = 0;
    std::uint64_t persists = 0;
    std::uint64_t events = 0;
    std::uint64_t instructions = 0;
    /** Each channel's live Merkle root. */
    std::vector<janus::Sha1Digest> merkleRoots;
    /** The functional memory's contentHash(). */
    std::uint64_t memHash = 0;

    bool operator==(const Fingerprint &) const = default;

    /** One-line JSON object. */
    std::string json() const;
};

/** One channel's persist stream, captured for the backend replay. */
struct ChannelCapture
{
    janus::BmoConfig bmo;
    std::vector<janus::JournalEntry> journal;
    janus::Sha1Digest liveRoot;
    std::uint64_t liveStorageHash = 0;
};

/** Knobs the traced run varies; the defaults are the untraced run. */
struct RunOptions
{
    /** Capture every channel's persist journal. */
    bool journal = false;
    /** The critical-path profiler (a pure observer). */
    bool profilePersist = true;
    /** Override the workload's shard-scheduler thread count. */
    std::optional<unsigned> shardThreads;
    /** Stop before the event loop: only setupNs is measured. */
    bool setupOnly = false;
};

/** Everything one run produced. */
struct RunOutcome
{
    /** The harness's own digest, harvested as runExperiment does. */
    janus::ExperimentResult result;
    Fingerprint fingerprint;
    /** Host time: everything before the event loop, the event loop
     *  (NvmSystem::run) and the whole run (the last two are 0 on a
     *  set-up-only pass). */
    double setupNs = 0;
    double runNs = 0;
    double wallNs = 0;
    /** Persists in the persist-latency histogram. */
    std::uint64_t persistSamples = 0;
    /**
     * Simulated tail latency a priority-0 client sees, ns, and its
     * sample count. Open loop: the response p999 of the worst
     * priority-0 tenant, from scheduled arrival. Closed loop, where
     * no tenant is shed or shaped: the persist-latency p999.
     */
    double readerP999Ns = 0;
    std::uint64_t readerSamples = 0;
    /** Requests offered and completed (equal on a closed loop). */
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    /** Output-check failures; empty when every check passed. */
    std::vector<std::string> failures;
    /** Per-layer counters read after the run, by metric name. */
    std::map<std::string, double> layers;
    /** Per-channel captures (RunOptions::journal only). */
    std::vector<ChannelCapture> channels;
};

/** Run @p config once; spans are tagged with @p run. */
RunOutcome runWorkload(const janus::ExperimentConfig &config,
                       const RunOptions &options, SpanLog &spans,
                       std::uint64_t run);

} // namespace hostbench

#endif // HOSTBENCH_PIPELINE_HH
