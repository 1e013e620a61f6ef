/**
 * @file
 * Functional BMO backend replay: a channel's captured persist stream
 * fed, line by line and in durability order, into a fresh
 * BmoBackendState. With every BMO on it must land on the channel's
 * live Merkle root and storage hash; with one BMO on it prices that
 * BMO alone (the perf_backend solo method).
 */

#ifndef HOSTBENCH_REPLAY_HH
#define HOSTBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "bmo/backend_state.hh"
#include "memctrl/memory_controller.hh"

namespace hostbench
{

/** One replay's functional result and host cost. */
struct ReplayResult
{
    janus::Sha1Digest root;
    std::uint64_t storageHash = 0;
    std::uint64_t lines = 0;
    double ns = 0;
};

/** The BMOs a replay runs. */
enum class ReplayMix
{
    All,
    EncryptionOnly,
    DedupOnly,
    IntegrityOnly,
};

/** @p bmo with only the BMOs of @p mix left on. */
janus::BmoConfig replayConfig(const janus::BmoConfig &bmo,
                              ReplayMix mix);

/** Replay @p journal into a backend built from @p bmo. */
ReplayResult replayJournal(const janus::BmoConfig &bmo,
                           const std::vector<janus::JournalEntry> &journal);

} // namespace hostbench

#endif // HOSTBENCH_REPLAY_HH
