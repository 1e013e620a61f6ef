#include "replay.hh"

#include <chrono>

namespace hostbench
{

using namespace janus;

BmoConfig
replayConfig(const BmoConfig &bmo, ReplayMix mix)
{
    BmoConfig config = bmo;
    if (mix == ReplayMix::All)
        return config;
    config.encryption = mix == ReplayMix::EncryptionOnly;
    config.deduplication = mix == ReplayMix::DedupOnly;
    config.integrity = mix == ReplayMix::IntegrityOnly;
    return config;
}

ReplayResult
replayJournal(const BmoConfig &bmo,
              const std::vector<JournalEntry> &journal)
{
    BmoBackendState backend(bmo);
    const auto start = std::chrono::steady_clock::now();
    for (const JournalEntry &entry : journal)
        backend.writeLine(entry.lineAddr, entry.data);
    const auto end = std::chrono::steady_clock::now();

    ReplayResult r;
    r.root = backend.merkleRoot();
    r.storageHash = backend.storageContentHash();
    r.lines = journal.size();
    r.ns = std::chrono::duration<double, std::nano>(end - start).count();
    return r;
}

} // namespace hostbench
