#include "speed.hh"

#include <chrono>
#include <functional>
#include <queue>
#include <utility>

namespace hostbench
{

namespace
{

// The pass mirrors the simulator's own mix: a switch-dispatch bytecode
// loop, as the core interprets PmIR, then an event loop over a
// priority queue that looks up 64-byte lines in a hash map, runs
// SHA-1-shaped rounds over them and updates an ordered map.
constexpr std::size_t programOps = 4096;
constexpr std::size_t interpLaps = 512;
constexpr std::size_t tableWords = 4096; // 32 KiB
constexpr std::uint64_t probeLines = 65536; // 4 MiB of line data
constexpr std::size_t treeEntries = 16384;
constexpr std::uint64_t treeKeys = 1u << 20;
constexpr std::uint64_t inFlight = 64;
constexpr std::size_t events = 60000;

std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint32_t
rotl(std::uint32_t x, int n)
{
    return (x << n) | (x >> (32 - n));
}

} // namespace

SpeedProbe::SpeedProbe() : program_(programOps), table_(tableWords)
{
    std::uint64_t state = 0x6a616e7573ull;
    for (std::uint8_t &op : program_)
        op = static_cast<std::uint8_t>(splitmix(state) % 8);
    for (std::uint64_t &word : table_)
        word = splitmix(state);
    for (std::uint64_t i = 0; i < probeLines; ++i) {
        Line line;
        for (std::uint64_t &word : line.words)
            word = splitmix(state);
        lines_.emplace(i * 64, line);
    }
    for (std::size_t i = 0; i < treeEntries; ++i)
        tree_.emplace(splitmix(state) % treeKeys, i);
    // The first pass runs slower, on cold code and fresh pages.
    passNs();
}

double
SpeedProbe::passNs()
{
    const auto start = std::chrono::steady_clock::now();

    std::uint64_t r[4] = {1, 2, 3, 4};
    for (std::size_t lap = 0; lap < interpLaps; ++lap) {
        for (std::size_t pc = 0; pc < programOps; ++pc) {
            switch (program_[pc]) {
            case 0: r[0] += r[1]; break;
            case 1: r[1] ^= r[2] >> 7; break;
            case 2: r[2] = r[2] * 0x9e3779b97f4a7c15ull + r[3]; break;
            case 3: r[3] = table_[r[0] % tableWords]; break;
            case 4: table_[r[1] % tableWords] = r[2]; break;
            case 5:
                if (r[0] & 1)
                    ++pc;
                break;
            case 6: r[0] = (r[0] << 13) | (r[0] >> 51); break;
            default: r[1] += r[3] | 1; break;
            }
        }
    }

    using Event = std::pair<std::uint64_t, std::uint64_t>; // tick, line
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        queue;
    for (std::uint64_t i = 0; i < inFlight; ++i)
        queue.emplace(i, (i * 977) % probeLines);
    std::uint64_t acc = r[0] ^ r[1] ^ r[2] ^ r[3];
    for (std::size_t n = 0; n < events; ++n) {
        const auto [tick, id] = queue.top();
        queue.pop();
        Line &line = lines_[id * 64];
        std::uint32_t a = 0x67452301u ^ static_cast<std::uint32_t>(tick);
        std::uint32_t b = 0xefcdab89u, c = 0x98badcfeu;
        std::uint32_t d = 0x10325476u, e = 0xc3d2e1f0u;
        for (int round = 0; round < 80; ++round) {
            const std::uint32_t w = static_cast<std::uint32_t>(
                line.words[round & 7] >> ((round & 1) * 32));
            const std::uint32_t f =
                round < 20   ? (b & c) | (~b & d)
                : round < 40 ? b ^ c ^ d
                : round < 60 ? (b & c) | (b & d) | (c & d)
                             : b ^ c ^ d;
            const std::uint32_t t = rotl(a, 5) + f + e + w + 0x5a827999u;
            e = d;
            d = c;
            c = rotl(b, 30);
            b = a;
            a = t;
        }
        line.words[a & 7] ^= (static_cast<std::uint64_t>(b) << 32) | e;
        const std::uint64_t key =
            ((static_cast<std::uint64_t>(a) << 8) ^ c) % treeKeys;
        const auto it = tree_.lower_bound(key);
        if (it != tree_.end() && (a & 3) == 0) {
            tree_.erase(it);
            tree_.emplace(key ^ 0x5555, n);
        } else if (it != tree_.end()) {
            it->second += d;
        }
        queue.emplace(tick + 1 + (d & 255),
                      (static_cast<std::uint64_t>(a) * 31 + b) % probeLines);
        acc += a;
    }

    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    sink_ += acc;
    // Keep the result observable so the compiler cannot drop the work.
    asm volatile("" : : "r"(sink_) : "memory");
    return ns;
}

double
atReferenceSpeed(double ns, double before, double after)
{
    return ns * SpeedProbe::referenceNs / ((before + after) / 2);
}

} // namespace hostbench
