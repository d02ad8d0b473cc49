#include "host_probe.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

namespace {

constexpr std::size_t kLlcWords = std::size_t{1} << 19;  // 4 MiB
constexpr std::size_t kL2Words = std::size_t{1} << 15;   // 256 KiB
constexpr int kL2Steps = 1 << 18;
constexpr int kLlcSteps = 1 << 16;
constexpr int kLaneSteps = 1 << 19;

const std::vector<std::uint64_t>& table() {
    static const std::vector<std::uint64_t> t = [] {
        std::vector<std::uint64_t> v(kLlcWords);
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (std::uint64_t& w : v) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            w = x;
        }
        return v;
    }();
    return t;
}

volatile std::uint64_t g_sink = 0;

/// A dependent chain of `steps` pseudo-random reads over the first `words`
/// words of the table; returns its wall time in ns.
double chain_ns(std::size_t words, int steps) {
    const std::uint64_t* t = table().data();
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 0x2545f4914f6cdd1dULL, acc = 0;
    for (int i = 0; i < steps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t w = t[(x ^ acc) & (words - 1)];
        acc = (acc ^ w) * 0xff51afd7ed558ccdULL;
        acc ^= acc >> 33;
    }
    g_sink = acc;
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/// Independent lanes of integer hashing: throughput-bound, so it slows when
/// another thread competes for the core's execution ports.
double lanes_ns(int steps) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6;
    for (int i = 0; i < steps; ++i) {
        a = (a ^ (a >> 29)) * 0xbf58476d1ce4e5b9ULL + b;
        b = (b ^ (b << 7)) + (c >> 3);
        c = (c ^ (c >> 11)) * 0x94d049bb133111ebULL + d;
        d = (d ^ (d << 13)) + (e >> 5);
        e = (e ^ (e >> 17)) + (f << 1);
        f = (f ^ (f << 5)) + a;
    }
    g_sink = a ^ b ^ c ^ d ^ e ^ f;
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

}  // namespace

double host_probe_ns() {
    // Bring the whole table back in first, so both chains start from the
    // same cache state whatever the benchmark ran before.
    std::uint64_t sum = 0;
    for (std::uint64_t w : table()) sum += w;
    g_sink = sum;
    const double l2 = chain_ns(kL2Words, kL2Steps);
    const double llc = chain_ns(kLlcWords, kLlcSteps);
    const double lanes = lanes_ns(kLaneSteps);
    return std::cbrt(l2 * llc * lanes);
}

}  // namespace perfbench
