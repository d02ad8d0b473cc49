#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t samples_beyond(std::size_t n, double q) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9));
    return n - std::min(n, rank);
}

double highest_supported_percentile(std::size_t n) {
    for (double q : {99.9, 99.0, 90.0, 50.0}) {
        if (samples_beyond(n, q) >= 10) return q;
    }
    return 0.0;
}

double percentile(std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t beyond = samples_beyond(v.size(), q);
    const std::size_t rank = v.size() - beyond;  // 1-based nearest rank
    return v[rank == 0 ? 0 : rank - 1];
}

double host_scaled_median(const std::vector<double>& v,
                          const std::vector<double>& probe_ns, double nominal_ns,
                          bool is_rate) {
    std::vector<double> scaled;
    for (std::size_t i = 0; i < v.size() && i < probe_ns.size(); ++i) {
        const double f = probe_ns[i] / nominal_ns;
        scaled.push_back(is_rate ? v[i] * f : v[i] / f);
    }
    return percentile(scaled, 50.0);
}

void DenyPredictor::add_rule(pipeleon::sim::FieldId key,
                             std::unordered_set<std::uint64_t> values,
                             pipeleon::sim::FieldId guard,
                             std::uint64_t guard_value) {
    rules_.push_back({key, std::move(values), guard, guard_value});
}

bool DenyPredictor::denies(const pipeleon::sim::Packet& packet) const {
    for (const Rule& r : rules_) {
        if (r.guard != pipeleon::sim::kNoField &&
            packet.get(r.guard) != r.guard_value) {
            continue;
        }
        if (r.values.count(packet.get(r.key)) != 0) return true;
    }
    return false;
}

std::size_t DenyPredictor::count(const pipeleon::sim::PacketBatch& batch) const {
    std::size_t n = 0;
    for (const pipeleon::sim::Packet& p : batch) n += denies(p) ? 1 : 0;
    return n;
}

}  // namespace perfbench
