// perfbench/stats.h — sample statistics and the output-check predictor used
// by the end-to-end benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "sim/batch.h"
#include "sim/packet.h"

namespace perfbench {

/// Samples strictly above the q-th percentile of n samples under the
/// nearest-rank definition: n - ceil(q/100 * n).
std::size_t samples_beyond(std::size_t n, double q);

/// The highest of the reported percentiles (99.9, 99, 90, 50) that has at
/// least ten samples beyond it; 0 when even the median has fewer.
double highest_supported_percentile(std::size_t n);

/// Nearest-rank percentile: the smallest sample with at least q% of the
/// samples at or below it. Sorts `v` in place; 0 for an empty vector.
double percentile(std::vector<double>& v, double q);

/// Median over segments of `v` scaled to the reference host speed. Segment
/// i ran while the host probe took probe_ns[i], i.e. at nominal_ns /
/// probe_ns[i] of the reference speed, so a rate is multiplied by
/// probe_ns[i] / nominal_ns and a time divided by it. 0 for no segments.
double host_scaled_median(const std::vector<double>& v,
                          const std::vector<double>& probe_ns, double nominal_ns,
                          bool is_rate);

/// Predicts which packets an ACL deny set drops. A rule drops a packet whose
/// `key` field holds one of the denied values, provided its guard holds
/// (the packet's guard field equals guard_value; kNoField = always). This is
/// the benchmark's independent model of the policy: it reads only the
/// values the benchmark installed as deny entries, never the emulator.
class DenyPredictor {
public:
    void add_rule(pipeleon::sim::FieldId key,
                  std::unordered_set<std::uint64_t> values,
                  pipeleon::sim::FieldId guard = pipeleon::sim::kNoField,
                  std::uint64_t guard_value = 0);

    bool denies(const pipeleon::sim::Packet& packet) const;
    std::size_t count(const pipeleon::sim::PacketBatch& batch) const;

private:
    struct Rule {
        pipeleon::sim::FieldId key;
        std::unordered_set<std::uint64_t> values;
        pipeleon::sim::FieldId guard;
        std::uint64_t guard_value;
    };
    std::vector<Rule> rules_;
};

}  // namespace perfbench
