#include "search/enumerate.h"

#include <algorithm>
#include <functional>

namespace pipeleon::search {

using opt::Candidate;
using opt::CandidateLayout;
using opt::MergeSpec;
using opt::PipeletEvaluator;
using opt::Segment;

std::vector<Candidate> enumerate_candidates(const PipeletEvaluator& evaluator,
                                            int pipelet_id,
                                            double reach_probability,
                                            const SearchOptions& options) {
    std::vector<Candidate> out;
    const std::size_t n = evaluator.size();
    if (n == 0) return out;

    double baseline = evaluator.baseline_latency();

    // Orders to consider: the identity, the greedy drop-promoting order
    // (reachable even when the permutation cap cannot), then all
    // dependency-respecting permutations up to the cap.
    std::vector<std::vector<std::size_t>> orders;
    std::vector<std::size_t> identity(n);
    for (std::size_t i = 0; i < n; ++i) identity[i] = i;
    orders.push_back(identity);
    if (options.allow_reorder) {
        std::vector<std::size_t> greedy = evaluator.greedy_drop_order();
        if (greedy != identity) orders.push_back(std::move(greedy));
        for (auto& order : evaluator.deps().valid_orders(options.max_orders)) {
            if (std::find(orders.begin(), orders.end(), order) == orders.end()) {
                orders.push_back(std::move(order));
            }
        }
    }

    CandidateLayout layout;
    layout.cache_config = options.cache_config;

    auto consider = [&]() {
        if (out.size() >= options.max_candidates) return;
        if (layout.is_identity()) return;
        opt::EvalResult eval = evaluator.evaluate_in_valid_order(layout);
        if (!eval.valid) return;
        double latency_gain = baseline - eval.latency;
        if (latency_gain < options.min_latency_gain) return;
        Candidate c;
        c.pipelet_id = pipelet_id;
        c.layout = layout;
        c.gain = latency_gain * reach_probability;
        c.memory_cost = eval.extra_memory;
        c.update_cost = eval.extra_updates;
        out.push_back(std::move(c));
    };

    // Recursive labeling of positions: start a cache run (longest first, so
    // high-coverage candidates are reached before any enumeration cap), a
    // merge run (both flavors), or leave the position plain. Runs are
    // disjoint by construction.
    std::function<void(std::size_t)> label = [&](std::size_t p) {
        if (out.size() >= options.max_candidates) return;
        if (p >= n) {
            consider();
            return;
        }
        if (options.allow_cache) {
            for (std::size_t q = n; q-- > p;) {
                layout.caches.push_back(Segment{p, q});
                label(q + 1);
                layout.caches.pop_back();
            }
        }
        if (options.allow_merge && options.max_merge_len >= 2) {
            std::size_t max_q = std::min(n - 1, p + options.max_merge_len - 1);
            for (std::size_t q = p + 1; q <= max_q; ++q) {
                for (bool as_cache : {false, true}) {
                    layout.merges.push_back(MergeSpec{Segment{p, q}, as_cache});
                    label(q + 1);
                    layout.merges.pop_back();
                }
            }
        }
        // Position stays plain.
        label(p + 1);
    };

    for (const auto& order : orders) {
        // Order legality is a property of the order alone: checked here once,
        // not again for each of its segment labelings.
        if (!evaluator.deps().order_is_valid(order)) continue;
        layout.order = order;
        label(0);
        if (out.size() >= options.max_candidates) break;
    }

    // Highest gain first: deterministic and friendly to greedy fallbacks.
    std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
        return a.gain > b.gain;
    });
    return out;
}

}  // namespace pipeleon::search
