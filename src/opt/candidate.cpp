#include "opt/candidate.h"

#include "util/strings.h"

namespace pipeleon::opt {

bool CandidateLayout::is_identity() const {
    if (!caches.empty() || !merges.empty()) return false;
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (order[i] != i) return false;
    }
    return true;
}

bool CandidateLayout::segments_valid(std::size_t n) const {
    // Pairwise checks in place: the search calls this once per candidate.
    auto in_range = [n](const Segment& s) {
        return s.first <= s.last && s.last < n;
    };
    for (std::size_t i = 0; i < caches.size(); ++i) {
        if (!in_range(caches[i])) return false;
        for (std::size_t j = i + 1; j < caches.size(); ++j) {
            if (caches[i].overlaps(caches[j])) return false;
        }
        for (const MergeSpec& m : merges) {
            if (caches[i].overlaps(m.seg)) return false;
        }
    }
    for (std::size_t i = 0; i < merges.size(); ++i) {
        if (!in_range(merges[i].seg)) return false;
        for (std::size_t j = i + 1; j < merges.size(); ++j) {
            if (merges[i].seg.overlaps(merges[j].seg)) return false;
        }
    }
    return true;
}

std::string CandidateLayout::to_string() const {
    std::string out = "order=[";
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(order[i]);
    }
    out += "]";
    for (const Segment& s : caches) {
        out += util::format(" cache=[%zu-%zu]", s.first, s.last);
    }
    for (const MergeSpec& m : merges) {
        out += util::format(" merge=[%zu-%zu]%s", m.seg.first, m.seg.last,
                            m.as_cache ? "*" : "");
    }
    return out;
}

}  // namespace pipeleon::opt
