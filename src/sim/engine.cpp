#include "sim/engine.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace pipeleon::sim {

using ir::FieldMatch;
using ir::MatchKind;
using ir::Table;
using ir::TableEntry;

std::size_t KeyVecHash::operator()(const KeyVec& key) const {
    std::size_t h = 1469598103934665603ULL;  // FNV offset basis
    for (std::uint64_t word : key) {
        for (int b = 0; b < 8; ++b) {
            h ^= (word >> (8 * b)) & 0xFF;
            h *= 1099511628211ULL;  // FNV prime
        }
    }
    return h;
}

namespace {

std::uint64_t width_mask(int width_bits) {
    if (width_bits >= 64) return ~0ULL;
    if (width_bits <= 0) return 0;
    return (1ULL << width_bits) - 1;
}

std::uint64_t prefix_mask(int prefix_len, int width_bits) {
    if (prefix_len <= 0) return 0;
    if (prefix_len >= width_bits) return width_mask(width_bits);
    return width_mask(width_bits) & ~width_mask(width_bits - prefix_len);
}

// -------------------------------------------------------------- flat index

/// Open-addressing hash index over fixed-stride keys of `uint64_t` words.
/// Each cell is `stride + 2` contiguous words: the key's 64-bit hash (0 marks
/// an empty cell), a 64-bit payload, then the key words. Capacity is a power
/// of two at least twice the key count and probing is linear. The index
/// records the longest displacement any key has from its home cell, and a
/// lookup scans exactly that many cells past home, comparing one stored hash
/// per cell before any key word. A fixed scan length per index, rather than
/// stopping at the first empty cell, keeps the probe loop's exit predictable
/// on miss-heavy traffic (an LPM lookup misses most of its groups).
///
/// Every operation takes the key together with a mask of the same stride and
/// works on `key[c] & mask[c]`: a ternary or LPM group hashes and compares
/// the masked packet key on the fly, without building it anywhere. Lookups
/// are const and touch no shared mutable state, so workers may probe one
/// index concurrently.
class FlatIndex {
public:
    FlatIndex() { reset(0, 0); }

    /// Drops all keys and sizes the index for `expected` keys of `stride`
    /// words (storage capacity is reused across rebuilds).
    void reset(std::size_t stride, std::size_t expected) {
        stride_ = stride;
        cell_words_ = stride + 2;
        std::size_t cap = 8;
        while (cap < 2 * expected) cap <<= 1;
        slot_mask_ = cap - 1;
        size_ = 0;
        max_probe_ = 0;
        cells_.assign(cap * cell_words_, 0);
    }

    /// Inserts `key & mask` with `payload` unless present. Returns the
    /// payload word of the key's cell and whether this call inserted it.
    std::pair<std::uint64_t*, bool> emplace(const std::uint64_t* key,
                                            const std::uint64_t* mask,
                                            std::uint64_t payload) {
        if (2 * (size_ + 1) > slot_mask_ + 1) grow();
        const std::uint64_t h = hash(key, mask);
        std::size_t i = static_cast<std::size_t>(h) & slot_mask_;
        for (std::size_t d = 0;; ++d) {
            std::uint64_t* cell = &cells_[i * cell_words_];
            if (cell[0] == 0) {
                max_probe_ = std::max(max_probe_, d);
                cell[0] = h;
                cell[1] = payload;
                for (std::size_t c = 0; c < stride_; ++c) {
                    cell[2 + c] = key[c] & mask[c];
                }
                ++size_;
                return {cell + 1, true};
            }
            if (cell[0] == h && same_key(cell, key, mask)) {
                return {cell + 1, false};
            }
            i = (i + 1) & slot_mask_;
        }
    }

    /// Payload stored for `key & mask`, or nullptr.
    const std::uint64_t* find(const std::uint64_t* key,
                              const std::uint64_t* mask) const {
        if (size_ == 0) return nullptr;
        return find_hashed(hash(key, mask), key, mask);
    }

    /// Pulls the home cell of hash `h` toward the cache.
    void prefetch(std::uint64_t h) const {
        __builtin_prefetch(&cells_[(static_cast<std::size_t>(h) & slot_mask_) *
                                   cell_words_]);
    }

    /// find() with `h == hash(key, mask)` already computed.
    const std::uint64_t* find_hashed(std::uint64_t h, const std::uint64_t* key,
                                     const std::uint64_t* mask) const {
        std::size_t i = static_cast<std::size_t>(h) & slot_mask_;
        for (std::size_t d = 0; d <= max_probe_; ++d) {
            const std::uint64_t* cell = &cells_[i * cell_words_];
            if (cell[0] == h && same_key(cell, key, mask)) return cell + 1;
            i = (i + 1) & slot_mask_;
        }
        return nullptr;
    }

    /// Word-level multiply/xor-shift hash of `key & mask` with a MurmurHash3
    /// finalizer; never 0, which marks an empty cell.
    std::uint64_t hash(const std::uint64_t* key,
                       const std::uint64_t* mask) const {
        std::uint64_t h = 0x243F6A8885A308D3ULL;
        for (std::size_t c = 0; c < stride_; ++c) {
            h = (h ^ (key[c] & mask[c])) * 0x9E3779B97F4A7C15ULL;
            h ^= h >> 32;
        }
        h ^= h >> 33;
        h *= 0xFF51AFD7ED558CCDULL;
        h ^= h >> 33;
        return h == 0 ? 1 : h;
    }

private:
    bool same_key(const std::uint64_t* cell, const std::uint64_t* key,
                  const std::uint64_t* mask) const {
        for (std::size_t c = 0; c < stride_; ++c) {
            if (cell[2 + c] != (key[c] & mask[c])) return false;
        }
        return true;
    }

    /// Doubles capacity, re-placing every cell by its stored hash.
    void grow() {
        std::vector<std::uint64_t> old;
        old.swap(cells_);
        const std::size_t cap = 2 * (slot_mask_ + 1);
        slot_mask_ = cap - 1;
        max_probe_ = 0;
        cells_.assign(cap * cell_words_, 0);
        for (std::size_t off = 0; off < old.size(); off += cell_words_) {
            if (old[off] == 0) continue;
            std::size_t i = static_cast<std::size_t>(old[off]) & slot_mask_;
            std::size_t d = 0;
            for (; cells_[i * cell_words_] != 0; ++d) i = (i + 1) & slot_mask_;
            max_probe_ = std::max(max_probe_, d);
            std::memcpy(&cells_[i * cell_words_], &old[off],
                        cell_words_ * sizeof(std::uint64_t));
        }
    }

    std::size_t stride_ = 0;
    std::size_t cell_words_ = 2;
    std::size_t slot_mask_ = 0;  ///< capacity - 1
    std::size_t size_ = 0;
    std::size_t max_probe_ = 0;  ///< longest displacement from a home cell
    std::vector<std::uint64_t> cells_;
};

/// Copies the entry's component values into `out` (the unmasked key the
/// group mask applies to); false when its arity differs from the table's.
bool entry_values(const TableEntry& e, std::size_t stride,
                  std::vector<std::uint64_t>& out) {
    if (e.key.size() != stride) return false;
    out.resize(stride);
    for (std::size_t c = 0; c < stride; ++c) out[c] = e.key[c].value;
    return true;
}

// ------------------------------------------------------------ exact engine

class ExactEngine final : public MatchEngine {
public:
    void rebuild(const Table& table,
                 const std::vector<TableEntry>& entries) override {
        const std::size_t stride = table.keys.size();
        ones_.assign(stride, ~0ULL);
        index_.reset(stride, entries.size());
        for (std::size_t i = 0; i < entries.size(); ++i) {
            if (!entry_values(entries[i], stride, buf_)) continue;
            index_.emplace(buf_.data(), ones_.data(), i);  // first entry wins
        }
    }

    std::optional<MatchOutcome> lookup(const KeyVec& key) const override {
        if (key.size() != ones_.size()) return std::nullopt;
        const std::uint64_t* hit = index_.find(key.data(), ones_.data());
        if (hit == nullptr) return std::nullopt;
        return MatchOutcome{static_cast<std::size_t>(*hit)};
    }

    int m() const override { return 1; }

private:
    FlatIndex index_;
    std::vector<std::uint64_t> ones_;  ///< all-ones mask, one word per key
    std::vector<std::uint64_t> buf_;   ///< rebuild scratch
};

// ------------------------------------------------- masked group engines

/// Entries grouped by a per-component tuple (prefix lengths for LPM, masks
/// for ternary): one FlatIndex per group, each with its mask words. Grouping
/// goes through a FlatIndex keyed by the tuple itself.
class GroupedEngine : public MatchEngine {
protected:
    static constexpr std::uint32_t kUngrouped = ~0u;

    /// Starts a rebuild: records widths and clears the groups.
    void begin(const Table& table, std::size_t n_entries) {
        stride_ = table.keys.size();
        widths_.clear();
        for (const ir::MatchKey& k : table.keys) {
            widths_.push_back(k.width_bits);
        }
        ones_.assign(stride_, ~0ULL);
        tuples_.clear();
        counts_.clear();
        group_of_tuple_.reset(stride_, 0);
        entry_group_.assign(n_entries, kUngrouped);
    }

    /// Files entry `i` under the tuple in `tuple_buf_`.
    void assign_group(std::size_t i) {
        auto [id, inserted] = group_of_tuple_.emplace(
            tuple_buf_.data(), ones_.data(), counts_.size());
        if (inserted) {
            tuples_.insert(tuples_.end(), tuple_buf_.begin(), tuple_buf_.end());
            counts_.push_back(0);
        }
        entry_group_[i] = static_cast<std::uint32_t>(*id);
        ++counts_[*id];
    }

    /// Lays the groups out in `order` (a permutation of group ids), sizing
    /// each index and copying its mask from `group_mask(id, c)`.
    template <typename MaskFn>
    void layout(const std::vector<std::uint32_t>& order, MaskFn group_mask) {
        rank_.assign(order.size(), 0);
        indexes_.resize(order.size());
        masks_.resize(order.size() * stride_);
        for (std::size_t r = 0; r < order.size(); ++r) {
            const std::uint32_t g = order[r];
            rank_[g] = static_cast<std::uint32_t>(r);
            indexes_[r].reset(stride_, counts_[g]);
            for (std::size_t c = 0; c < stride_; ++c) {
                masks_[r * stride_ + c] = group_mask(g, c);
            }
        }
    }

    std::size_t group_count() const { return indexes_.size(); }

    std::size_t stride_ = 0;
    std::vector<int> widths_;
    std::vector<std::uint64_t> ones_;
    std::vector<FlatIndex> indexes_;      ///< one per group, probe order
    std::vector<std::uint64_t> masks_;    ///< group r's mask at [r * stride_]
    // Rebuild scratch, kept to reuse its storage.
    std::vector<std::uint64_t> tuple_buf_;
    std::vector<std::uint64_t> tuples_;   ///< group g's tuple at [g * stride_]
    std::vector<std::size_t> counts_;     ///< entries per group id
    std::vector<std::uint32_t> entry_group_;
    std::vector<std::uint32_t> rank_;     ///< group id -> probe rank
    std::vector<std::uint64_t> buf_;
    FlatIndex group_of_tuple_;
};

// -------------------------------------------------------------- LPM engine

/// One index per distinct prefix-length tuple, probed in decreasing
/// total-prefix order so the first hit is the longest match.
class LpmEngine final : public GroupedEngine {
public:
    void rebuild(const Table& table,
                 const std::vector<TableEntry>& entries) override {
        begin(table, entries.size());
        // Group entries by their prefix-length tuple (exact components use
        // the full width as their "prefix"); other kinds are ignored.
        tuple_buf_.resize(stride_);
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const TableEntry& e = entries[i];
            if (e.key.size() != stride_) continue;
            bool ok = true;
            for (std::size_t c = 0; c < stride_ && ok; ++c) {
                const FieldMatch& m = e.key[c];
                int prefix = 0;
                switch (m.kind) {
                    case MatchKind::Exact: prefix = widths_[c]; break;
                    case MatchKind::Lpm: prefix = m.prefix_len; break;
                    default: ok = false; break;
                }
                tuple_buf_[c] = static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(prefix));
            }
            if (ok) assign_group(i);
        }
        // Longest total prefix first; ties by descending length tuple.
        const std::size_t n_groups = counts_.size();
        std::vector<std::uint32_t> order(n_groups);
        std::vector<long long> total(n_groups, 0);
        for (std::uint32_t g = 0; g < n_groups; ++g) {
            order[g] = g;
            for (std::size_t c = 0; c < stride_; ++c) total[g] += len(g, c);
        }
        std::sort(order.begin(), order.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      if (total[a] != total[b]) return total[a] > total[b];
                      for (std::size_t c = 0; c < stride_; ++c) {
                          if (len(a, c) != len(b, c)) {
                              return len(a, c) > len(b, c);
                          }
                      }
                      return false;
                  });
        layout(order, [this](std::uint32_t g, std::size_t c) {
            return prefix_mask(len(g, c), widths_[c]);
        });
        // Entry order: the first of duplicate keys wins.
        for (std::size_t i = 0; i < entries.size(); ++i) {
            if (entry_group_[i] == kUngrouped) continue;
            entry_values(entries[i], stride_, buf_);
            const std::uint32_t r = rank_[entry_group_[i]];
            indexes_[r].emplace(buf_.data(), masks_.data() + r * stride_, i);
        }
    }

    std::optional<MatchOutcome> lookup(const KeyVec& key) const override {
        if (key.size() != stride_) return std::nullopt;
        // Hash a run of groups and prefetch their home cells before probing
        // any of them, so the probes' cache misses overlap.
        constexpr std::size_t kRun = 32;
        std::uint64_t h[kRun];
        for (std::size_t base = 0; base < indexes_.size(); base += kRun) {
            const std::size_t n = std::min(kRun, indexes_.size() - base);
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t r = base + i;
                const std::uint64_t* mask = masks_.data() + r * stride_;
                h[i] = indexes_[r].hash(key.data(), mask);
                indexes_[r].prefetch(h[i]);
            }
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t r = base + i;
                const std::uint64_t* hit = indexes_[r].find_hashed(
                    h[i], key.data(), masks_.data() + r * stride_);
                if (hit != nullptr) {
                    return MatchOutcome{static_cast<std::size_t>(*hit)};
                }
            }
        }
        return std::nullopt;
    }

    int m() const override {
        return std::max(1, static_cast<int>(group_count()));
    }

private:
    int len(std::uint32_t g, std::size_t c) const {
        return static_cast<int>(
            static_cast<std::int64_t>(tuples_[g * stride_ + c]));
    }
};

// ---------------------------------------------------------- ternary engine

/// One index per distinct mask combination; every group is probed and the
/// highest-priority hit wins (the lower entry index on a tie). Range
/// components fall into a linear-scan group (ranges are not
/// mask-encodable).
class TernaryEngine final : public GroupedEngine {
public:
    void rebuild(const Table& table,
                 const std::vector<TableEntry>& entries) override {
        begin(table, entries.size());
        linear_.clear();
        linear_keys_.clear();
        tuple_buf_.resize(stride_);
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const TableEntry& e = entries[i];
            if (e.key.size() != stride_) continue;
            bool hashable = true;
            for (std::size_t c = 0; c < stride_ && hashable; ++c) {
                const FieldMatch& m = e.key[c];
                switch (m.kind) {
                    case MatchKind::Exact:
                        tuple_buf_[c] = width_mask(widths_[c]);
                        break;
                    case MatchKind::Lpm:
                        tuple_buf_[c] = prefix_mask(m.prefix_len, widths_[c]);
                        break;
                    case MatchKind::Ternary: tuple_buf_[c] = m.mask; break;
                    case MatchKind::Range: hashable = false; break;
                }
            }
            if (hashable) {
                assign_group(i);
            } else {
                linear_.push_back({i, e.priority});
                linear_keys_.insert(linear_keys_.end(), e.key.begin(),
                                    e.key.end());
            }
        }
        std::vector<std::uint32_t> order(counts_.size());
        for (std::uint32_t g = 0; g < order.size(); ++g) order[g] = g;
        layout(order, [this](std::uint32_t g, std::size_t c) {
            return tuples_[g * stride_ + c];
        });
        for (std::size_t i = 0; i < entries.size(); ++i) {
            if (entry_group_[i] == kUngrouped) continue;
            entry_values(entries[i], stride_, buf_);
            const std::uint32_t r = rank_[entry_group_[i]];
            auto [payload, inserted] =
                indexes_[r].emplace(buf_.data(), masks_.data() + r * stride_,
                                    pack(i, entries[i].priority));
            // Same masked key: keep the higher priority (the earlier entry
            // on a tie).
            if (!inserted && entries[i].priority > priority_of(*payload)) {
                *payload = pack(i, entries[i].priority);
            }
        }
    }

    std::optional<MatchOutcome> lookup(const KeyVec& key) const override {
        if (key.size() != stride_) return std::nullopt;
        bool found = false;
        std::size_t best = 0;
        int best_priority = 0;
        auto offer = [&](std::size_t index, int priority) {
            if (!found || priority > best_priority ||
                (priority == best_priority && index < best)) {
                found = true;
                best = index;
                best_priority = priority;
            }
        };
        for (std::size_t r = 0; r < indexes_.size(); ++r) {
            const std::uint64_t* hit =
                indexes_[r].find(key.data(), masks_.data() + r * stride_);
            if (hit != nullptr) offer(index_of(*hit), priority_of(*hit));
        }
        for (std::size_t l = 0; l < linear_.size(); ++l) {
            const FieldMatch* comps = linear_keys_.data() + l * stride_;
            bool hit = true;
            for (std::size_t c = 0; c < stride_ && hit; ++c) {
                hit = comps[c].matches(key[c], widths_[c]);
            }
            if (hit) offer(linear_[l].index, linear_[l].priority);
        }
        if (!found) return std::nullopt;
        return MatchOutcome{best};
    }

    int m() const override {
        return std::max(
            1, static_cast<int>(group_count() + (linear_.empty() ? 0 : 1)));
    }

private:
    /// Payload: entry index in the low 32 bits, priority in the high 32.
    static std::uint64_t pack(std::size_t index, int priority) {
        return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(priority))
                << 32) |
               static_cast<std::uint32_t>(index);
    }
    static std::size_t index_of(std::uint64_t payload) {
        return static_cast<std::uint32_t>(payload);
    }
    static int priority_of(std::uint64_t payload) {
        return static_cast<int>(static_cast<std::uint32_t>(payload >> 32));
    }

    struct LinearEntry {
        std::size_t index = 0;
        int priority = 0;
    };
    std::vector<LinearEntry> linear_;
    std::vector<FieldMatch> linear_keys_;  ///< entry l's key at [l * stride_]
};

}  // namespace

std::unique_ptr<MatchEngine> make_engine(const Table& table) {
    switch (table.effective_match_kind()) {
        case MatchKind::Exact: return std::make_unique<ExactEngine>();
        case MatchKind::Lpm: return std::make_unique<LpmEngine>();
        case MatchKind::Ternary:
        case MatchKind::Range: return std::make_unique<TernaryEngine>();
    }
    return std::make_unique<ExactEngine>();
}

}  // namespace pipeleon::sim
