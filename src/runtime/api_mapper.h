// runtime/api_mapper.h — control-plane API mapping (§2.3): "Pipeleon ensures
// the same program management APIs (e.g., entry insertion) by mapping the
// API calls to the original program to the optimized version." Operators
// keep inserting/deleting entries against original table names; the mapper
// owns the authoritative original-space entry store, pushes the entries to
// whatever deployed tables implement each original one (including rebuilding
// merged tables' Cartesian entries), invalidates covering caches, and
// tracks per-table update rates for the profiler.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/program.h"
#include "profile/counter_map.h"
#include "sim/emulator.h"

namespace pipeleon::runtime {

class ApiMapper {
public:
    explicit ApiMapper(const ir::Program& original);

    // ---------------------------------------------- operator-facing API

    /// Inserts an entry into an original table; propagated to the deployed
    /// program in `emulator`. Returns false for unknown tables or
    /// incompatible entries.
    bool insert(sim::Emulator& emulator, const std::string& table,
                const ir::TableEntry& entry);
    bool erase(sim::Emulator& emulator, const std::string& table,
               const std::vector<ir::FieldMatch>& key);
    bool modify(sim::Emulator& emulator, const std::string& table,
                const ir::TableEntry& entry);

    /// The original-space entries of a table (empty vector for unknown).
    const std::vector<ir::TableEntry>& entries(const std::string& table) const;

    // ------------------------------------------------- deployment support

    /// Installs the full original-space store into a freshly deployed
    /// program: direct tables get their entries, merged tables get the
    /// rebuilt cross products.
    void deploy_entries(sim::Emulator& emulator) const;

    /// Pure compute half of deploy_entries: the entry loads (deployed table
    /// name -> entries) a deployment of `deployed` needs, without touching
    /// any emulator. The controller runs this off the hot path, hands the
    /// result to the verifier's entry.remap.* pass, and ships it inside a
    /// single EpochSwap so layout and entries install atomically. Merged
    /// tables whose rebuild exceeds limits yield no load (the verifier
    /// reports them as entry.remap.missing-load).
    std::vector<ir::EntryLoad> remapped_entries(
        const ir::Program& deployed) const;

    /// The authoritative original-space store (for the verifier).
    const std::unordered_map<std::string, std::vector<ir::TableEntry>>& store()
        const {
        return store_;
    }

    // ------------------------------------------------------- profiling

    /// Per-original-table entry snapshots for the current window (counts,
    /// update totals, prefix/mask diversity). Merged-away tables are
    /// included — the emulator cannot know them. Prefix/mask diversity is
    /// cached per table and recounted only for tables updated since the
    /// previous call, so a tick does not rescan unchanged stores.
    std::unordered_map<std::string, profile::EntrySnapshot> snapshots();

    /// Zeroes the window update counters.
    void begin_window();

private:
    /// Records an update of the original table (window count, stale
    /// diversity), re-pushes its state into every deployed table that
    /// implements it and invalidates covering caches.
    void propagate(sim::Emulator& emulator, const std::string& table);

    /// Per-original-table bookkeeping behind snapshots().
    struct StoreStats {
        std::uint64_t window_updates = 0;
        int lpm_prefixes = 0;   ///< ir::distinct_prefix_lengths of the store
        int ternary_masks = 0;  ///< ir::distinct_masks of the store
        bool stale = false;     ///< store changed since the counts were taken
    };

    // Hashed by table name, matching the FieldTable interning pattern: the
    // propagate path runs on every control-plane call and should not pay
    // ordered-tree string comparisons.
    ir::Program original_;
    std::unordered_map<std::string, ir::Table> tables_;
    std::unordered_map<std::string, std::vector<ir::TableEntry>> store_;
    std::unordered_map<std::string, StoreStats> stats_;
};

}  // namespace pipeleon::runtime
