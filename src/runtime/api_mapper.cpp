#include "runtime/api_mapper.h"

#include <algorithm>
#include <optional>

#include "opt/merge.h"
#include "util/logging.h"

namespace pipeleon::runtime {

using ir::Node;
using ir::NodeId;
using ir::TableEntry;
using ir::TableRole;

ApiMapper::ApiMapper(const ir::Program& original) : original_(original) {
    for (const Node& n : original_.nodes()) {
        if (n.is_table()) {
            tables_.emplace(n.table.name, n.table);
            store_.emplace(n.table.name, std::vector<TableEntry>{});
            stats_.emplace(n.table.name, StoreStats{});
        }
    }
}

bool ApiMapper::insert(sim::Emulator& emulator, const std::string& table,
                       const TableEntry& entry) {
    auto it = tables_.find(table);
    if (it == tables_.end() || !entry.compatible_with(it->second)) return false;
    store_[table].push_back(entry);
    propagate(emulator, table);
    return true;
}

bool ApiMapper::erase(sim::Emulator& emulator, const std::string& table,
                      const std::vector<ir::FieldMatch>& key) {
    auto it = store_.find(table);
    if (it == store_.end()) return false;
    auto& entries = it->second;
    auto pos = std::find_if(entries.begin(), entries.end(),
                            [&key](const TableEntry& e) { return e.key == key; });
    if (pos == entries.end()) return false;
    entries.erase(pos);
    propagate(emulator, table);
    return true;
}

bool ApiMapper::modify(sim::Emulator& emulator, const std::string& table,
                       const TableEntry& entry) {
    auto it = store_.find(table);
    if (it == store_.end()) return false;
    for (TableEntry& e : it->second) {
        if (e.key == entry.key) {
            e = entry;
            propagate(emulator, table);
            return true;
        }
    }
    return false;
}

const std::vector<TableEntry>& ApiMapper::entries(const std::string& table) const {
    static const std::vector<TableEntry> kEmpty;
    auto it = store_.find(table);
    return it == store_.end() ? kEmpty : it->second;
}

namespace {

/// Computes a merged table's cross-product entries from the original store
/// (no emulator involved). nullopt when a source is unknown or the rebuild
/// exceeds opt::build_merged_entries limits.
std::optional<std::vector<TableEntry>> compute_merged(
    const ir::Table& merged,
    const std::unordered_map<std::string, ir::Table>& tables,
    const std::unordered_map<std::string, std::vector<TableEntry>>& store) {
    std::vector<const ir::Table*> sources;
    std::vector<std::vector<TableEntry>> source_entries;
    for (const std::string& origin : merged.origin_tables) {
        auto t = tables.find(origin);
        auto e = store.find(origin);
        if (t == tables.end() || e == store.end()) return std::nullopt;
        sources.push_back(&t->second);
        source_entries.push_back(e->second);
    }
    bool as_cache = merged.role == TableRole::MergedCache;
    return opt::build_merged_entries(sources, source_entries, merged, as_cache);
}

/// Rebuilds a merged table's entries from the original store.
bool rebuild_merged(
    sim::Emulator& emulator, const ir::Table& merged,
    const std::unordered_map<std::string, ir::Table>& tables,
    const std::unordered_map<std::string, std::vector<TableEntry>>& store) {
    auto entries = compute_merged(merged, tables, store);
    if (!entries.has_value()) {
        util::log_warn("ApiMapper: merged entry rebuild for '" + merged.name +
                       "' exceeded limits; table left unchanged");
        return false;
    }
    return emulator.set_entries(merged.name, std::move(*entries));
}

}  // namespace

void ApiMapper::propagate(sim::Emulator& emulator, const std::string& table) {
    StoreStats& stats = stats_[table];
    ++stats.window_updates;
    stats.stale = true;

    const ir::Program& deployed = emulator.program();
    for (const Node& n : deployed.nodes()) {
        if (!n.is_table()) continue;
        const ir::Table& t = n.table;
        switch (t.role) {
            case TableRole::Original:
                if (t.name == table) {
                    emulator.set_entries(t.name, store_[table]);
                }
                break;
            case TableRole::Merged:
            case TableRole::MergedCache: {
                const auto& origins = t.origin_tables;
                if (std::find(origins.begin(), origins.end(), table) !=
                    origins.end()) {
                    rebuild_merged(emulator, t, tables_, store_);
                }
                break;
            }
            case TableRole::Cache:
            case TableRole::Navigation:
            case TableRole::Migration:
                break;
        }
    }
    emulator.invalidate_caches_covering(table);
}

void ApiMapper::deploy_entries(sim::Emulator& emulator) const {
    const ir::Program& deployed = emulator.program();
    for (const Node& n : deployed.nodes()) {
        if (!n.is_table()) continue;
        const ir::Table& t = n.table;
        switch (t.role) {
            case TableRole::Original: {
                auto it = store_.find(t.name);
                if (it != store_.end()) {
                    emulator.set_entries(t.name, it->second);
                }
                break;
            }
            case TableRole::Merged:
            case TableRole::MergedCache:
                rebuild_merged(emulator, t, tables_, store_);
                break;
            case TableRole::Cache:
            case TableRole::Navigation:
            case TableRole::Migration:
                break;
        }
    }
}

std::vector<ir::EntryLoad> ApiMapper::remapped_entries(
    const ir::Program& deployed) const {
    std::vector<ir::EntryLoad> loads;
    for (const Node& n : deployed.nodes()) {
        if (!n.is_table()) continue;
        const ir::Table& t = n.table;
        switch (t.role) {
            case TableRole::Original: {
                auto it = store_.find(t.name);
                if (it != store_.end()) {
                    loads.push_back(ir::EntryLoad{t.name, it->second});
                }
                break;
            }
            case TableRole::Merged:
            case TableRole::MergedCache: {
                auto entries = compute_merged(t, tables_, store_);
                if (entries.has_value()) {
                    loads.push_back(ir::EntryLoad{t.name, std::move(*entries)});
                } else {
                    util::log_warn("ApiMapper: merged entry rebuild for '" +
                                   t.name + "' exceeded limits; no load");
                }
                break;
            }
            case TableRole::Cache:
            case TableRole::Navigation:
            case TableRole::Migration:
                break;
        }
    }
    return loads;
}

std::unordered_map<std::string, profile::EntrySnapshot> ApiMapper::snapshots() {
    std::unordered_map<std::string, profile::EntrySnapshot> out;
    for (const auto& [name, entries] : store_) {
        StoreStats& stats = stats_[name];
        if (stats.stale) {
            stats.lpm_prefixes = ir::distinct_prefix_lengths(entries);
            stats.ternary_masks = ir::distinct_masks(entries);
            stats.stale = false;
        }
        profile::EntrySnapshot snap;
        snap.entry_count = entries.size();
        snap.entry_updates = stats.window_updates;
        snap.lpm_prefix_count = stats.lpm_prefixes;
        snap.ternary_mask_count = stats.ternary_masks;
        out.emplace(name, snap);
    }
    return out;
}

void ApiMapper::begin_window() {
    for (auto& [name, stats] : stats_) stats.window_updates = 0;
}

}  // namespace pipeleon::runtime
