// Tests for sim/engine: exact / LPM / ternary match engines and their probe
// counts (the m of Equation 4a).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ir/builder.h"
#include "sim/engine.h"
#include "sim/table_state.h"
#include "util/rng.h"

namespace pipeleon::sim {
namespace {

using ir::FieldMatch;
using ir::MatchKind;
using ir::Table;
using ir::TableEntry;
using ir::TableSpec;

TableEntry entry1(FieldMatch m, int action = 0, int priority = 0) {
    TableEntry e;
    e.key = {m};
    e.action_index = action;
    e.priority = priority;
    return e;
}

TEST(ExactEngine, LookupAndMiss) {
    Table t = TableSpec("t").key("f").noop_action("a").build();
    auto engine = make_engine(t);
    std::vector<TableEntry> entries{entry1(FieldMatch::exact(5)),
                                    entry1(FieldMatch::exact(9))};
    engine->rebuild(t, entries);
    EXPECT_EQ(engine->m(), 1);
    auto hit = engine->lookup({5});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->entry_index, 0u);
    EXPECT_TRUE(engine->lookup({9}).has_value());
    EXPECT_FALSE(engine->lookup({6}).has_value());
}

TEST(ExactEngine, MultiComponentKeys) {
    Table t = TableSpec("t").key("a").key("b").noop_action("x").build();
    auto engine = make_engine(t);
    TableEntry e;
    e.key = {FieldMatch::exact(1), FieldMatch::exact(2)};
    e.action_index = 0;
    engine->rebuild(t, {e});
    EXPECT_TRUE(engine->lookup({1, 2}).has_value());
    EXPECT_FALSE(engine->lookup({2, 1}).has_value());
}

TEST(LpmEngine, LongestPrefixWins) {
    Table t = TableSpec("t").key("dst", MatchKind::Lpm).noop_action("a").build();
    auto engine = make_engine(t);
    std::vector<TableEntry> entries{
        entry1(FieldMatch::lpm(0x0A000000, 8)),    // 10/8
        entry1(FieldMatch::lpm(0x0A0B0000, 16)),   // 10.11/16
        entry1(FieldMatch::lpm(0x0A0B0C00, 24)),   // 10.11.12/24
    };
    engine->rebuild(t, entries);
    EXPECT_EQ(engine->m(), 3);  // three distinct prefix lengths
    EXPECT_EQ(engine->lookup({0x0A0B0C0D})->entry_index, 2u);
    EXPECT_EQ(engine->lookup({0x0A0B0F01})->entry_index, 1u);
    EXPECT_EQ(engine->lookup({0x0AFFFFFF})->entry_index, 0u);
    EXPECT_FALSE(engine->lookup({0x0B000000}).has_value());
}

TEST(LpmEngine, DefaultRouteViaZeroPrefix) {
    Table t = TableSpec("t").key("dst", MatchKind::Lpm).noop_action("a").build();
    auto engine = make_engine(t);
    std::vector<TableEntry> entries{entry1(FieldMatch::lpm(0, 0)),
                                    entry1(FieldMatch::lpm(0x0A000000, 8))};
    engine->rebuild(t, entries);
    EXPECT_EQ(engine->lookup({0x0A123456})->entry_index, 1u);
    EXPECT_EQ(engine->lookup({0x22222222})->entry_index, 0u);
}

TEST(LpmEngine, MixedExactComponent) {
    Table t = TableSpec("t")
                  .key("vrf", MatchKind::Exact, 16)
                  .key("dst", MatchKind::Lpm)
                  .noop_action("a")
                  .build();
    auto engine = make_engine(t);
    TableEntry e;
    e.key = {FieldMatch::exact(7), FieldMatch::lpm(0x0A000000, 8)};
    e.action_index = 0;
    engine->rebuild(t, {e});
    EXPECT_TRUE(engine->lookup({7, 0x0A010203}).has_value());
    EXPECT_FALSE(engine->lookup({8, 0x0A010203}).has_value());
}

TEST(TernaryEngine, PriorityArbitration) {
    Table t = TableSpec("t").key("f", MatchKind::Ternary).noop_action("a").build();
    auto engine = make_engine(t);
    std::vector<TableEntry> entries{
        entry1(FieldMatch::ternary(0x0A00, 0xFF00), 0, 1),
        entry1(FieldMatch::ternary(0x0A0B, 0xFFFF), 0, 2),
        entry1(FieldMatch::wildcard(), 0, 0),
    };
    engine->rebuild(t, entries);
    EXPECT_EQ(engine->m(), 3);  // three distinct masks
    EXPECT_EQ(engine->lookup({0x0A0B})->entry_index, 1u);  // most specific
    EXPECT_EQ(engine->lookup({0x0A0C})->entry_index, 0u);
    EXPECT_EQ(engine->lookup({0x1234})->entry_index, 2u);  // wildcard
}

TEST(TernaryEngine, SameMaskHigherPriorityWins) {
    Table t = TableSpec("t").key("f", MatchKind::Ternary).noop_action("a").build();
    auto engine = make_engine(t);
    std::vector<TableEntry> entries{
        entry1(FieldMatch::ternary(5, 0xFF), 0, 1),
        entry1(FieldMatch::ternary(5, 0xFF), 0, 9),
    };
    engine->rebuild(t, entries);
    EXPECT_EQ(engine->lookup({5})->entry_index, 1u);
}

TEST(TernaryEngine, MaskCountDrivesM) {
    Table t = TableSpec("t").key("f", MatchKind::Ternary).noop_action("a").build();
    auto engine = make_engine(t);
    std::vector<TableEntry> entries;
    for (std::uint64_t i = 0; i < 5; ++i) {
        entries.push_back(entry1(FieldMatch::ternary(0, 0xFULL << (4 * i))));
    }
    engine->rebuild(t, entries);
    EXPECT_EQ(engine->m(), 5);  // "five different masks" (§3.1 methodology)
}

TEST(TernaryEngine, RangeEntriesUseLinearGroup) {
    Table t = TableSpec("t").key("port", MatchKind::Range, 16).noop_action("a").build();
    auto engine = make_engine(t);
    std::vector<TableEntry> entries{entry1(FieldMatch::range(100, 200), 0, 1),
                                    entry1(FieldMatch::range(150, 300), 0, 2)};
    engine->rebuild(t, entries);
    EXPECT_FALSE(engine->lookup({99}).has_value());
    EXPECT_EQ(engine->lookup({120})->entry_index, 0u);
    EXPECT_EQ(engine->lookup({180})->entry_index, 1u);  // overlap: priority 2
    EXPECT_EQ(engine->lookup({250})->entry_index, 1u);
}

TEST(TernaryEngine, ExactComponentsGetFullMask) {
    Table t = TableSpec("t")
                  .key("a", MatchKind::Exact)
                  .key("b", MatchKind::Ternary)
                  .noop_action("x")
                  .build();
    auto engine = make_engine(t);
    TableEntry e;
    e.key = {FieldMatch::exact(3), FieldMatch::wildcard()};
    e.action_index = 0;
    engine->rebuild(t, {e});
    EXPECT_TRUE(engine->lookup({3, 999}).has_value());
    EXPECT_FALSE(engine->lookup({4, 999}).has_value());
}

TEST(Engines, EmptyTablesMissEverything) {
    for (MatchKind kind : {MatchKind::Exact, MatchKind::Lpm, MatchKind::Ternary}) {
        Table t = TableSpec("t").key("f", kind).noop_action("a").build();
        auto engine = make_engine(t);
        engine->rebuild(t, {});
        EXPECT_FALSE(engine->lookup({1}).has_value());
        EXPECT_GE(engine->m(), 1);
    }
}

TEST(KeyVecHash, DifferentKeysDifferentHashesUsually) {
    KeyVecHash h;
    EXPECT_NE(h({1, 2}), h({2, 1}));
    EXPECT_EQ(h({5}), h({5}));
}

// Property sweep: engines agree with brute-force matching over random
// entry sets.
class EngineAgainstBruteForce : public testing::TestWithParam<int> {};

TEST_P(EngineAgainstBruteForce, TernaryMatchesReference) {
    util::Rng rng(static_cast<std::uint64_t>(GetParam()));
    Table t = TableSpec("t").key("f", MatchKind::Ternary, 16).noop_action("a").build();
    std::vector<TableEntry> entries;
    for (int i = 0; i < 32; ++i) {
        std::uint64_t mask = rng.next_below(4) == 0
                                 ? 0xFFFF
                                 : (0xFFFFULL & ~((1ULL << rng.next_below(12)) - 1));
        TableEntry e = entry1(
            FieldMatch::ternary(rng.next_below(0x10000) & mask, mask), 0,
            static_cast<int>(rng.next_below(8)));
        entries.push_back(e);
    }
    auto engine = make_engine(t);
    engine->rebuild(t, entries);

    for (int trial = 0; trial < 200; ++trial) {
        std::uint64_t key = rng.next_below(0x10000);
        // Brute force reference.
        int best = -1;
        for (std::size_t i = 0; i < entries.size(); ++i) {
            if (!entries[i].key[0].matches(key, 16)) continue;
            if (best < 0 ||
                entries[i].priority > entries[static_cast<std::size_t>(best)].priority ||
                (entries[i].priority ==
                     entries[static_cast<std::size_t>(best)].priority &&
                 i < static_cast<std::size_t>(best))) {
                best = static_cast<int>(i);
            }
        }
        auto got = engine->lookup({key});
        if (best < 0) {
            EXPECT_FALSE(got.has_value());
        } else {
            ASSERT_TRUE(got.has_value());
            const TableEntry& g = entries[got->entry_index];
            const TableEntry& want = entries[static_cast<std::size_t>(best)];
            EXPECT_EQ(g.priority, want.priority);
            EXPECT_TRUE(g.key[0].matches(key, 16));
        }
    }
}

// ------------------------------------------------ differential reference

/// The match the engines must return, by brute force over
/// ir::TableEntry::matches: exact tables take the first matching entry; LPM
/// tables the longest total prefix (ties: the larger length tuple, then the
/// earlier entry); ternary and range tables the highest priority (ties: the
/// earlier entry).
std::optional<std::size_t> reference_lookup(const Table& t,
                                            const std::vector<TableEntry>& entries,
                                            const KeyVec& key) {
    const MatchKind kind = t.effective_match_kind();
    auto lens = [&t](const TableEntry& e) {
        std::vector<int> out;
        int total = 0;
        for (std::size_t c = 0; c < e.key.size(); ++c) {
            int len = e.key[c].kind == MatchKind::Lpm ? e.key[c].prefix_len
                                                      : t.keys[c].width_bits;
            out.push_back(len);
            total += len;
        }
        out.insert(out.begin(), total);
        return out;
    };
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (!entries[i].matches(key, t.keys)) continue;
        if (kind == MatchKind::Exact) return i;
        if (!best.has_value()) {
            best = i;
            continue;
        }
        const TableEntry& b = entries[*best];
        bool better = kind == MatchKind::Lpm ? lens(entries[i]) > lens(b)
                                             : entries[i].priority > b.priority;
        if (better) best = i;
    }
    return best;
}

/// Checks the engine against the reference on `probes` keys, then reports
/// how many of them hit (so a test can require both hits and misses).
std::size_t expect_matches_reference(const Table& t,
                                     const std::vector<TableEntry>& entries,
                                     const std::vector<KeyVec>& probes) {
    auto engine = make_engine(t);
    engine->rebuild(t, entries);
    std::size_t hits = 0;
    for (const KeyVec& key : probes) {
        std::optional<std::size_t> want = reference_lookup(t, entries, key);
        std::optional<MatchOutcome> got = engine->lookup(key);
        EXPECT_EQ(got.has_value(), want.has_value());
        if (got.has_value() && want.has_value()) {
            EXPECT_EQ(got->entry_index, *want);
            ++hits;
        }
    }
    return hits;
}

std::uint64_t random_field(util::Rng& rng, int width_bits) {
    const std::uint64_t v = rng.next_u64();
    return width_bits >= 64 ? v : v & ((1ULL << width_bits) - 1);
}

/// Probe keys: half copy a random entry's values (hits, after masking),
/// with random low bits; the rest are uniform over the key space.
std::vector<KeyVec> probe_keys(const Table& t,
                               const std::vector<TableEntry>& entries,
                               util::Rng& rng, int n) {
    std::vector<KeyVec> probes;
    for (int p = 0; p < n; ++p) {
        KeyVec key;
        const bool near = !entries.empty() && rng.chance(0.5);
        const TableEntry* e =
            near ? &entries[rng.next_below(entries.size())] : nullptr;
        for (std::size_t c = 0; c < t.keys.size(); ++c) {
            const int w = t.keys[c].width_bits;
            std::uint64_t v = random_field(rng, w);
            if (e != nullptr) {
                const FieldMatch& m = e->key[c];
                switch (m.kind) {
                    case MatchKind::Exact: v = m.value; break;
                    case MatchKind::Lpm: {
                        const int free_bits = w - m.prefix_len;
                        const std::uint64_t low =
                            free_bits >= 64 ? ~0ULL : (1ULL << free_bits) - 1;
                        v = (m.value & ~low) | (v & low);
                        break;
                    }
                    case MatchKind::Ternary: v = (m.value & m.mask) | (v & ~m.mask); break;
                    case MatchKind::Range:
                        v = m.value + rng.next_below(m.mask - m.value + 1);
                        break;
                }
            }
            key.push_back(v);
        }
        probes.push_back(std::move(key));
    }
    return probes;
}

TEST_P(EngineAgainstBruteForce, ExactWithDuplicatesMatchesReference) {
    util::Rng rng(static_cast<std::uint64_t>(GetParam()));
    Table t = TableSpec("t").key("a", MatchKind::Exact, 8)
                  .key("b", MatchKind::Exact, 4)
                  .noop_action("x")
                  .build();
    std::vector<TableEntry> entries;
    for (int i = 0; i < 64; ++i) {
        // A 12-bit key space for 64 entries, plus explicit repeats: the
        // first entry of each duplicate key must win.
        TableEntry e;
        if (i > 0 && rng.chance(0.2)) {
            e.key = entries[rng.next_below(entries.size())].key;
        } else {
            e.key = {FieldMatch::exact(rng.next_below(256)),
                     FieldMatch::exact(rng.next_below(16))};
        }
        e.action_index = i;
        entries.push_back(e);
    }
    auto probes = probe_keys(t, entries, rng, 300);
    EXPECT_GT(expect_matches_reference(t, entries, probes), 100u);
    auto engine = make_engine(t);
    engine->rebuild(t, entries);
    EXPECT_EQ(engine->m(), 1);
}

TEST_P(EngineAgainstBruteForce, LpmMixedExactMatchesReference) {
    util::Rng rng(static_cast<std::uint64_t>(GetParam()));
    Table t = TableSpec("t")
                  .key("vrf", MatchKind::Exact, 2)
                  .key("dst", MatchKind::Lpm, 16)
                  .key("src", MatchKind::Lpm, 8)
                  .noop_action("x")
                  .build();
    std::vector<TableEntry> entries;
    for (int i = 0; i < 96; ++i) {
        TableEntry e;
        if (i > 0 && rng.chance(0.1)) {
            // Exact repeat: same group, same masked key — first wins.
            e = entries[rng.next_below(entries.size())];
        } else {
            // Prefix lengths include 0 (default routes) and the full width.
            e.key = {FieldMatch::exact(rng.next_below(4)),
                     FieldMatch::lpm(random_field(rng, 16),
                                     static_cast<int>(rng.next_below(17))),
                     FieldMatch::lpm(random_field(rng, 8),
                                     static_cast<int>(rng.next_below(3)) * 4)};
            if (i > 0 && rng.chance(0.1)) {
                // Same prefix lengths, values differing only below the
                // prefix: a duplicate masked key inside one group.
                const TableEntry& o = entries[rng.next_below(entries.size())];
                e.key = o.key;
                const int free_bits = 16 - o.key[1].prefix_len;
                if (free_bits > 0) {
                    e.key[1].value ^= 1ULL << rng.next_below(
                        static_cast<std::uint64_t>(free_bits));
                }
            }
        }
        e.action_index = i;
        entries.push_back(e);
    }
    auto probes = probe_keys(t, entries, rng, 400);
    EXPECT_GT(expect_matches_reference(t, entries, probes), 100u);
    auto engine = make_engine(t);
    engine->rebuild(t, entries);
    // One probe per distinct prefix-length tuple (exact components count
    // as full-width prefixes).
    std::set<std::pair<int, int>> tuples;
    for (const TableEntry& e : entries) {
        tuples.insert({e.key[1].prefix_len, e.key[2].prefix_len});
    }
    EXPECT_EQ(engine->m(), static_cast<int>(tuples.size()));
}

TEST_P(EngineAgainstBruteForce, TernaryPriorityTiesMatchReference) {
    util::Rng rng(static_cast<std::uint64_t>(GetParam()));
    Table t = TableSpec("t")
                  .key("a", MatchKind::Ternary, 8)
                  .key("b", MatchKind::Exact, 8)
                  .noop_action("x")
                  .build();
    const std::uint64_t masks[] = {0xFF, 0xF0, 0x0F, 0x00, 0xC3};
    std::vector<TableEntry> entries;
    for (int i = 0; i < 80; ++i) {
        TableEntry e;
        const std::uint64_t mask = masks[rng.next_below(5)];
        e.key = {FieldMatch::ternary(rng.next_below(256) & mask, mask),
                 FieldMatch::exact(rng.next_below(4))};
        // Three priority levels: ties are common and the lower index wins.
        e.priority = static_cast<int>(rng.next_below(3));
        if (i > 0 && rng.chance(0.1)) {
            e.key = entries[rng.next_below(entries.size())].key;
        }
        e.action_index = i;
        entries.push_back(e);
    }
    auto probes = probe_keys(t, entries, rng, 400);
    EXPECT_GT(expect_matches_reference(t, entries, probes), 100u);
}

TEST_P(EngineAgainstBruteForce, RangeAndTernaryMixMatchesReference) {
    util::Rng rng(static_cast<std::uint64_t>(GetParam()));
    Table t = TableSpec("t")
                  .key("proto", MatchKind::Exact, 4)
                  .key("port", MatchKind::Range, 12)
                  .noop_action("x")
                  .build();
    std::vector<TableEntry> entries;
    for (int i = 0; i < 48; ++i) {
        TableEntry e;
        const std::uint64_t lo = rng.next_below(4096);
        const std::uint64_t hi = std::min<std::uint64_t>(
            4095, lo + rng.next_below(512));
        // Most entries scan linearly (a range component); some carry a
        // ternary port instead and land in hashed groups, so both kinds
        // take part in the same priority arbitration.
        FieldMatch port = rng.chance(0.75)
                              ? FieldMatch::range(lo, hi)
                              : FieldMatch::ternary(lo & 0xF00, 0xF00);
        e.key = {FieldMatch::exact(rng.next_below(3)), port};
        e.priority = static_cast<int>(rng.next_below(4));
        e.action_index = i;
        entries.push_back(e);
    }
    auto probes = probe_keys(t, entries, rng, 400);
    EXPECT_GT(expect_matches_reference(t, entries, probes), 100u);
}

/// Keys wider than eight fields (what merged tables produce) through every
/// engine kind.
TEST_P(EngineAgainstBruteForce, WideKeysMatchReference) {
    util::Rng rng(static_cast<std::uint64_t>(GetParam()));
    constexpr int kFields = 11;
    for (MatchKind last : {MatchKind::Exact, MatchKind::Lpm, MatchKind::Ternary}) {
        TableSpec spec("wide");
        for (int f = 0; f + 1 < kFields; ++f) {
            spec.key("f" + std::to_string(f), MatchKind::Exact, f == 0 ? 64 : 3);
        }
        spec.key("last", last, 16);
        Table t = spec.noop_action("x").build();
        std::vector<TableEntry> entries;
        for (int i = 0; i < 40; ++i) {
            TableEntry e;
            for (int f = 0; f + 1 < kFields; ++f) {
                e.key.push_back(FieldMatch::exact(
                    f == 0 ? rng.next_below(2) << 63 : rng.next_below(2)));
            }
            const std::uint64_t v = random_field(rng, 16);
            switch (last) {
                case MatchKind::Lpm:
                    e.key.push_back(FieldMatch::lpm(
                        v, static_cast<int>(rng.next_below(5)) * 4));
                    break;
                case MatchKind::Ternary:
                    e.key.push_back(FieldMatch::ternary(v, rng.chance(0.5) ? 0xFFFF : 0xFF00));
                    break;
                default: e.key.push_back(FieldMatch::exact(v)); break;
            }
            e.priority = static_cast<int>(rng.next_below(2));
            e.action_index = i;
            entries.push_back(e);
        }
        auto probes = probe_keys(t, entries, rng, 200);
        EXPECT_GT(expect_matches_reference(t, entries, probes), 50u)
            << "last component kind " << static_cast<int>(last);
    }
}

/// Control-plane updates: after every insert / erase / modify, the live
/// TableState answers exactly as an engine freshly built from its entries.
TEST_P(EngineAgainstBruteForce, TableStateUpdatesMatchFreshEngine) {
    util::Rng rng(static_cast<std::uint64_t>(GetParam()));
    Table t = TableSpec("t")
                  .key("vrf", MatchKind::Exact, 2)
                  .key("dst", MatchKind::Lpm, 16)
                  .noop_action("a")
                  .noop_action("b")
                  .size(64)
                  .build();
    TableState state(t);
    std::vector<KeyVec> probes;
    for (int p = 0; p < 64; ++p) {
        probes.push_back({rng.next_below(4), random_field(rng, 16)});
    }
    for (int op = 0; op < 150; ++op) {
        const auto& live = state.entries();
        const std::uint64_t roll = rng.next_below(10);
        if (roll < 2 && !live.empty()) {
            const std::vector<FieldMatch> key =
                live[rng.next_below(live.size())].key;
            EXPECT_TRUE(state.erase(key));
        } else if (roll < 4 && !live.empty()) {
            TableEntry e = live[rng.next_below(live.size())];
            e.action_index = 1 - e.action_index;
            EXPECT_TRUE(state.modify(e));
        } else {
            TableEntry e;
            e.key = {FieldMatch::exact(rng.next_below(4)),
                     FieldMatch::lpm(random_field(rng, 16),
                                     static_cast<int>(rng.next_below(5)) * 4)};
            state.insert(e);  // may fail on a full table; state unchanged
        }
        auto fresh = make_engine(t);
        fresh->rebuild(t, state.entries());
        EXPECT_EQ(state.m(), fresh->m());
        for (const KeyVec& key : probes) {
            std::optional<MatchOutcome> got = state.lookup(key);
            std::optional<MatchOutcome> want = fresh->lookup(key);
            ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
            if (got.has_value()) {
                EXPECT_EQ(got->entry_index, want->entry_index) << "op " << op;
            }
            std::optional<std::size_t> ref =
                reference_lookup(t, state.entries(), key);
            EXPECT_EQ(got.has_value(), ref.has_value());
            if (got.has_value() && ref.has_value()) {
                EXPECT_EQ(got->entry_index, *ref);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgainstBruteForce, testing::Range(1, 11));

/// Workers share one built engine read-only during a batch: concurrent
/// lookups from four threads return what one thread does (and, under
/// TSan, race with nothing).
TEST(Engines, ConcurrentLookupsMatchSingleThread) {
    util::Rng rng(41);
    Table t = TableSpec("t")
                  .key("vrf", MatchKind::Exact, 4)
                  .key("dst", MatchKind::Ternary, 16)
                  .noop_action("a")
                  .build();
    std::vector<TableEntry> entries;
    for (int i = 0; i < 256; ++i) {
        TableEntry e;
        const std::uint64_t mask = 0xFFFFULL << rng.next_below(12) & 0xFFFF;
        e.key = {FieldMatch::exact(rng.next_below(16)),
                 FieldMatch::ternary(random_field(rng, 16) & mask, mask)};
        e.priority = static_cast<int>(rng.next_below(4));
        entries.push_back(e);
    }
    auto engine = make_engine(t);
    engine->rebuild(t, entries);
    const std::vector<KeyVec> probes = probe_keys(t, entries, rng, 2000);
    std::vector<long long> want;
    for (const KeyVec& key : probes) {
        auto got = engine->lookup(key);
        want.push_back(got ? static_cast<long long>(got->entry_index) : -1);
    }
    constexpr int kThreads = 4;
    std::vector<std::vector<long long>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
        threads.emplace_back([&, w] {
            for (int round = 0; round < 5; ++round) {
                seen[w].clear();
                for (const KeyVec& key : probes) {
                    auto got = engine->lookup(key);
                    seen[w].push_back(
                        got ? static_cast<long long>(got->entry_index) : -1);
                }
            }
        });
    }
    for (std::thread& th : threads) th.join();
    for (int w = 0; w < kThreads; ++w) EXPECT_EQ(seen[w], want) << "thread " << w;
}

}  // namespace
}  // namespace pipeleon::sim
