// tests/test_hotpath_alloc.cpp — proves the batch hot path is allocation-free
// in steady state (ISSUE 5 acceptance criterion). A global operator new/delete
// override counts every heap allocation made while `g_counting` is armed; the
// test warms an emulator until all flows are cached and every amortized buffer
// (steering plan, worker scratch, result vector, counter shards) has reached
// its high-water capacity, then asserts that further process_batch calls make
// exactly zero allocations across all worker threads.
//
// This binary owns the override, so it must not be linked into other tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "analysis/pipelet.h"
#include "apps/scenarios.h"
#include "cost/model.h"
#include "ir/builder.h"
#include "opt/estimate.h"
#include "opt/transform.h"
#include "sim/emulator.h"
#include "sim/nic_model.h"
#include "sim/tiered_store.h"
#include "trafficgen/workload.h"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void note_alloc() {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    }
}

void* counted_alloc(std::size_t size) {
    note_alloc();
    void* p = std::malloc(size ? size : 1);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
    note_alloc();
    void* p = nullptr;
    if (align < sizeof(void*)) align = sizeof(void*);
    if (posix_memalign(&p, align, size ? size : align) != 0) {
        throw std::bad_alloc();
    }
    return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    note_alloc();
    return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    note_alloc();
    return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t al) {
    return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
    return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace pipeleon::sim {
namespace {

constexpr int kChainLen = 6;
constexpr int kFlows = 128;

TEST(HotPathAlloc, HookCountsAllocations) {
    g_alloc_count.store(0);
    g_counting.store(true);
    auto* v = new std::vector<int>(64);
    g_counting.store(false);
    delete v;
    EXPECT_GE(g_alloc_count.load(), 1u) << "override not linked in";
}

TEST(HotPathAlloc, SteadyStateBatchLoopMakesZeroAllocations) {
    ir::Program prog = ir::chain_of_exact_tables("p", kChainLen, 2, 1);
    Emulator emu(bluefield2_model(), prog, {});
    emu.set_worker_count(4);

    util::Rng rng(5);
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < kChainLen; ++i) {
        // snprintf, not string operator+: GCC 12 -O3 emits a bogus
        // -Wrestrict through char_traits when the concat inlines against
        // this binary's custom operator new, and CI builds with -Werror.
        char name[16];
        std::snprintf(name, sizeof(name), "f%d", i);
        tuple.push_back({name, 0, 255});
    }
    trafficgen::FlowSet flows =
        trafficgen::FlowSet::generate(tuple, kFlows, rng);
    apps::install_flow_entries(emu, flows);
    trafficgen::Workload wl(flows, trafficgen::Locality::Zipf, 1.1, 3);

    // One pristine batch, replayed every iteration. Packets are mutated in
    // place by processing, so each round restores them by copy-assignment —
    // equal sizes mean the inner vectors reuse capacity: no allocation.
    const PacketBatch pristine = wl.next_batch(emu.fields(), 256);
    PacketBatch work = pristine;
    BatchResult out;

    // Warm-up: steering plan, scratch, result vector, and counter shards all
    // reach their high-water capacity; pool threads are up.
    for (int i = 0; i < 6; ++i) {
        work = pristine;
        emu.process_batch(work, out);
    }

    g_alloc_count.store(0);
    g_counting.store(true);
    for (int i = 0; i < 10; ++i) {
        work = pristine;
        emu.process_batch(work, out);
    }
    g_counting.store(false);

    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "steering/dispatch hot path allocated on the steady-state batch "
           "loop";
    EXPECT_EQ(out.results.size(), pristine.size());
    EXPECT_EQ(out.workers_used, 4);
}

/// Same criterion through the flow-cache hit path: once every flow in the
/// batch has been learned, replaying the batch is pure cache hits and must
/// not touch the heap either.
TEST(HotPathAlloc, CachedProgramHitPathMakesZeroAllocations) {
    ir::Program prog = ir::chain_of_exact_tables("p", kChainLen, 2, 1);
    // Wrap the chain's head in a flow cache exactly as the figure benches do.
    analysis::PipeletOptions popt;
    popt.max_length = kChainLen + 2;
    auto pipelets = analysis::form_pipelets(prog, popt);
    opt::PipeletPlan plan;
    plan.pipelet_id = 0;
    for (std::size_t i = 0; i < pipelets[0].nodes.size(); ++i) {
        plan.layout.order.push_back(i);
    }
    plan.layout.caches = {opt::Segment{0, 2}};
    plan.layout.cache_config.capacity = 4096;
    plan.layout.cache_config.max_insert_per_sec = 1e9;
    ir::Program cached = opt::apply_plans(prog, pipelets, {plan});

    Emulator emu(bluefield2_model(), cached, {});
    emu.set_worker_count(2);

    util::Rng rng(6);
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < kChainLen; ++i) {
        // snprintf, not string operator+: GCC 12 -O3 emits a bogus
        // -Wrestrict through char_traits when the concat inlines against
        // this binary's custom operator new, and CI builds with -Werror.
        char name[16];
        std::snprintf(name, sizeof(name), "f%d", i);
        tuple.push_back({name, 0, 255});
    }
    trafficgen::FlowSet flows =
        trafficgen::FlowSet::generate(tuple, kFlows, rng);
    apps::install_flow_entries(emu, flows);
    trafficgen::Workload wl(flows, trafficgen::Locality::Zipf, 1.1, 4);

    const PacketBatch pristine = wl.next_batch(emu.fields(), 256);
    PacketBatch work = pristine;
    BatchResult out;
    for (int i = 0; i < 6; ++i) {  // learn all flows + reach capacity
        work = pristine;
        emu.process_batch(work, out);
    }

    profile::RawCounters before = emu.read_counters();

    g_alloc_count.store(0);
    g_counting.store(true);
    for (int i = 0; i < 10; ++i) {
        work = pristine;
        emu.process_batch(work, out);
    }
    g_counting.store(false);

    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "cache-hit replay path allocated in steady state";
    // The cache was genuinely exercised during the counted region.
    profile::RawCounters after = emu.read_counters();
    std::uint64_t hits_before = 0, hits_after = 0;
    for (std::uint64_t h : before.cache_hits) hits_before += h;
    for (std::uint64_t h : after.cache_hits) hits_after += h;
    EXPECT_GT(hits_after, hits_before);
}

/// Same criterion through the descriptor-ring I/O path (ISSUE 6): once the
/// ring slots' inline Packets have grown to the workload's field count and
/// the OfferedLoad source has interned its tuple ids, an offer -> poll cycle
/// is pure copy-assignment into pre-sized storage and must stay off the heap.
TEST(HotPathAlloc, RingOfferPollLoopMakesZeroAllocations) {
    ir::Program prog = ir::chain_of_exact_tables("p", kChainLen, 2, 1);
    Emulator emu(bluefield2_model(), prog, {});
    emu.set_worker_count(4);

    util::Rng rng(7);
    std::vector<trafficgen::FieldRange> tuple;
    for (int i = 0; i < kChainLen; ++i) {
        // snprintf, not string operator+: GCC 12 -O3 emits a bogus
        // -Wrestrict through char_traits when the concat inlines against
        // this binary's custom operator new, and CI builds with -Werror.
        char name[16];
        std::snprintf(name, sizeof(name), "f%d", i);
        tuple.push_back({name, 0, 255});
    }
    trafficgen::FlowSet flows =
        trafficgen::FlowSet::generate(tuple, kFlows, rng);
    apps::install_flow_entries(emu, flows);
    trafficgen::Workload wl(flows, trafficgen::Locality::Zipf, 1.1, 5);

    RingConfig cfg;
    cfg.rx_capacity = 512;
    RssDispatcher io = emu.make_rings(cfg);
    trafficgen::OfferedLoad src(wl, /*pps=*/1.0);  // offer() drives counts
    BatchResult out;

    // Warm-up: every RX slot's inline Packet must have held a max-width
    // packet at least once (copy-assign then reuses field capacity), the TX
    // completion rings must have wrapped, and the poll result vector must
    // reach its high-water size. 24 rounds x 256 packets pushes > 6x the
    // ring capacity through every queue.
    for (int i = 0; i < 24; ++i) {
        src.offer(io, emu.fields(), 256, emu.now_seconds());
        emu.poll(io, out);
    }

    g_alloc_count.store(0);
    g_counting.store(true);
    std::size_t completed = 0;
    for (int i = 0; i < 10; ++i) {
        src.offer(io, emu.fields(), 256, emu.now_seconds());
        emu.poll(io, out);
        completed += out.results.size();
    }
    g_counting.store(false);

    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "descriptor-ring offer/poll loop allocated in steady state";
    EXPECT_EQ(completed, 2560u);
    EXPECT_EQ(out.workers_used, 4);
    EXPECT_EQ(out.ring_dropped, 0u);
}

/// Offers and polls 24 warm-up rounds of 256 packets through fresh rings,
/// then counts the heap allocations of 10 more rounds. Checks that every
/// counted packet completed without a ring drop.
std::uint64_t ring_loop_allocations(Emulator& emu, trafficgen::Workload& wl) {
    RingConfig cfg;
    cfg.rx_capacity = 512;
    RssDispatcher io = emu.make_rings(cfg);
    trafficgen::OfferedLoad src(wl, /*pps=*/1.0);
    BatchResult out;
    for (int i = 0; i < 24; ++i) {
        src.offer(io, emu.fields(), 256, emu.now_seconds());
        emu.poll(io, out);
    }
    g_alloc_count.store(0);
    g_counting.store(true);
    std::size_t completed = 0;
    std::uint64_t dropped = 0;
    for (int i = 0; i < 10; ++i) {
        src.offer(io, emu.fields(), 256, emu.now_seconds());
        emu.poll(io, out);
        completed += out.results.size();
        dropped += out.ring_dropped;
    }
    g_counting.store(false);
    EXPECT_EQ(completed, 2560u);
    EXPECT_EQ(dropped, 0u);
    return g_alloc_count.load();
}

/// True when the named table both hit an entry and missed during the run
/// so far: the engine genuinely ran both probe outcomes.
bool table_hit_and_missed(const Emulator& emu, const char* table) {
    const profile::RawCounters c = emu.read_counters();
    const auto node = static_cast<std::size_t>(emu.program().find_table(table));
    std::uint64_t hits = 0;
    for (std::uint64_t h : c.action_hits[node]) hits += h;
    return hits > 0 && c.misses[node] > 0;
}

trafficgen::FlowSet four_field_flows(std::uint64_t seed) {
    util::Rng rng(seed);
    return trafficgen::FlowSet::generate(
        {{"f0", 0, 65535}, {"f1", 0, 65535}, {"f2", 0, 65535}, {"f3", 0, 65535}},
        kFlows, rng);
}

/// The ring loop over the DASH program: its routing table is an LPM table
/// with 24 prefix lengths, probed longest-first on every packet (mostly
/// missing, as in DASH), after the exact metadata, conntrack and ACL tables.
TEST(HotPathAlloc, LpmProgramRingLoopMakesZeroAllocations) {
    Emulator emu(bluefield2_model(), apps::dash_routing_program(), {});
    emu.set_worker_count(2);
    util::Rng rng(8);
    constexpr std::uint64_t kWide = 0xFFFFFFFFu;
    trafficgen::FlowSet flows = trafficgen::FlowSet::generate(
        {{"direction", 0, 1}, {"appliance_key", 0, 3}, {"eni_mac", 0, 63},
         {"vni_key", 0, 3}, {"flow_id", 0, kWide}, {"src_ip", 0, kWide},
         {"dst_ip", 0, kWide}, {"dst_port", 0, 65535}, {"ipv4_dst", 0, kWide}},
        kFlows, rng);
    apps::install_flow_entries(emu, flows);
    for (int len = 8; len < 32; ++len) {
        for (int r = 0; r < 4; ++r) {
            ir::TableEntry e;
            e.key = {ir::FieldMatch::lpm(rng.next_u64() & kWide, len)};
            e.action_data = {static_cast<std::uint64_t>(len)};
            ASSERT_TRUE(emu.insert_entry("routing", e));
        }
    }
    // A /24 for every fourth flow, so routing hits as well as misses.
    for (std::size_t f = 0; f < flows.size(); f += 4) {
        ir::TableEntry e;
        e.key = {ir::FieldMatch::lpm(flows.value(f, "ipv4_dst") & ~0xFFull, 24)};
        e.action_data = {24};
        ASSERT_TRUE(emu.insert_entry("routing", e));
    }
    trafficgen::Workload wl(flows, trafficgen::Locality::Zipf, 1.1, 9);

    EXPECT_EQ(ring_loop_allocations(emu, wl), 0u)
        << "LPM (DASH routing) ring loop allocated in steady state";
    EXPECT_TRUE(table_hit_and_missed(emu, "routing"));
}

/// The ring loop over four ternary tables, each with entries under five
/// masks and mixed priorities.
TEST(HotPathAlloc, TernaryProgramRingLoopMakesZeroAllocations) {
    Emulator emu(bluefield2_model(),
                 apps::four_table_pipelet(ir::MatchKind::Ternary), {});
    emu.set_worker_count(2);
    trafficgen::FlowSet flows = four_field_flows(10);
    util::Rng rng(11);
    const std::uint64_t masks[] = {0xFFFF, 0xFF00, 0xF0F0, 0x00FF, 0x0000};
    for (int t = 1; t <= 4; ++t) {
        char table[8];
        char field[8];
        std::snprintf(table, sizeof(table), "t%d", t);
        std::snprintf(field, sizeof(field), "f%d", t - 1);
        for (std::size_t f = 0; f < flows.size(); f += 2) {
            const std::uint64_t mask = masks[(f / 2) % 5];
            if (mask == 0 && f > 0) continue;  // one catch-all per table
            ir::TableEntry e;
            e.key = {ir::FieldMatch::ternary(flows.value(f, field) & mask, mask)};
            e.action_index = static_cast<int>(rng.next_below(2));
            e.priority = static_cast<int>(rng.next_below(3));
            ASSERT_TRUE(emu.insert_entry(table, e));
        }
    }
    trafficgen::Workload wl(flows, trafficgen::Locality::Zipf, 1.1, 12);

    EXPECT_EQ(ring_loop_allocations(emu, wl), 0u)
        << "ternary ring loop allocated in steady state";
    const profile::RawCounters c = emu.read_counters();
    const auto node = static_cast<std::size_t>(emu.program().find_table("t1"));
    EXPECT_GT(c.action_hits[node][0] + c.action_hits[node][1], 0u);
}

/// The ring loop over four range tables (the linear-scan group).
TEST(HotPathAlloc, RangeProgramRingLoopMakesZeroAllocations) {
    Emulator emu(bluefield2_model(),
                 apps::four_table_pipelet(ir::MatchKind::Range), {});
    emu.set_worker_count(2);
    trafficgen::FlowSet flows = four_field_flows(13);
    util::Rng rng(14);
    for (int t = 1; t <= 4; ++t) {
        char table[8];
        std::snprintf(table, sizeof(table), "t%d", t);
        for (int r = 0; r < 24; ++r) {
            const std::uint64_t lo = rng.next_below(65536);
            ir::TableEntry e;
            e.key = {ir::FieldMatch::range(lo, std::min<std::uint64_t>(
                                                    65535, lo + 2048))};
            e.action_index = static_cast<int>(rng.next_below(2));
            e.priority = static_cast<int>(rng.next_below(3));
            ASSERT_TRUE(emu.insert_entry(table, e));
        }
    }
    trafficgen::Workload wl(flows, trafficgen::Locality::Zipf, 1.1, 15);

    EXPECT_EQ(ring_loop_allocations(emu, wl), 0u)
        << "range ring loop allocated in steady state";
    EXPECT_TRUE(table_hit_and_missed(emu, "t1"));
}

/// Same criterion through the hierarchical store (ISSUE 9): a steady-state
/// lookup batch over all three tiers — DRAM touches, host hits through the
/// DMA descriptor ring, batch-boundary promotions and the demotion cascade
/// they trigger — must stay off the heap. Every movement between tiers swaps
/// recycled buffers; the pending-promotion list and the DMA ring are sized
/// up front.
TEST(HotPathAlloc, TieredStoreLookupBatchMakesZeroAllocations) {
    ir::CacheConfig cfg;
    cfg.capacity = 32;
    cfg.max_insert_per_sec = 1e9;
    cfg.tiers.dram_entries = 128;
    cfg.tiers.host_entries = 512;
    cfg.tiers.promote_hits = 2;
    cfg.tiers.decay_every = 4;
    cfg.tiers.dma_batch = 8;
    TierCosts costs;
    costs.l_tier_dram = 30.0;
    costs.l_tier_host = 90.0;
    costs.dma_setup = 400.0;
    costs.dma_per_entry = 16.0;
    TieredStore store(cfg, costs);

    constexpr std::uint64_t kKeys = 600;  // fully resident across 32+128+512
    KeyVec key;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
        key.clear();
        key.push_back(k);
        key.push_back(k ^ 0xABCDu);
        CacheStore::CacheEntry e;
        e.steps.push_back(ReplayStep{static_cast<ir::NodeId>(k), 0, {}});
        ASSERT_TRUE(store.insert(key, std::move(e), 0.0));
    }

    // One deterministic round: a sequential sweep with a batch boundary
    // every 64 lookups, and every seventh key touched twice back-to-back so
    // it crosses promote_hits=2 within one batch — constant promotion and
    // demotion churn through all three tiers. Warm rounds drive every
    // recycled buffer (slot arrays, free lists, probe indices, the pending
    // list, DMA ring) to the same high-water marks the counted rounds
    // revisit.
    auto sweep = [&store, &key]() {
        std::uint64_t hits = 0;
        for (std::uint64_t k = 0; k < kKeys; ++k) {
            key.clear();
            key.push_back(k);
            key.push_back(k ^ 0xABCDu);
            if (store.lookup(key).entry != nullptr) ++hits;
            if (k % 7 == 0 && store.lookup(key).entry != nullptr) ++hits;
            if (k % 64 == 63) store.flush_batch();
        }
        store.flush_batch();
        return hits;
    };
    for (int i = 0; i < 8; ++i) sweep();

    const TierStats before = store.stats();
    g_alloc_count.store(0);
    g_counting.store(true);
    std::uint64_t hits = 0;
    for (int i = 0; i < 5; ++i) hits += sweep();
    g_counting.store(false);

    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "tiered lookup/promotion/DMA path allocated in steady state";
    // Everything stays resident: 32+128+512 capacity holds all 600 keys, so
    // every lookup (600 + 86 double-touches per sweep) hits some tier.
    EXPECT_EQ(hits, 5 * (kKeys + (kKeys + 6) / 7));
    // The counted region genuinely crossed the tiers and the DMA engine.
    const TierStats after = store.stats();
    EXPECT_GT(after.dram_hits, before.dram_hits);
    EXPECT_GT(after.host_hits, before.host_hits);
    EXPECT_GT(after.dma_fetches, before.dma_fetches);
    EXPECT_GT(after.promotions, before.promotions);
    EXPECT_GT(after.demotions, before.demotions);
    EXPECT_EQ(after.lookups,
              after.sram_hits + after.dram_hits + after.host_hits +
                  after.misses);
}

/// The search evaluates thousands of layouts per re-optimization tick; each
/// evaluation reads precomputed per-table facts and the dependency matrix
/// and must not touch the heap, for every kind of layout it prices.
TEST(HotPathAlloc, PipeletEvaluateMakesZeroAllocations) {
    ir::Program prog = ir::chain_of_exact_tables("p", 4, 2, 1);
    profile::RuntimeProfile prof;
    prof.reset_for(prog, 1.0);
    for (const ir::Node& n : prog.nodes()) {
        profile::TableStats& st = prof.table(n.id);
        st.action_hits = {900, 100};
        st.entry_count = 64;
        st.entry_updates = 5;
    }
    cost::CostModel model(bluefield2_model().costs, {});
    analysis::Pipelet pipelet = analysis::form_pipelets(prog).at(0);
    opt::PipeletEvaluator ev(prog, pipelet, prof, model);

    auto layout = [](std::vector<std::size_t> order) {
        opt::CandidateLayout l;
        l.order = std::move(order);
        return l;
    };
    std::vector<opt::CandidateLayout> layouts;
    layouts.push_back(layout({3, 0, 1, 2}));  // reorder only
    layouts.push_back(layout({0, 1, 2, 3}));
    layouts.back().caches = {opt::Segment{0, 2}};  // cache segment
    layouts.push_back(layout({1, 0, 2, 3}));
    layouts.back().merges = {opt::MergeSpec{opt::Segment{0, 1}, false}};  // full
    layouts.push_back(layout({0, 1, 3, 2}));
    layouts.back().caches = {opt::Segment{0, 1}};
    layouts.back().merges = {opt::MergeSpec{opt::Segment{2, 3}, true}};  // as cache

    std::vector<opt::EvalResult> expected;
    for (const opt::CandidateLayout& l : layouts) {
        expected.push_back(ev.evaluate(l));
        ASSERT_TRUE(expected.back().valid) << l.to_string();
    }

    std::vector<opt::EvalResult> got(layouts.size() * 2);
    g_alloc_count.store(0);
    g_counting.store(true);
    for (int round = 0; round < 100; ++round) {
        for (std::size_t i = 0; i < layouts.size(); ++i) {
            got[2 * i] = ev.evaluate(layouts[i]);
            got[2 * i + 1] = ev.evaluate_in_valid_order(layouts[i]);
        }
    }
    g_counting.store(false);

    EXPECT_EQ(g_alloc_count.load(), 0u) << "PipeletEvaluator::evaluate allocated";
    for (std::size_t i = 0; i < layouts.size(); ++i) {
        for (std::size_t k : {2 * i, 2 * i + 1}) {
            EXPECT_TRUE(got[k].valid);
            EXPECT_EQ(got[k].latency, expected[i].latency);
            EXPECT_EQ(got[k].extra_memory, expected[i].extra_memory);
            EXPECT_EQ(got[k].extra_updates, expected[i].extra_updates);
        }
    }
}

}  // namespace
}  // namespace pipeleon::sim
