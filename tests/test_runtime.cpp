// Tests for runtime/api_mapper and runtime/controller: control-plane API
// mapping onto optimized layouts (§2.3) and the profile->optimize->deploy
// loop (Fig 3).
#include <gtest/gtest.h>

#include "analysis/pipelet.h"
#include "ir/builder.h"
#include "opt/transform.h"
#include "runtime/controller.h"
#include "trafficgen/workload.h"

namespace pipeleon::runtime {
namespace {

using ir::FieldMatch;
using ir::kNoNode;
using ir::MatchKind;
using ir::NodeId;
using ir::Program;
using ir::ProgramBuilder;
using ir::TableEntry;
using ir::TableSpec;

sim::NicModel nic() {
    sim::NicModel m;
    m.costs.l_mat = 10.0;
    m.costs.l_act = 2.0;
    m.costs.l_branch = 1.0;
    m.costs.l_counter = 0.0;
    m.cores = 1;
    m.cycles_per_second = 1e9;
    return m;
}

Program two_tables() {
    ProgramBuilder b("orig");
    b.append(TableSpec("A").key("src").noop_action("a1").noop_action("a2").build());
    b.append(TableSpec("B").key("dst").noop_action("b1").noop_action("b2").build());
    return b.build();
}

TableEntry exact_entry(std::uint64_t key, int action) {
    TableEntry e;
    e.key = {FieldMatch::exact(key)};
    e.action_index = action;
    return e;
}

TEST(ApiMapper, DirectTablePropagation) {
    Program p = two_tables();
    sim::Emulator emu(nic(), p, {});
    ApiMapper api(p);

    EXPECT_TRUE(api.insert(emu, "A", exact_entry(1, 0)));
    EXPECT_EQ(emu.entry_count("A"), 1u);
    EXPECT_TRUE(api.modify(emu, "A", exact_entry(1, 1)));
    EXPECT_EQ(emu.entries("A")->at(0).action_index, 1);
    EXPECT_TRUE(api.erase(emu, "A", {FieldMatch::exact(1)}));
    EXPECT_EQ(emu.entry_count("A"), 0u);

    EXPECT_FALSE(api.insert(emu, "nope", exact_entry(1, 0)));
    EXPECT_FALSE(api.erase(emu, "A", {FieldMatch::exact(9)}));
    EXPECT_FALSE(api.modify(emu, "A", exact_entry(9, 0)));
}

TEST(ApiMapper, SnapshotsTrackWindows) {
    Program p = two_tables();
    sim::Emulator emu(nic(), p, {});
    ApiMapper api(p);
    api.insert(emu, "A", exact_entry(1, 0));
    api.insert(emu, "A", exact_entry(2, 0));
    auto snaps = api.snapshots();
    EXPECT_EQ(snaps.at("A").entry_count, 2u);
    EXPECT_EQ(snaps.at("A").entry_updates, 2u);
    api.begin_window();
    EXPECT_EQ(api.snapshots().at("A").entry_updates, 0u);
    EXPECT_EQ(api.snapshots().at("A").entry_count, 2u);
}

/// The cached prefix/mask diversity must track every entry operation: after
/// each insert, erase and modify the snapshot equals a fresh count over the
/// store — including erasing the last entry of a prefix length or a mask.
TEST(ApiMapper, SnapshotDiversityTracksEveryUpdate) {
    ProgramBuilder b("diversity");
    b.append(TableSpec("L").key("dst", MatchKind::Lpm).noop_action("l1")
                 .noop_action("l2").build());
    b.append(TableSpec("T").key("src", MatchKind::Ternary).noop_action("t1")
                 .noop_action("t2").build());
    Program p = b.build();
    sim::Emulator emu(nic(), p, {});
    ApiMapper api(p);

    auto entry = [](FieldMatch m, int action) {
        TableEntry e;
        e.key = {m};
        e.action_index = action;
        return e;
    };
    // Expected counts are spelled out too, so a stale cache that happened to
    // agree with a wrong recount could not pass.
    auto expect_counts = [&](const std::string& step, int prefixes, int masks) {
        auto snaps = api.snapshots();
        for (const char* t : {"L", "T"}) {
            EXPECT_EQ(snaps.at(t).lpm_prefix_count,
                      ir::distinct_prefix_lengths(api.entries(t)))
                << step << " table " << t;
            EXPECT_EQ(snaps.at(t).ternary_mask_count,
                      ir::distinct_masks(api.entries(t)))
                << step << " table " << t;
        }
        EXPECT_EQ(snaps.at("L").lpm_prefix_count, prefixes) << step;
        EXPECT_EQ(snaps.at("T").ternary_mask_count, masks) << step;
    };

    expect_counts("empty", 0, 0);
    ASSERT_TRUE(api.insert(emu, "L", entry(FieldMatch::lpm(0x0A000000, 8), 0)));
    expect_counts("insert /8", 1, 0);
    ASSERT_TRUE(api.insert(emu, "L", entry(FieldMatch::lpm(0x0A010000, 16), 0)));
    expect_counts("insert /16", 2, 0);
    ASSERT_TRUE(api.insert(emu, "L", entry(FieldMatch::lpm(0x0A020000, 16), 1)));
    expect_counts("insert second /16", 2, 0);
    ASSERT_TRUE(api.insert(emu, "T", entry(FieldMatch::ternary(0x1200, 0xFF00), 0)));
    expect_counts("insert mask ff00", 2, 1);
    ASSERT_TRUE(api.insert(emu, "T", entry(FieldMatch::ternary(0x0034, 0x00FF), 0)));
    expect_counts("insert mask 00ff", 2, 2);
    ASSERT_TRUE(api.insert(emu, "T", entry(FieldMatch::ternary(0x5600, 0xFF00), 1)));
    expect_counts("insert second ff00", 2, 2);

    ASSERT_TRUE(api.modify(emu, "L", entry(FieldMatch::lpm(0x0A010000, 16), 1)));
    expect_counts("modify /16", 2, 2);
    ASSERT_TRUE(api.modify(emu, "T", entry(FieldMatch::ternary(0x0034, 0x00FF), 1)));
    expect_counts("modify 00ff", 2, 2);

    ASSERT_TRUE(api.erase(emu, "L", {FieldMatch::lpm(0x0A010000, 16)}));
    expect_counts("erase one /16", 2, 2);
    ASSERT_TRUE(api.erase(emu, "L", {FieldMatch::lpm(0x0A020000, 16)}));
    expect_counts("erase last /16", 1, 2);
    ASSERT_TRUE(api.erase(emu, "T", {FieldMatch::ternary(0x0034, 0x00FF)}));
    expect_counts("erase last 00ff", 1, 1);
    ASSERT_TRUE(api.erase(emu, "T", {FieldMatch::ternary(0x1200, 0xFF00)}));
    expect_counts("erase one ff00", 1, 1);

    // Several updates between two snapshots.
    ASSERT_TRUE(api.erase(emu, "T", {FieldMatch::ternary(0x5600, 0xFF00)}));
    ASSERT_TRUE(api.insert(emu, "L", entry(FieldMatch::lpm(0x0A000100, 24), 0)));
    ASSERT_TRUE(api.erase(emu, "L", {FieldMatch::lpm(0x0A000000, 8)}));
    expect_counts("batched updates", 1, 0);
    // A rejected update changes nothing.
    EXPECT_FALSE(api.erase(emu, "L", {FieldMatch::lpm(0x0A000000, 8)}));
    expect_counts("failed erase", 1, 0);
}

TEST(ApiMapper, MergedTableRebuiltOnInsert) {
    Program original = two_tables();
    auto pipelets = analysis::form_pipelets(original);
    opt::PipeletPlan plan;
    plan.pipelet_id = 0;
    plan.layout.order = {0, 1};
    plan.layout.merges = {opt::MergeSpec{opt::Segment{0, 1}, false}};
    Program optimized = opt::apply_plans(original, pipelets, {plan});

    sim::Emulator emu(nic(), optimized, {});
    ApiMapper api(original);
    // Insert through the ORIGINAL names even though only the merged table
    // is deployed.
    EXPECT_TRUE(api.insert(emu, "A", exact_entry(1, 0)));
    EXPECT_TRUE(api.insert(emu, "B", exact_entry(2, 0)));
    // Merged entries: (A hit, B hit), (A hit, miss), (miss, B hit) = 3.
    EXPECT_EQ(emu.entry_count("merge_A_B"), 3u);

    // A second A entry: (2 x 1) + 2 + 1 = 5 rows.
    EXPECT_TRUE(api.insert(emu, "A", exact_entry(7, 1)));
    EXPECT_EQ(emu.entry_count("merge_A_B"), 5u);
}

TEST(ApiMapper, CacheInvalidatedOnCoveredUpdate) {
    Program original = two_tables();
    auto pipelets = analysis::form_pipelets(original);
    opt::PipeletPlan plan;
    plan.pipelet_id = 0;
    plan.layout.order = {0, 1};
    plan.layout.caches = {opt::Segment{0, 1}};
    Program optimized = opt::apply_plans(original, pipelets, {plan});

    sim::Emulator emu(nic(), optimized, {});
    ApiMapper api(original);
    api.insert(emu, "A", exact_entry(1, 0));

    // Warm the cache.
    sim::Packet pkt;
    pkt.set(emu.fields().intern("src"), 1);
    pkt.set(emu.fields().intern("dst"), 2);
    emu.process(pkt);
    EXPECT_EQ(emu.cache_size("cache_A_B"), 1u);

    // Any covered-table update invalidates the whole cache (§3.2.2).
    api.insert(emu, "A", exact_entry(5, 1));
    EXPECT_EQ(emu.cache_size("cache_A_B"), 0u);
}

TEST(ApiMapper, DeployEntriesAfterReconfigure) {
    Program original = two_tables();
    sim::Emulator emu(nic(), original, {});
    ApiMapper api(original);
    api.insert(emu, "A", exact_entry(1, 0));
    api.insert(emu, "B", exact_entry(2, 1));

    auto pipelets = analysis::form_pipelets(original);
    opt::PipeletPlan plan;
    plan.pipelet_id = 0;
    plan.layout.order = {1, 0};  // reorder B before A
    Program optimized = opt::apply_plans(original, pipelets, {plan});
    emu.reconfigure(optimized);
    api.deploy_entries(emu);
    EXPECT_EQ(emu.entry_count("A"), 1u);
    EXPECT_EQ(emu.entry_count("B"), 1u);
}

// ---------------------------------------------------------------- controller

/// ACL scenario: 4 droppable exact tables; traffic drops mostly at the LAST
/// table. The controller should reorder it to the front.
struct AclScenario {
    Program program;

    static AclScenario make() {
        ProgramBuilder b("acl");
        for (int i = 0; i < 4; ++i) {
            TableSpec spec("acl" + std::to_string(i));
            spec.key("f" + std::to_string(i));
            spec.noop_action("acl" + std::to_string(i) + "_ok", 1);
            spec.drop_action("acl" + std::to_string(i) + "_deny");
            spec.default_to("acl" + std::to_string(i) + "_ok");
            b.append(spec.build());
        }
        return {b.build()};
    }
};

ControllerConfig controller_config() {
    ControllerConfig cfg;
    cfg.optimizer.top_k_fraction = 1.0;
    cfg.optimizer.search.allow_cache = false;
    cfg.optimizer.search.allow_merge = false;
    cfg.detector.threshold = 0.05;
    cfg.min_relative_gain = 0.01;
    return cfg;
}

cost::CostModel model() {
    cost::CostParams p;
    p.l_mat = 10.0;
    p.l_act = 2.0;
    p.l_branch = 1.0;
    profile::InstrumentationConfig instr;  // enabled, full sampling
    return cost::CostModel(p, instr);
}

TEST(Controller, ReordersAfterObservingDrops) {
    AclScenario sc = AclScenario::make();
    sim::Emulator emu(nic(), sc.program, {});
    Controller ctl(emu, sc.program, model(), controller_config());

    // Deny 90% of flows at acl3 (the last table).
    sim::FieldId f3 = emu.fields().intern("f3");
    for (std::uint64_t flow = 0; flow < 90; ++flow) {
        TableEntry deny;
        deny.key = {FieldMatch::exact(flow)};
        deny.action_index = 1;  // the deny action
        ASSERT_TRUE(ctl.api().insert(emu, "acl3", deny));
    }
    // Traffic: f3 uniform over 100 flows -> 90% dropped at acl3.
    for (std::uint64_t i = 0; i < 1000; ++i) {
        sim::Packet pkt;
        pkt.set(f3, i % 100);
        emu.process(pkt);
    }
    emu.advance_time(5.0);

    TickResult r = ctl.tick();
    EXPECT_TRUE(r.searched);
    ASSERT_TRUE(r.deployed);
    // acl3 is now first.
    EXPECT_EQ(emu.program().node(emu.program().root()).table.name, "acl3");

    // The dropped traffic now terminates at the first table.
    sim::Packet denied;
    denied.set(f3, 5);
    sim::ProcessResult pr = emu.process(denied);
    EXPECT_TRUE(pr.dropped);
    EXPECT_EQ(pr.nodes_visited, 1);
}

TEST(Controller, NoRedeployWithoutProfileChange) {
    AclScenario sc = AclScenario::make();
    sim::Emulator emu(nic(), sc.program, {});
    Controller ctl(emu, sc.program, model(), controller_config());

    sim::FieldId f0 = emu.fields().intern("f0");
    auto run_traffic = [&] {
        for (std::uint64_t i = 0; i < 500; ++i) {
            sim::Packet pkt;
            pkt.set(f0, i % 50);
            emu.process(pkt);
        }
        emu.advance_time(5.0);
    };

    run_traffic();
    ctl.tick();
    run_traffic();
    TickResult r2 = ctl.tick();
    // Identical traffic again: no change detected, no search.
    EXPECT_FALSE(r2.searched);
    EXPECT_FALSE(r2.deployed);
}

TEST(Controller, AdaptsWhenDropPatternMoves) {
    AclScenario sc = AclScenario::make();
    sim::Emulator emu(nic(), sc.program, {});
    ControllerConfig cfg = controller_config();
    Controller ctl(emu, sc.program, model(), cfg);

    sim::FieldId f2 = emu.fields().intern("f2");
    sim::FieldId f1 = emu.fields().intern("f1");
    for (std::uint64_t flow = 0; flow < 80; ++flow) {
        TableEntry deny;
        deny.key = {FieldMatch::exact(flow)};
        deny.action_index = 1;
        ASSERT_TRUE(ctl.api().insert(emu, "acl2", deny));
        TableEntry deny1 = deny;
        ASSERT_TRUE(ctl.api().insert(emu, "acl1", deny1));
    }

    // Phase 1: traffic matches acl2's deny rules.
    for (std::uint64_t i = 0; i < 1000; ++i) {
        sim::Packet pkt;
        pkt.set(f2, i % 100);
        pkt.set(f1, 1000 + i % 100);  // misses acl1 rules
        emu.process(pkt);
    }
    emu.advance_time(5.0);
    TickResult r1 = ctl.tick();
    ASSERT_TRUE(r1.deployed);
    EXPECT_EQ(emu.program().node(emu.program().root()).table.name, "acl2");

    // Phase 2: the drop pattern moves to acl1.
    for (std::uint64_t i = 0; i < 1000; ++i) {
        sim::Packet pkt;
        pkt.set(f1, i % 100);
        pkt.set(f2, 1000 + i % 100);
        emu.process(pkt);
    }
    emu.advance_time(5.0);
    TickResult r2 = ctl.tick();
    ASSERT_TRUE(r2.deployed);
    EXPECT_EQ(emu.program().node(emu.program().root()).table.name, "acl1");
}

TEST(Controller, EntriesSurviveDeployment) {
    AclScenario sc = AclScenario::make();
    sim::Emulator emu(nic(), sc.program, {});
    Controller ctl(emu, sc.program, model(), controller_config());

    TableEntry deny;
    deny.key = {FieldMatch::exact(7)};
    deny.action_index = 1;
    ctl.api().insert(emu, "acl3", deny);
    for (std::uint64_t i = 0; i < 500; ++i) {
        sim::Packet pkt;
        pkt.set(emu.fields().intern("f3"), 7);  // always denied
        emu.process(pkt);
    }
    emu.advance_time(5.0);
    TickResult r = ctl.tick();
    ASSERT_TRUE(r.deployed);
    EXPECT_EQ(emu.entry_count("acl3"), 1u);  // redeployed by the API mapper
}

TEST(Controller, IncrementalDeploymentReportsWarmCaches) {
    // With incremental_deployment on, a second deployment that keeps an
    // existing cache's definition reports it as kept warm.
    // Two pipelets separated by a branch: a cacheable ternary block and a
    // reorderable ACL tail. Changing the tail must not disturb the block's
    // cache.
    ProgramBuilder b("inc");
    NodeId tt0 = b.add(TableSpec("tt0").key("kf0", MatchKind::Ternary)
                           .noop_action("a0", 1).build());
    NodeId tt1 = b.add(TableSpec("tt1").key("kf1", MatchKind::Ternary)
                           .noop_action("a1", 1).build());
    NodeId tt2 = b.add(TableSpec("tt2").key("kf2", MatchKind::Ternary)
                           .noop_action("a2", 1).build());
    b.connect(tt0, tt1);
    b.connect(tt1, tt2);
    NodeId br = b.add_branch({"which", ir::CmpOp::Eq, 1});
    b.connect(tt2, br);
    NodeId tail0 = b.add(TableSpec("tail0")
                             .key("tf0")
                             .noop_action("tail0_ok", 1)
                             .drop_action("tail0_deny")
                             .default_to("tail0_ok")
                             .build());
    NodeId tail1 = b.add(TableSpec("tail1")
                             .key("tf1")
                             .noop_action("tail1_ok", 1)
                             .drop_action("tail1_deny")
                             .default_to("tail1_ok")
                             .build());
    b.connect_branch(br, tail0, tail0);
    b.connect(tail0, tail1);
    b.set_root(tt0);
    Program p = b.build();

    sim::NicModel m = nic();
    m.live_reconfig = false;
    m.reload_downtime_s = 8.0;
    sim::Emulator emu(m, p, {});
    ControllerConfig cfg;
    cfg.optimizer.top_k_fraction = 1.0;
    cfg.incremental_deployment = true;
    cfg.detector.threshold = 0.02;
    cost::CostParams params;
    params.l_mat = 10.0;
    params.l_act = 2.0;
    params.default_ternary_m = 5;
    Controller ctl(emu, p, cost::CostModel(params, {}), cfg);
    for (int i = 0; i < 3; ++i) {
        for (int mm = 0; mm < 5; ++mm) {
            ir::TableEntry e;
            e.key = {ir::FieldMatch::ternary(0, 0xFULL << (4 + mm))};
            e.action_index = 0;
            e.priority = mm;
            ASSERT_TRUE(ctl.api().insert(emu, "tt" + std::to_string(i), e));
        }
    }

    auto traffic = [&]() {
        for (int i = 0; i < 2000; ++i) {
            sim::Packet pkt;
            pkt.set(emu.fields().intern("kf0"), 0);
            pkt.set(emu.fields().intern("tf1"), i % 100);
            emu.process(pkt);
            emu.advance_time(5.0 / 2000);
        }
    };

    traffic();
    TickResult first = ctl.tick();
    ASSERT_TRUE(first.deployed);  // caches the ternary block
    // The first deployment changes most tables: partial (or full) downtime.
    EXPECT_GT(first.downtime_s, 0.0);
    EXPECT_LE(first.downtime_s, 8.0 + 1e-9);

    // Trigger a second, small change: tail1 churns continuously (inserts
    // interleaved with traffic keep invalidating any cache covering it),
    // so the controller re-plans the tail pipelet while the cached ternary
    // block is untouched.
    std::uint64_t churn_key = 1000;
    auto churny_traffic = [&]() {
        for (int i = 0; i < 2000; ++i) {
            if (i % 5 == 0) {
                ir::TableEntry deny;
                deny.key = {ir::FieldMatch::exact(churn_key++)};
                deny.action_index = 1;
                ctl.api().insert(emu, "tail1", deny);
            }
            sim::Packet pkt;
            pkt.set(emu.fields().intern("kf0"), 0);
            pkt.set(emu.fields().intern("tf1"), i % 100);
            emu.process(pkt);
            emu.advance_time(5.0 / 2000);
        }
    };
    churny_traffic();
    TickResult second = ctl.tick();
    if (!second.deployed) {
        churny_traffic();
        second = ctl.tick();
    }
    ASSERT_TRUE(second.deployed);
    // The unchanged ternary-block cache survives the redeployment warm, and
    // the reflash only pays for the changed tail tables.
    EXPECT_GE(second.caches_kept_warm, 1u);
    EXPECT_LT(second.downtime_s, 8.0);
}

TEST(Controller, RemovesCacheUnderInsertionStorm) {
    // The Fig 11a mechanism: a deployed flow cache collapses when covered
    // tables churn; the controller must stop covering the churny table.
    ProgramBuilder b("storm");
    for (int i = 0; i < 3; ++i) {
        b.append(TableSpec("tern" + std::to_string(i))
                     .key("tf" + std::to_string(i), MatchKind::Ternary)
                     .noop_action("t" + std::to_string(i) + "_a", 1)
                     .build());
    }
    b.append(TableSpec("churny").key("vip").noop_action("pick", 1).size(100000).build());
    Program p = b.build();

    sim::Emulator emu(nic(), p, {});
    ControllerConfig cfg;
    cfg.optimizer.top_k_fraction = 1.0;
    cfg.optimizer.search.allow_merge = false;
    cfg.optimizer.search.allow_reorder = false;
    cost::CostParams params;
    params.l_mat = 10.0;
    params.l_act = 2.0;
    params.default_ternary_m = 5;
    params.cache_invalidation_penalty = 0.05;
    Controller ctl(emu, p, cost::CostModel(params, {}), cfg);

    // Ternary rules so caching looks attractive.
    for (int i = 0; i < 3; ++i) {
        for (int m = 0; m < 5; ++m) {
            ir::TableEntry e;
            e.key = {ir::FieldMatch::ternary(0, 0xFULL << (4 + m))};
            e.action_index = 0;
            e.priority = m;
            ASSERT_TRUE(ctl.api().insert(emu, "tern" + std::to_string(i), e));
        }
    }

    auto run_traffic = [&](int churn_inserts) {
        std::uint64_t vip = 50000;
        for (int i = 0; i < 2000; ++i) {
            if (churn_inserts > 0 && i % (2000 / churn_inserts) == 0) {
                ctl.api().insert(emu, "churny", exact_entry(vip++, 0));
            }
            sim::Packet pkt;
            pkt.set(emu.fields().intern("tf0"), 0);
            pkt.set(emu.fields().intern("vip"), i % 64);
            emu.process(pkt);
            emu.advance_time(5.0 / 2000);
        }
    };

    auto covers_churny = [&]() {
        for (const ir::Node& n : emu.program().nodes()) {
            if (n.is_table() && n.table.role == ir::TableRole::Cache) {
                for (const std::string& o : n.table.origin_tables) {
                    if (o == "churny") return true;
                }
            }
        }
        return false;
    };

    // Quiet phase: optimizer should cache broadly (possibly incl. churny).
    run_traffic(0);
    ctl.tick();
    bool cached_initially = false;
    for (const ir::Node& n : emu.program().nodes()) {
        if (n.is_table() && n.table.role == ir::TableRole::Cache) {
            cached_initially = true;
        }
    }
    EXPECT_TRUE(cached_initially);

    // Storm phase: several windows of heavy churn on "churny".
    for (int w = 0; w < 3; ++w) {
        run_traffic(400);
        ctl.tick();
    }
    // The churny table must no longer be covered by any cache...
    EXPECT_FALSE(covers_churny());
    // ...while the quiet ternary tables should still be cached.
    bool still_cached = false;
    for (const ir::Node& n : emu.program().nodes()) {
        if (n.is_table() && n.table.role == ir::TableRole::Cache) {
            still_cached = true;
        }
    }
    EXPECT_TRUE(still_cached);
}

}  // namespace
}  // namespace pipeleon::runtime
