// Tests for opt/estimate: the PipeletEvaluator's candidate verdicts must
// mirror the paper's qualitative claims — reordering promotes droppers for
// free, caching helps complex matches and hurts with low hit rates, naive
// exact merges can regress while merge-as-cache cannot blow up the match
// cost.
#include <gtest/gtest.h>

#include "analysis/dependency.h"
#include "analysis/pipelet.h"
#include "apps/scenarios.h"
#include "cost/model.h"
#include "ir/builder.h"
#include "opt/cache.h"
#include "opt/estimate.h"
#include "opt/merge.h"
#include "opt/transform.h"
#include "synth/program_synth.h"
#include "util/rng.h"

namespace pipeleon::opt {
namespace {

using ir::MatchKind;
using ir::NodeId;
using ir::Program;
using ir::ProgramBuilder;
using ir::TableSpec;

cost::CostParams params() {
    cost::CostParams p;
    p.l_mat = 10.0;
    p.l_act = 1.0;
    p.default_cache_hit_rate = 0.9;
    p.default_ternary_m = 5;
    p.default_lpm_m = 3;
    p.cache_invalidation_penalty = 0.02;
    return p;
}

profile::InstrumentationConfig no_instr() {
    profile::InstrumentationConfig c;
    c.enabled = false;
    return c;
}

struct PipeletCase {
    Program program;
    profile::RuntimeProfile profile;
    analysis::Pipelet pipelet;
};

/// Chain of n independent exact tables; positions given drop rates.
PipeletCase make_chain(const std::vector<double>& drop_rates) {
    ProgramBuilder b("chain");
    for (std::size_t i = 0; i < drop_rates.size(); ++i) {
        TableSpec spec("t" + std::to_string(i));
        spec.key("f" + std::to_string(i));
        spec.noop_action("t" + std::to_string(i) + "_ok", 1);
        spec.drop_action("t" + std::to_string(i) + "_deny");
        spec.default_to("t" + std::to_string(i) + "_ok");
        b.append(spec.build());
    }
    PipeletCase s{b.build(), {}, {}};
    s.profile.reset_for(s.program, 1.0);
    for (std::size_t i = 0; i < drop_rates.size(); ++i) {
        auto& st = s.profile.table(static_cast<NodeId>(i));
        st.action_hits[0] =
            static_cast<std::uint64_t>(1000 * (1.0 - drop_rates[i]));
        st.action_hits[1] = static_cast<std::uint64_t>(1000 * drop_rates[i]);
        st.entry_count = 100;
    }
    auto pipelets = analysis::form_pipelets(s.program);
    s.pipelet = pipelets.at(0);
    return s;
}

CandidateLayout identity(std::size_t n) {
    CandidateLayout l;
    for (std::size_t i = 0; i < n; ++i) l.order.push_back(i);
    return l;
}

TEST(Estimate, BaselineMatchesIdentityLayout) {
    PipeletCase s = make_chain({0.0, 0.0, 0.0});
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);
    EvalResult r = ev.evaluate(identity(3));
    ASSERT_TRUE(r.valid);
    EXPECT_NEAR(r.latency, ev.baseline_latency(), 1e-9);
    EXPECT_DOUBLE_EQ(r.extra_memory, 0.0);
    EXPECT_DOUBLE_EQ(r.extra_updates, 0.0);
}

TEST(Estimate, PromotingDropperReducesLatency) {
    // Last table drops 80%: moving it first should cut the pipelet cost.
    PipeletCase s = make_chain({0.0, 0.0, 0.8});
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);

    CandidateLayout reordered = identity(3);
    reordered.order = {2, 0, 1};
    EvalResult r = ev.evaluate(reordered);
    ASSERT_TRUE(r.valid);
    EXPECT_LT(r.latency, ev.baseline_latency() * 0.7);
    EXPECT_DOUBLE_EQ(r.extra_memory, 0.0);  // reordering is free (§3.2.1)
}

TEST(Estimate, HigherDropRateGivesBiggerReorderGain) {
    cost::CostModel model(params(), no_instr());
    double prev_gain = -1.0;
    for (double rate : {0.25, 0.5, 0.75}) {
        PipeletCase s = make_chain({0.0, 0.0, rate});
        PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);
        CandidateLayout l = identity(3);
        l.order = {2, 0, 1};
        double gain = ev.baseline_latency() - ev.evaluate(l).latency;
        EXPECT_GT(gain, prev_gain);
        prev_gain = gain;
    }
}

TEST(Estimate, InvalidOrderRejected) {
    // Create a dependency: t0 writes the field t1 matches on.
    ProgramBuilder b("dep");
    ir::Action w;
    w.name = "w";
    w.primitives.push_back(ir::Primitive::set_const("k1", 1));
    b.append(TableSpec("t0").key("k0").action(w).build());
    b.append(TableSpec("t1").key("k1").noop_action("n").build());
    Program p = b.build();
    profile::RuntimeProfile prof;
    prof.reset_for(p, 1.0);
    auto pipelets = analysis::form_pipelets(p);
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(p, pipelets[0], prof, model);

    CandidateLayout swapped;
    swapped.order = {1, 0};
    EXPECT_FALSE(ev.evaluate(swapped).valid);
}

PipeletCase make_ternary_chain(std::size_t n) {
    ProgramBuilder b("tern");
    for (std::size_t i = 0; i < n; ++i) {
        b.append(TableSpec("t" + std::to_string(i))
                     .key("f" + std::to_string(i), MatchKind::Ternary)
                     .noop_action("t" + std::to_string(i) + "_a", 1)
                     .build());
    }
    PipeletCase s{b.build(), {}, {}};
    s.profile.reset_for(s.program, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
        s.profile.table(static_cast<NodeId>(i)).action_hits = {1000};
        s.profile.table(static_cast<NodeId>(i)).entry_count = 50;
        s.profile.table(static_cast<NodeId>(i)).ternary_mask_count = 5;
    }
    s.pipelet = analysis::form_pipelets(s.program).at(0);
    return s;
}

TEST(Estimate, CachingComplexTablesHelps) {
    PipeletCase s = make_ternary_chain(3);
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);

    CandidateLayout cached = identity(3);
    cached.caches = {Segment{0, 2}};
    EvalResult r = ev.evaluate(cached);
    ASSERT_TRUE(r.valid);
    // Baseline: 3 * (5*10 + 1) = 153. Cache: 10 + 0.9*3 + 0.1*153 ≈ 28.
    EXPECT_LT(r.latency, 0.3 * ev.baseline_latency());
    EXPECT_GT(r.extra_memory, 0.0);  // reserved cache budget
}

TEST(Estimate, MeasuredLowHitRateKillsCacheGain) {
    PipeletCase s = make_ternary_chain(3);
    // Pretend a deployed cache over these tables is missing 90% of the time.
    for (NodeId id : {0, 1, 2}) {
        s.profile.table(id).cache_hits = 100;
        s.profile.table(id).cache_misses = 900;
    }
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);
    CandidateLayout cached = identity(3);
    cached.caches = {Segment{0, 2}};
    EvalResult r = ev.evaluate(cached);
    ASSERT_TRUE(r.valid);
    // With h = 0.1 the cache barely helps (pays lookup + 90% full path).
    EXPECT_GT(r.latency, 0.9 * ev.baseline_latency());
}

TEST(Estimate, UpdateRateDecaysPredictedHitRate) {
    PipeletCase quiet = make_ternary_chain(2);
    PipeletCase churny = make_ternary_chain(2);
    churny.profile.table(0).entry_updates = 1000;  // 1000 updates / 1 s window
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev_q(quiet.program, quiet.pipelet, quiet.profile, model);
    PipeletEvaluator ev_c(churny.program, churny.pipelet, churny.profile, model);
    CandidateLayout cached = identity(2);
    cached.caches = {Segment{0, 1}};
    EXPECT_LT(ev_q.evaluate(cached).latency, ev_c.evaluate(cached).latency);
}

TEST(Estimate, NaiveExactMergeCanRegress) {
    // Two exact tables with few actions: full merge turns them ternary
    // (m = 4 > 2 exact lookups), so latency gets WORSE — the Fig 6 pitfall.
    PipeletCase s = make_chain({0.0, 0.0});
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);
    CandidateLayout merged = identity(2);
    merged.merges = {MergeSpec{Segment{0, 1}, /*as_cache=*/false}};
    EvalResult r = ev.evaluate(merged);
    ASSERT_TRUE(r.valid);
    EXPECT_GT(r.latency, ev.baseline_latency());
}

TEST(Estimate, MergeAsCacheHelpsExactTables) {
    PipeletCase s = make_chain({0.0, 0.0});
    // No misses recorded -> miss_prob 0 -> hit rate 1 for the merged cache.
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);
    CandidateLayout merged = identity(2);
    merged.merges = {MergeSpec{Segment{0, 1}, /*as_cache=*/true}};
    EvalResult r = ev.evaluate(merged);
    ASSERT_TRUE(r.valid);
    // One exact lookup + both actions instead of two lookups.
    EXPECT_LT(r.latency, ev.baseline_latency());
    EXPECT_GT(r.extra_memory, 0.0);
}

TEST(Estimate, MergeAmplifiesUpdates) {
    PipeletCase s = make_chain({0.0, 0.0});
    s.profile.table(0).entry_updates = 10;
    s.profile.table(0).entry_count = 100;
    s.profile.table(1).entry_count = 1000;
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);
    CandidateLayout merged = identity(2);
    merged.merges = {MergeSpec{Segment{0, 1}, true}};
    EvalResult r = ev.evaluate(merged);
    ASSERT_TRUE(r.valid);
    // I(T_AB) >= I_A * N_B = 10 * 1000.
    EXPECT_GE(r.extra_updates, 10000.0);
}

TEST(Estimate, OverlappingSegmentsRejected) {
    PipeletCase s = make_chain({0.0, 0.0, 0.0});
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);
    CandidateLayout bad = identity(3);
    bad.caches = {Segment{0, 1}};
    bad.merges = {MergeSpec{Segment{1, 2}, false}};
    EXPECT_FALSE(ev.evaluate(bad).valid);
}

TEST(Estimate, SingleTableMergeRejected) {
    PipeletCase s = make_chain({0.0, 0.0});
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);
    CandidateLayout bad = identity(2);
    bad.merges = {MergeSpec{Segment{0, 0}, false}};
    EXPECT_FALSE(ev.evaluate(bad).valid);
}

TEST(Estimate, TrafficRateFromWindow) {
    PipeletCase s = make_chain({0.0});
    s.profile.set_window_seconds(2.0);
    cost::CostModel model(params(), no_instr());
    PipeletEvaluator ev(s.program, s.pipelet, s.profile, model);
    EXPECT_DOUBLE_EQ(ev.traffic_rate(), 500.0);  // 1000 lookups / 2 s
}

// ------------------------------------------------------------------
// Precomputed legality vs. the field-name reference. The evaluator answers
// segment legality from a dependency matrix and per-table flags; these tests
// pin it to classify_dependency / opt::cacheable / opt::mergeable on every
// ordered pair and every segment of every valid order.

/// How often each verdict came up, so the equivalence cannot pass vacuously.
struct LegalityCoverage {
    std::size_t match_pairs = 0;
    std::size_t other_dep_pairs = 0;
    std::size_t non_original = 0;
    std::size_t cache_yes = 0, cache_no = 0;
    std::size_t merge_yes = 0, merge_no = 0;
    std::size_t merge_cache_yes = 0;
};

void expect_legality_matches_reference(const Program& program,
                                       LegalityCoverage& cov) {
    profile::RuntimeProfile prof;
    prof.reset_for(program, 1.0);
    cost::CostModel model(params(), no_instr());
    for (const analysis::Pipelet& pl : analysis::form_pipelets(program)) {
        PipeletEvaluator ev(program, pl, prof, model);
        const analysis::DependencyGraph& deps = ev.deps();
        const std::size_t n = ev.size();
        for (std::size_t a = 0; a < n; ++a) {
            if (ev.table(a).role != ir::TableRole::Original) ++cov.non_original;
            for (std::size_t b = 0; b < n; ++b) {
                if (a == b) continue;
                analysis::DependencyKind ref =
                    analysis::classify_dependency(ev.table(a), ev.table(b));
                ASSERT_EQ(deps.kind(a, b), ref)
                    << program.name() << ": " << ev.table(a).name << " -> "
                    << ev.table(b).name;
                EXPECT_EQ(deps.match_dependent(a, b),
                          ref == analysis::DependencyKind::Match);
                EXPECT_EQ(deps.dependent(a, b),
                          !analysis::independent(ev.table(a), ev.table(b)));
                if (ref == analysis::DependencyKind::Match) ++cov.match_pairs;
                else if (ref != analysis::DependencyKind::None) ++cov.other_dep_pairs;
            }
        }

        std::vector<std::vector<std::size_t>> orders = deps.valid_orders(24);
        orders.push_back(ev.greedy_drop_order());
        for (const std::vector<std::size_t>& order : orders) {
            ASSERT_TRUE(deps.order_is_valid(order));
            for (std::size_t first = 0; first < n; ++first) {
                for (std::size_t last = first; last < n; ++last) {
                    Segment seg{first, last};
                    std::vector<const ir::Table*> covered;
                    bool pairwise_independent = true;
                    for (std::size_t p = first; p <= last; ++p) {
                        covered.push_back(&ev.table(order[p]));
                        for (std::size_t q = first; q < p; ++q) {
                            if (!analysis::independent(ev.table(order[q]),
                                                       ev.table(order[p]))) {
                                pairwise_independent = false;
                            }
                        }
                    }
                    bool cache_ref = cacheable(covered);
                    EXPECT_EQ(ev.can_cache_segment(order, seg), cache_ref)
                        << program.name() << " pipelet " << pl.id;
                    ++(cache_ref ? cov.cache_yes : cov.cache_no);
                    for (bool as_cache : {false, true}) {
                        bool merge_ref =
                            mergeable(covered, as_cache) && pairwise_independent;
                        EXPECT_EQ(ev.can_merge_segment(order, seg, as_cache),
                                  merge_ref)
                            << program.name() << " pipelet " << pl.id
                            << " as_cache=" << as_cache;
                        ++(merge_ref ? cov.merge_yes : cov.merge_no);
                        if (merge_ref && as_cache) ++cov.merge_cache_yes;
                    }
                }
            }
        }
    }
}

/// Applies, where legal, a full merge, a merge-as-cache and a flow cache to
/// three different pipelets, so the transformed program carries Merged,
/// MergedCache and Cache tables (and '+'-joined merged action names).
Program with_merged_tables(const Program& program) {
    std::vector<analysis::Pipelet> pipelets = analysis::form_pipelets(program);
    profile::RuntimeProfile prof;
    prof.reset_for(program, 1.0);
    cost::CostModel model(params(), no_instr());
    std::vector<PipeletPlan> plans;
    bool full = false, as_cache = false, cached = false;
    for (const analysis::Pipelet& pl : pipelets) {
        if (pl.is_switch_case || pl.length() < 2) continue;
        PipeletEvaluator ev(program, pl, prof, model);
        CandidateLayout layout = identity(pl.length());
        if (!full && ev.can_merge_segment(layout.order, Segment{0, 1}, false)) {
            layout.merges = {MergeSpec{Segment{0, 1}, false}};
            full = true;
        } else if (!as_cache &&
                   ev.can_merge_segment(layout.order, Segment{0, 1}, true)) {
            layout.merges = {MergeSpec{Segment{0, 1}, true}};
            as_cache = true;
        } else if (!cached && ev.can_cache_segment(layout.order,
                                                   Segment{0, pl.length() - 1})) {
            layout.caches = {Segment{0, pl.length() - 1}};
            cached = true;
        } else {
            continue;
        }
        plans.push_back(PipeletPlan{pl.id, layout});
    }
    return apply_plans(program, pipelets, plans);
}

/// The synthesizer's actions write no header fields, so its pipelets carry
/// no dependencies. This adds them: per table, seeded, action 0 either
/// writes the next table's match key (match dependency), writes or reads a
/// shared metadata field (write / action dependencies), or takes a runtime
/// argument (blocks full merges through the default action).
Program with_field_writes(Program program, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<NodeId> tables;
    for (const ir::Node& node : program.nodes()) {
        if (node.is_table()) tables.push_back(node.id);
    }
    for (std::size_t i = 0; i < tables.size(); ++i) {
        ir::Table& t = program.node(tables[i]).table;
        if (t.actions.empty()) continue;
        std::vector<ir::Primitive>& prims = t.actions[0].primitives;
        switch (rng.uniform_int(0, 4)) {
            case 0:
                if (i + 1 < tables.size()) {
                    const ir::Table& next = program.node(tables[i + 1]).table;
                    prims.push_back(ir::Primitive::set_const(next.keys[0].field, 1));
                }
                break;
            case 1:
                prims.push_back(ir::Primitive::copy_field("meta_shared",
                                                          t.keys[0].field));
                break;
            case 2:
                prims.push_back(
                    ir::Primitive::copy_field("scratch_" + t.name, "meta_shared"));
                break;
            case 3:
                prims.push_back(ir::Primitive::set_from_arg("arg_" + t.name, 0));
                break;
            default:
                break;
        }
    }
    return program;
}

std::size_t count_role(const Program& program, ir::TableRole role) {
    std::size_t count = 0;
    for (const ir::Node& node : program.nodes()) {
        if (node.is_table() && node.table.role == role) ++count;
    }
    return count;
}

TEST(EstimateLegality, MatrixAndFlagsMatchReferenceOnSynthesizedPipelets) {
    LegalityCoverage cov;
    std::size_t merged = 0, merged_cache = 0, caches = 0;
    for (std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
        synth::SynthConfig cfg;
        cfg.pipelets = 6;
        cfg.min_pipelet_len = 2;
        cfg.max_pipelet_len = 5;
        cfg.lpm_fraction = 0.25;
        cfg.ternary_fraction = 0.25;
        cfg.dependency_fraction = 0.4;
        synth::ProgramSynthesizer gen(cfg, seed);
        Program program = with_field_writes(
            gen.generate("legality" + std::to_string(seed)), seed);
        expect_legality_matches_reference(program, cov);

        Program transformed = with_merged_tables(program);
        merged += count_role(transformed, ir::TableRole::Merged);
        merged_cache += count_role(transformed, ir::TableRole::MergedCache);
        caches += count_role(transformed, ir::TableRole::Cache);
        expect_legality_matches_reference(transformed, cov);
    }
    // Every verdict was exercised both ways, on every kind of table.
    EXPECT_GT(merged, 0u);
    EXPECT_GT(merged_cache, 0u);
    EXPECT_GT(caches, 0u);
    EXPECT_GT(cov.non_original, 0u);
    EXPECT_GT(cov.match_pairs, 0u);
    EXPECT_GT(cov.other_dep_pairs, 0u);
    EXPECT_GT(cov.cache_yes, 0u);
    EXPECT_GT(cov.cache_no, 0u);
    EXPECT_GT(cov.merge_yes, 0u);
    EXPECT_GT(cov.merge_no, 0u);
    EXPECT_GT(cov.merge_cache_yes, 0u);
}

TEST(EstimateLegality, MatrixAndFlagsMatchReferenceOnFig11Programs) {
    LegalityCoverage cov;
    for (const Program& program :
         {apps::load_balancer_program(), apps::dash_routing_program(),
          apps::nf_composition_program()}) {
        expect_legality_matches_reference(program, cov);
    }
    EXPECT_GT(cov.cache_yes, 0u);
    EXPECT_GT(cov.merge_yes, 0u);
}

}  // namespace
}  // namespace pipeleon::opt
