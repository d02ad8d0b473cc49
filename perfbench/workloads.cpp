#include "workloads.h"

#include <chrono>
#include <deque>
#include <stdexcept>
#include <tuple>
#include <unordered_set>

#include "apps/scenarios.h"
#include "ir/builder.h"
#include "opt/memory_tiers.h"
#include "profile/counter_map.h"
#include "sim/nic_model.h"

namespace perfbench {

using namespace pipeleon;

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Index of the table's dropping action.
int deny_action(const ir::Program& program, const std::string& table) {
    const ir::NodeId id = program.find_table(table);
    if (id == ir::kNoNode) throw std::runtime_error("no table " + table);
    const ir::Table& t = program.node(id).table;
    for (std::size_t a = 0; a < t.actions.size(); ++a) {
        if (t.actions[a].drops()) return static_cast<int>(a);
    }
    throw std::runtime_error("table " + table + " has no dropping action");
}

ir::TableEntry exact_entry(std::uint64_t value, int action,
                           std::vector<std::uint64_t> data = {}) {
    ir::TableEntry e;
    e.key = {ir::FieldMatch::exact(value)};
    e.action_index = action;
    e.action_data = std::move(data);
    return e;
}

/// The distinct values `field` takes over `flows`.
std::unordered_set<std::uint64_t> values_of(const trafficgen::FlowSet& flows,
                                            const std::vector<std::size_t>& picked,
                                            const std::string& field) {
    std::unordered_set<std::uint64_t> out;
    for (std::size_t f : picked) out.insert(flows.value(f, field));
    return out;
}

std::vector<ir::TableEntry> deny_entries(
    const std::unordered_set<std::uint64_t>& values, int action) {
    std::vector<ir::TableEntry> out;
    out.reserve(values.size());
    for (std::uint64_t v : values) out.push_back(exact_entry(v, action));
    return out;
}

constexpr std::uint64_t kWide = 0xFFFFFFFFULL;
/// Decorrelates the deny-set picker's stream from the traffic's.
constexpr std::uint64_t kPickerSalt = 0x5eed0ac1ULL;

// ------------------------------------------------------------ dash_uniform

/// DASH routing over ~64K uniform flows: conntrack state for every flow,
/// routes over 24 LPM prefix lengths, ACL denies on 1%, 2% and 4% of flows.
/// Too many uniform flows for a flow cache to help, so the time goes into
/// the table match engines.
class DashUniform final : public Scenario {
public:
    DashUniform() : Scenario({.burst = 256, .workers = 1, .deterministic = false,
                              .window_bursts = 0, .emu_bursts = 2048}) {}

    void setup(std::uint64_t seed) override {
        ir::Program program = apps::dash_routing_program();
        // Reordering only. No flow caches: with per-flow state over ~64K
        // uniform flows a cache cannot help, yet before one is deployed the
        // cost model assumes its default hit rate and the controller flaps
        // between a cached layout and the original on every tick. No
        // merges: merged tables are cache-backed, and this workload is
        // about the plain match engines.
        runtime::ControllerConfig cfg;
        cfg.optimizer.search.allow_cache = false;
        cfg.optimizer.search.allow_merge = false;
        cfg.optimizer.top_k_fraction = 1.0;
        build(sim::bluefield2_model(), program, cfg);
        util::Rng rng(seed);
        trafficgen::FlowSet flows = trafficgen::FlowSet::generate(
            {{"direction", 0, 1}, {"appliance_key", 0, 3}, {"eni_mac", 0, 63},
             {"vni_key", 0, 3}, {"flow_id", 0, kWide}, {"src_ip", 0, kWide},
             {"dst_ip", 0, kWide}, {"dst_port", 0, 65535},
             {"ipv4_dst", 0, kWide}},
            kFlows, rng);

        // Per-flow conntrack state and the deny sets: bulk-staged.
        std::vector<std::size_t> all(flows.size());
        for (std::size_t f = 0; f < all.size(); ++f) all[f] = f;
        std::vector<ir::TableEntry> ct;
        for (std::uint64_t id : values_of(flows, all, "flow_id")) {
            ct.push_back(exact_entry(id, 0));
        }
        stage("conntrack", ct);
        trafficgen::Workload picker(flows, trafficgen::Locality::Uniform, 0.0,
                                    seed ^ kPickerSalt);
        // Distinct deny fractions, so the ACL drop-rate order (which the
        // optimizer reorders by) does not depend on the seed.
        const std::tuple<const char*, const char*, double> acls[] = {
            {"acl_stage1", "src_ip", 0.01}, {"acl_stage2", "dst_ip", 0.02},
            {"acl_stage3", "dst_port", 0.04}};
        for (const auto& [table, field, fraction] : acls) {
            auto denied = values_of(flows, picker.pick_flows(fraction), field);
            stage(table, deny_entries(denied, deny_action(program, table)));
            deny_.add_rule(emu_->fields().intern(field), std::move(denied));
        }
        install_staged();

        // Small tables through the timed API path.
        const std::pair<const char*, std::uint64_t> meta[] = {
            {"direction_lookup", 2}, {"appliance", 4}, {"eni", 64}, {"vni", 4}};
        for (const auto& [table, n] : meta) {
            for (std::uint64_t k = 0; k < n; ++k) {
                insert(table, exact_entry(k, 0, {k + 1}));
            }
        }
        for (int len = 8; len < 32; ++len) {
            for (int r = 0; r < kRoutesPerLength; ++r) {
                ir::TableEntry e;
                e.key = {ir::FieldMatch::lpm(rng.next_u64() & kWide, len)};
                e.action_index = 0;
                e.action_data = {static_cast<std::uint64_t>(len)};
                insert("routing", e);
            }
        }
        entries_installed();

        traffic_ = std::make_unique<trafficgen::Workload>(
            std::move(flows), trafficgen::Locality::Uniform, 0.0, seed + 1);
        make_rings();
        warm(64);
        if (setup_tick().deployed) note_setup_deploy();
        warm(64);
    }

private:
    static constexpr std::size_t kFlows = 65536;
    static constexpr int kRoutesPerLength = 40;
};

// ---------------------------------------------------------- lb_zipf_cached

/// The load balancer deployed as the controller's own cached layout, with
/// DRAM/host cache tiers carved by opt::assign_memory_tiers. Zipf traffic
/// over a flow population several times the SRAM tier: most packets are
/// cheap cache hits, so per-poll fixed costs and the tiered probe path
/// dominate.
class LbZipfCached final : public Scenario {
public:
    LbZipfCached() : Scenario({.burst = 64, .workers = 1, .deterministic = false,
                               .window_bursts = 0, .emu_bursts = 8192}) {}

    void setup(std::uint64_t seed) override {
        ir::Program program = apps::load_balancer_program();
        sim::NicModel nic = sim::bluefield2_model();
        runtime::ControllerConfig cfg;
        cfg.optimizer.top_k_fraction = 1.0;
        cfg.optimizer.pipelet.max_length = 12;
        cfg.optimizer.search.allow_merge = false;
        cfg.optimizer.search.cache_config.capacity = kSramEntries;
        cfg.optimizer.search.cache_config.max_insert_per_sec = 4e6;
        build(nic, program, cfg);

        util::Rng rng(seed);
        std::vector<trafficgen::FieldRange> tuple;
        for (int i = 0; i < 8; ++i) {
            tuple.push_back({"pf" + std::to_string(i), 0, kWide});
        }
        tuple.push_back({"vip", 0, 63});
        tuple.push_back({"src_ip", 0, kWide});
        tuple.push_back({"dst_ip", 0, kWide});
        trafficgen::FlowSet flows =
            trafficgen::FlowSet::generate(tuple, kFlows, rng);

        trafficgen::Workload picker(flows, trafficgen::Locality::Uniform, 0.0,
                                    seed ^ kPickerSalt);
        const std::tuple<const char*, const char*, double> acls[] = {
            {"lb_acl0", "src_ip", 0.01}, {"lb_acl1", "dst_ip", 0.03}};
        for (const auto& [table, field, fraction] : acls) {
            auto denied = values_of(flows, picker.pick_flows(fraction), field);
            stage(table, deny_entries(denied, deny_action(program, table)));
            deny_.add_rule(emu_->fields().intern(field), std::move(denied));
        }
        install_staged();
        for (std::uint64_t vip = 0; vip < 64; ++vip) {
            insert("lb_vip", exact_entry(vip, 0, {vip % 16}));
        }
        for (std::uint64_t backend = 0; backend < 16; ++backend) {
            insert("lb_backend", exact_entry(backend, 0, {backend}));
        }
        // Processing-table entries for a slice of the flows (the rest miss
        // to the default action), so the uncached path does real lookups.
        for (int t = 0; t < 8; ++t) {
            const std::string field = "pf" + std::to_string(t);
            for (std::size_t f = 0; f < kProcEntries; ++f) {
                insert("proc" + std::to_string(t),
                       exact_entry(flows.value(f, field), static_cast<int>(f % 2)));
            }
        }
        entries_installed();

        traffic_ = std::make_unique<trafficgen::Workload>(
            std::move(flows), trafficgen::Locality::Zipf, 1.1, seed + 1);
        make_rings();
        warm(256);
        if (!setup_tick().deployed) {
            throw std::runtime_error("lb_zipf_cached: controller deployed no layout");
        }

        // Carve lower cache tiers for the deployed layout from its own
        // measured profile, then deploy the tiered program.
        warm(256);
        const ir::Program& deployed = emu_->program();
        profile::RuntimeProfile prof =
            profile::CounterMap::build(deployed, deployed)
                .translate(deployed, emu_->read_counters());
        cost::CostParams params = nic.costs;
        params.dram_memory_bytes = kDramBytes;
        params.host_memory_bytes = kHostBytes;
        opt::TierAssignment tiers =
            opt::assign_memory_tiers(deployed, prof, cost::CostModel(params));
        if (tiers.cache_dram_entries == 0) {
            throw std::runtime_error("lb_zipf_cached: no cache tier carved");
        }
        if (!controller_->deploy_external(std::move(tiers.program)).deployed) {
            throw std::runtime_error("lb_zipf_cached: tiered deploy rejected");
        }
        note_setup_deploy();
        warm(512);
    }

private:
    static constexpr std::size_t kFlows = 65536;
    static constexpr std::size_t kSramEntries = 2048;
    static constexpr std::size_t kProcEntries = 128;
    static constexpr double kDramBytes = 512.0 * 1024;
    static constexpr double kHostBytes = 2.0 * 1024 * 1024;
};

// ---------------------------------------------------------- nf_shift_churn

/// NF composition on the emulated NIC with traffic shifting NF1 -> NF2 ->
/// NF3 (fig11c), lb_vip entry churn through the API mapper on every burst,
/// and a controller tick every window. One worker in deterministic mode on
/// purpose: this workload measures the control loop, not scaling.
class NfShiftChurn final : public Scenario {
public:
    NfShiftChurn() : Scenario({.burst = 128, .workers = 1, .deterministic = true,
                               .window_bursts = 16, .emu_bursts = 16 * 9}) {}

    void setup(std::uint64_t seed) override {
        ir::Program program = apps::nf_composition_program();
        runtime::ControllerConfig cfg;
        cfg.optimizer.top_k_fraction = 0.30;
        cfg.detector.threshold = 0.05;
        cfg.reoptimize_on_change_only = false;
        build(sim::emulated_nic_model(), program, cfg);

        util::Rng rng(seed);
        trafficgen::FlowSet flows = trafficgen::FlowSet::generate(
            {{"lbf0", 0, 63}, {"lbf1", 0, 63}, {"lbf2", 0, 63}, {"vip", 0, 63},
             {"direction", 0, 1}, {"eni_mac", 0, 63}, {"flow_id", 0, 9999},
             {"src_ip", 0, 9999}, {"dst_ip", 0, 9999},
             {"ipv4_dst", 0, 0x03FFFFFF}, {"eth_src", 0, 255},
             {"eth_dst", 0, 255}, {"tuple_hash", 0, 255},
             {"egress_key", 0, 255}},
            2000, rng);

        for (std::uint64_t net = 0; net < 4; ++net) {
            ir::TableEntry e;
            e.key = {ir::FieldMatch::lpm(net << 24, 8 + 4 * static_cast<int>(net % 3))};
            e.action_index = 0;
            e.action_data = {net};
            insert("l3_routing", e);
        }
        for (int m = 0; m < 3; ++m) {
            ir::TableEntry e;
            e.key = {ir::FieldMatch::ternary(0, 0xFULL << (4 + m))};
            e.action_index = m % 2;
            e.priority = m;
            insert("l3_flowcls", e);
        }
        for (std::uint64_t vip = 0; vip < kVips; ++vip) {
            insert("lb_vip", exact_entry(vip, 0, {vip % 8}));
        }
        // Denies: the stateless ACL only sees traffic that skips conntrack;
        // the egress ACL sees every packet.
        trafficgen::Workload picker(flows, trafficgen::Locality::Uniform, 0.0,
                                    seed ^ kPickerSalt);
        auto acl1 = values_of(flows, picker.pick_flows(0.02), "src_ip");
        for (const ir::TableEntry& e :
             deny_entries(acl1, deny_action(program, "rt_acl1"))) {
            insert("rt_acl1", e);
        }
        deny_.add_rule(emu_->fields().intern("src_ip"), std::move(acl1),
                       emu_->fields().intern("needs_conntrack"), 0);
        auto egress = values_of(flows, picker.pick_flows(0.04), "egress_key");
        for (const ir::TableEntry& e :
             deny_entries(egress, deny_action(program, "egress_acl"))) {
            insert("egress_acl", e);
        }
        deny_.add_rule(emu_->fields().intern("egress_key"), std::move(egress));
        entries_installed();

        is_vip_ = emu_->fields().intern("is_vip_traffic");
        needs_ct_ = emu_->fields().intern("needs_conntrack");
        is_l2_ = emu_->fields().intern("is_l2");
        traffic_ = std::make_unique<trafficgen::Workload>(
            std::move(flows), trafficgen::Locality::Zipf, 1.1, seed + 1);
        make_rings();
        warm(shape_.window_bursts);
        if (setup_tick().deployed) note_setup_deploy();
        warm(shape_.window_bursts);
    }

    /// One churn insert or delete per call pair: lb_vip holds the base VIPs
    /// plus at most kChurnLive churn VIPs outside the traffic's VIP range,
    /// so churn never changes a verdict — only the covering caches' state.
    void before_dispatch() override {
        for (int i = 0; i < kChurnPerBurst; ++i) {
            if (live_.size() >= kChurnLive) {
                erase("lb_vip", {ir::FieldMatch::exact(live_.front())});
                live_.pop_front();
            } else {
                insert("lb_vip", exact_entry(next_vip_, 0, {next_vip_ % 8}));
                live_.push_back(next_vip_++);
            }
        }
    }

    void final_checks(std::vector<std::string>& failures) const override {
        std::unordered_set<std::uint64_t> expected(live_.begin(), live_.end());
        for (std::uint64_t vip = 0; vip < kVips; ++vip) expected.insert(vip);
        std::unordered_set<std::uint64_t> actual;
        for (const ir::TableEntry& e : controller_->api().entries("lb_vip")) {
            actual.insert(e.key.at(0).value);
        }
        if (actual != expected) {
            failures.push_back("lb_vip entry set differs from the churn schedule");
        }
        if (emu_->program().find_table("lb_vip") != ir::kNoNode &&
            emu_->entry_count("lb_vip") != expected.size()) {
            failures.push_back("deployed lb_vip entry count differs");
        }
    }

protected:
    void stamp(sim::PacketBatch& batch) override {
        // Three windows per phase, as in fig11c.
        const std::uint64_t phase =
            (bursts_ / (3 * shape_.window_bursts)) % 3;
        for (sim::Packet& p : batch) {
            p.set(is_vip_, phase == 0);
            p.set(needs_ct_, phase == 1);
            p.set(is_l2_, phase == 2);
        }
    }

private:
    static constexpr std::uint64_t kVips = 64;
    static constexpr std::size_t kChurnLive = 16;
    static constexpr int kChurnPerBurst = 2;
    sim::FieldId is_vip_ = sim::kNoField;
    sim::FieldId needs_ct_ = sim::kNoField;
    sim::FieldId is_l2_ = sim::kNoField;
    std::deque<std::uint64_t> live_;
    std::uint64_t next_vip_ = 1000;
};

}  // namespace

// ---------------------------------------------------------------- Scenario

void Scenario::build(sim::NicModel model, ir::Program program,
                     runtime::ControllerConfig config) {
    cost::CostModel costs(model.costs);
    emu_ = std::make_unique<sim::Emulator>(model, program);
    emu_->set_worker_count(shape_.workers);
    emu_->set_deterministic(shape_.deterministic);
    controller_ = std::make_unique<runtime::Controller>(
        *emu_, std::move(program), std::move(costs), std::move(config));
}

void Scenario::make_rings() {
    std::size_t cap = 1;
    while (cap < 2 * shape_.burst) cap <<= 1;
    sim::RingConfig cfg;
    cfg.rx_capacity = cap;
    io_.emplace(emu_->make_rings(cfg));
}

sim::PacketBatch Scenario::next_burst() {
    sim::PacketBatch batch = traffic_->next_batch(emu_->fields(), shape_.burst);
    stamp(batch);
    ++bursts_;
    return batch;
}

bool Scenario::insert(const std::string& table, const ir::TableEntry& e) {
    SpanScope span(*log_, "ctl.entry_op", burst_id_);
    const auto t0 = Clock::now();
    const bool ok = controller_->api().insert(*emu_, table, e);
    ops_.us.push_back(us_since(t0));
    ++ops_.submitted;
    if (!ok) ++ops_.failed;
    return ok;
}

bool Scenario::erase(const std::string& table,
                     const std::vector<ir::FieldMatch>& key) {
    SpanScope span(*log_, "ctl.entry_op", burst_id_);
    const auto t0 = Clock::now();
    const bool ok = controller_->api().erase(*emu_, table, key);
    ops_.us.push_back(us_since(t0));
    ++ops_.submitted;
    if (!ok) ++ops_.failed;
    return ok;
}

void Scenario::stage(const std::string& table,
                     const std::vector<ir::TableEntry>& entries) {
    if (!staging_) {
        // A program with none of the workload's tables: the mapper stores
        // each entry and finds nothing to push it to.
        staging_ = std::make_unique<sim::Emulator>(
            sim::bluefield2_model(), ir::chain_of_exact_tables("staging", 1));
    }
    // Staging drains the staging emulator once per entry; keep those spans
    // out of the tracer's bounded buffer.
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    const bool tracing = tracer.enabled();
    tracer.set_enabled(false);
    for (const ir::TableEntry& e : entries) {
        if (!controller_->api().insert(*staging_, table, e)) {
            throw std::runtime_error("staging rejected an entry for " + table);
        }
    }
    tracer.set_enabled(tracing);
}

void Scenario::install_staged() {
    controller_->api().deploy_entries(*emu_);
    staging_.reset();
}

void Scenario::entries_installed() {
    controller_->api().begin_window();
}

void Scenario::warm(std::size_t bursts) {
    for (std::size_t i = 0; i < bursts; ++i) {
        sim::PacketBatch batch = next_burst();
        io_->dispatch_batch(batch, emu_->now_seconds());
        const auto t0 = Clock::now();
        emu_->poll(*io_, warm_out_);
        if (time_next_poll_) {
            setup_next_poll_us_ = us_since(t0);
            time_next_poll_ = false;
        }
        emu_->advance_time(static_cast<double>(batch.size()) / kVirtualPps);
    }
}

runtime::TickResult Scenario::setup_tick() {
    runtime::TickResult r = controller_->tick();
    if (r.outcome.has_value()) {
        if (r.deployed) {
            setup_prediction_ = r.outcome->predicted_latency;
        } else if (emu_->program() == controller_->original()) {
            setup_prediction_ = r.outcome->baseline_latency;
        }
    }
    return r;
}

void Scenario::note_setup_deploy() {
    ++setup_deploys_;
    time_next_poll_ = true;
}

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {
        "dash_uniform", "lb_zipf_cached", "nf_shift_churn"};
    return names;
}

std::unique_ptr<Scenario> make_scenario(const std::string& name) {
    if (name == "dash_uniform") return std::make_unique<DashUniform>();
    if (name == "lb_zipf_cached") return std::make_unique<LbZipfCached>();
    if (name == "nf_shift_churn") return std::make_unique<NfShiftChurn>();
    return nullptr;
}

}  // namespace perfbench
