// perfbench/workloads.h — the benchmark's three fig11 workloads. A Scenario
// is one set-up instance of a workload: emulator + worker pool, controller,
// installed entries, the deployed layout, the RSS rings and the traffic
// source, ready for the timed phase. main.cpp owns the timing;
// a Scenario only generates bursts and submits control-plane work.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/controller.h"
#include "sim/emulator.h"
#include "spans.h"
#include "stats.h"
#include "trafficgen/workload.h"

namespace perfbench {

/// Fixed shape of a workload (recorded parameters, not tuning knobs).
struct WorkloadShape {
    std::size_t burst = 256;         ///< packets per closed-loop burst
    int workers = 1;                 ///< data-plane workers
    bool deterministic = false;      ///< in-order single-queue data plane
    /// Bursts between Controller::tick calls in the timed phase; 0 = the
    /// timed phase has no ticks (re-optimization is probed after it).
    std::size_t window_bursts = 0;
    /// Bursts at the start of the timed phase over which the emulated
    /// metrics are taken (a fixed prefix, so they repeat exactly per seed).
    std::size_t emu_bursts = 0;
};

/// Packets per virtual second: each burst advances the emulator clock by
/// burst / kVirtualPps (cache insertion limits read this clock).
inline constexpr double kVirtualPps = 10e6;

/// Counts and wall times of the control-plane entry ops a scenario made.
struct EntryOpStats {
    std::vector<double> us;  ///< per-op wall time
    std::uint64_t submitted = 0;
    std::uint64_t failed = 0;
};

class Scenario {
public:
    virtual ~Scenario() = default;

    const WorkloadShape& shape() const { return shape_; }
    pipeleon::sim::Emulator& emu() { return *emu_; }
    pipeleon::runtime::Controller& controller() { return *controller_; }
    pipeleon::sim::RssDispatcher& io() { return *io_; }
    const DenyPredictor& deny() const { return deny_; }
    const EntryOpStats& entry_ops() const { return ops_; }

    /// Builds everything up to a warm, deployed data plane.
    virtual void setup(std::uint64_t seed) = 0;

    /// Generates the next burst (traffic generation, including any
    /// per-phase header stamping).
    pipeleon::sim::PacketBatch next_burst();

    /// Control-plane work submitted before a burst is dispatched (entry
    /// churn through the API mapper); nothing by default.
    virtual void before_dispatch() {}

    /// Output checks that only the workload knows; appends a reason per
    /// failure.
    virtual void final_checks(std::vector<std::string>& failures) const {
        (void)failures;
    }

    /// The cost model's prediction for what setup deployed (the deployed
    /// layout's predicted latency, or the baseline when the original
    /// program still serves); nullopt when the setup tick did not search.
    std::optional<double> setup_prediction() const { return setup_prediction_; }
    /// Deploys committed during setup.
    std::uint64_t setup_deploys() const { return setup_deploys_; }
    /// Wall time of the first poll after setup's last deploy (µs); 0 when
    /// setup deployed nothing.
    double setup_next_poll_us() const { return setup_next_poll_us_; }

    /// Where entry-op spans go, and the burst they belong to.
    void set_span_log(SpanLog* log) { log_ = log; }
    void set_burst_id(std::uint64_t id) { burst_id_ = id; }

protected:
    explicit Scenario(WorkloadShape shape) : shape_(shape) {}

    /// Creates emulator, worker pool and controller for `program`.
    void build(pipeleon::sim::NicModel model, pipeleon::ir::Program program,
               pipeleon::runtime::ControllerConfig config);
    /// Rings sized so a whole burst fits any one queue: the closed loop
    /// never overflows by construction, so any ring drop is a failure.
    void make_rings();

    /// Timed API-mapper entry ops (counted in entry_ops()).
    bool insert(const std::string& table, const pipeleon::ir::TableEntry& e);
    bool erase(const std::string& table,
               const std::vector<pipeleon::ir::FieldMatch>& key);
    /// Adds entries to the API mapper's original-space store without
    /// pushing each one to the data plane (ApiMapper::insert re-pushes the
    /// whole table per call, which is quadratic for per-flow tables);
    /// install_staged() then loads every staged table in one pass.
    void stage(const std::string& table,
               const std::vector<pipeleon::ir::TableEntry>& entries);
    void install_staged();
    /// Ends the initial entry load: the API mapper's update counters are
    /// zeroed, so the first profile does not read the load as entry churn
    /// (which would both misprice caches and blow up the knapsack's update
    /// budget).
    void entries_installed();

    /// Dispatches and polls `bursts` untimed bursts (warm-up).
    void warm(std::size_t bursts);
    /// One setup tick; records its prediction and deploy.
    pipeleon::runtime::TickResult setup_tick();
    /// Records a deploy made during setup and times the next poll.
    void note_setup_deploy();

    /// Hook for per-phase header stamping.
    virtual void stamp(pipeleon::sim::PacketBatch& batch) { (void)batch; }

    WorkloadShape shape_;
    std::unique_ptr<pipeleon::sim::Emulator> emu_;
    std::unique_ptr<pipeleon::runtime::Controller> controller_;
    std::unique_ptr<pipeleon::trafficgen::Workload> traffic_;
    std::optional<pipeleon::sim::RssDispatcher> io_;
    DenyPredictor deny_;
    EntryOpStats ops_;
    std::uint64_t bursts_ = 0;  ///< bursts generated so far (setup included)

private:
    std::unique_ptr<pipeleon::sim::Emulator> staging_;
    pipeleon::sim::BatchResult warm_out_;
    std::optional<double> setup_prediction_;
    std::uint64_t setup_deploys_ = 0;
    bool time_next_poll_ = false;
    double setup_next_poll_us_ = 0.0;
    SpanLog no_spans_;
    SpanLog* log_ = &no_spans_;
    std::uint64_t burst_id_ = 0;
};

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// A fresh, not-yet-set-up scenario; nullptr for an unknown name.
std::unique_ptr<Scenario> make_scenario(const std::string& name);

}  // namespace perfbench
