// perfbench/main.cpp — the end-to-end Pipeleon benchmark program.
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <file.json>]
//
// One closed-loop main thread: generate a burst, dispatch it through the
// RSS rings, poll it to completion and reap it, then the next burst; the
// controller ticks between windows. Every output is checked (conservation,
// policy verdicts against the generator's deny set, workload-specific entry
// sets). With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 the run alternates untraced and traced rounds and reports
// the per-layer metrics, derived from the benchmark's spans. Exit code 1 when
// any output check fails, 2 on a usage or set-up error.
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "host_probe.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

using namespace pipeleon;
using perfbench::Scenario;
using perfbench::SpanLog;
using perfbench::SpanScope;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-ups per run (setup_s is their median): at least kMinSetupReps, and
/// more while they total under kSetupBudgetS, so a cheap set-up is still
/// sampled often enough for a steady median.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 25;
constexpr double kSetupBudgetS = 1.0;
/// Bursts per timed round; a traced run alternates untraced/traced rounds.
constexpr std::size_t kRoundBursts = 32;
/// Host-side end-to-end metrics are computed per segment of the timed phase
/// (at least kSegmentSeconds, 1000 bursts and, where the phase ticks, 100
/// ticks: ten samples beyond p99 and p90) from bursts and ticks scaled to
/// the reference host speed, each by the host probes taken just before and
/// just after it; the run reports the median segment. Interference on a
/// shared host arrives in episodes of a tenth of a second to minutes that
/// slow every layer at once, often for a whole run; the probe sees the same
/// episodes, the program's own changes do not move it.
constexpr double kSegmentSeconds = 1.0;
constexpr std::size_t kMinSegments = 4;
/// Least time between two host probes (each takes a few ms).
constexpr double kHostProbeInterval = 0.05;
/// Re-optimization probe of workloads without ticks in the timed phase:
/// after each timed segment (once the emulated window has closed) comes a
/// probe segment of this many ticks, each after a window of
/// kProbeWindowPackets untimed packets. Interleaving spreads the probe over
/// the whole run, so it meets the same host as the timed segments. The
/// window is large enough for a steady profile.
constexpr std::size_t kProbeTicksPerSegment = 100;
constexpr std::size_t kProbeWindowPackets = 1024;
/// A run keeps going past --seconds until it has its segments, but never
/// past this multiple of --seconds.
constexpr double kMaxOvertime = 3.0;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* v = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            args.workload = v;
        } else if (key == "--seed") {
            args.seed = std::strtoull(v, &end, 10);
            if (*end != '\0') return false;
        } else if (key == "--seconds") {
            args.seconds = std::strtod(v, &end);
            if (*end != '\0' || !(args.seconds > 0.0)) return false;
        } else if (key == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
            args.trace = v[0] == '1';
        } else if (key == "--trace-out") {
            args.trace_out = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !args.workload.empty();
}

struct CacheCounts {
    std::uint64_t hits = 0, misses = 0, inserts_dropped = 0;
};

CacheCounts read_cache_counts(const sim::Emulator& emu) {
    const profile::RawCounters raw = emu.read_counters();
    CacheCounts c;
    for (std::uint64_t v : raw.cache_hits) c.hits += v;
    for (std::uint64_t v : raw.cache_misses) c.misses += v;
    for (std::uint64_t v : raw.inserts_dropped) c.inserts_dropped += v;
    return c;
}

const char* const kTierCounters[] = {
    "tier.lookups", "tier.sram_hits", "tier.dram_hits", "tier.misses",
    "tier.promotions", "tier.demotions", "tier.dma_fetches"};

std::map<std::string, std::uint64_t> read_tier_counts(const sim::Emulator& emu) {
    const telemetry::MetricsSnapshot snap = emu.telemetry_snapshot();
    std::map<std::string, std::uint64_t> out;
    for (const char* name : kTierCounters) out[name] = snap.counter(name);
    return out;
}

/// Pins the main thread to the highest CPU the process may use. The
/// emulator pins its workers from the lowest CPU up, so with more CPUs than
/// workers the closed-loop thread never shares a CPU with a worker.
void pin_main_thread() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (!CPU_ISSET(cpu, &allowed)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof(one), &one);
        return;
    }
}

double median(std::vector<double> v) { return perfbench::percentile(v, 50.0); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Samples [first, end) of `v`, each divided by its host-speed factor in
/// `f`, or as measured when `f` is null.
std::vector<double> samples_from(const std::vector<double>& v, std::size_t first,
                                 const std::vector<double>* f) {
    std::vector<double> out(v.begin() + static_cast<std::ptrdiff_t>(first), v.end());
    if (f != nullptr) {
        for (std::size_t i = 0; i < out.size(); ++i) out[i] /= (*f)[first + i];
    }
    return out;
}

/// One benchmark run over a set-up scenario.
class Run {
public:
    Run(Scenario& sc, const Args& args) : sc_(sc), args_(args) {
        sc_.set_span_log(&log_);
    }

    void timed_phase();
    void finish_checks();
    /// `setup_probe_ns[i]` is the host probe taken right after set-up i.
    void print_end_to_end(const std::vector<double>& setup_s,
                          const std::vector<double>& setup_probe_ns);
    void print_per_layer();
    bool ok() const { return failures_.empty(); }
    /// Moves the tracer's buffered controller/emulator spans into the run's
    /// span set (the tracer's per-thread buffer is bounded).
    void harvest_tracer() {
        for (const perfbench::Span& s : perfbench::tracer_spans()) {
            internal_spans_.push_back(s);
        }
        telemetry::Tracer::global().clear();
    }

private:
    void burst(bool timed);
    void tick();
    void close_emu_window();
    void resolve_prediction();
    bool enough_samples() const;
    /// Closes the current timed segment once it is long enough; true when
    /// it closed one.
    bool maybe_close_segment();
    /// One probe segment of re-optimization ticks (workloads without ticks
    /// in the timed phase).
    void probe_segment();
    void add_reopt_segment(std::size_t first_tick);
    /// Times the host probe when kHostProbeInterval has passed since the
    /// last one (or `now`), and gives every burst and tick since that one
    /// its host-speed factor.
    void sample_host(bool now);

    void metric(const std::string& name, double value, const char* unit,
                std::size_t n = 0) {
        metrics_.push_back({name, value, unit, n});
    }
    /// Records a tail percentile metric, noting when the sample is too small
    /// for it under the ten-beyond rule.
    void tail_metric(const std::string& name, std::vector<double> v, double q,
                     double scale, const char* unit);
    void emit();

    Scenario& sc_;
    const Args& args_;
    SpanLog log_;
    std::vector<perfbench::Span> internal_spans_;
    sim::BatchResult out_;
    std::uint64_t burst_id_ = 0;
    std::uint64_t bursts_done_ = 0;  ///< timed-phase bursts

    // Timed phase, host side.
    std::vector<double> burst_us_;
    /// Mpps of each round, [untraced, traced] (trace.overhead_ratio).
    std::vector<double> round_mpps_[2];
    double round_ns_ = 0.0;
    std::uint64_t round_pkts_ = 0;
    /// Per-segment host metrics, at reference host speed and as measured,
    /// and the open segment's start.
    struct Segments {
        std::vector<double> mpps, burst_p50, burst_p99, reopt_p50, reopt_p90;
    } seg_, raw_seg_;
    /// Host-speed factor (probe time / kHostProbeNominalNs) of each timed
    /// burst and each searched tick: the geometric mean of the probes taken
    /// just before and just after it.
    std::vector<double> burst_f_, reopt_f_;
    double last_f_ = 0.0;
    std::vector<double> host_ns_;  ///< every host probe of the run
    Clock::time_point last_host_probe_;
    Clock::time_point seg_start_;
    std::size_t seg_burst0_ = 0, seg_tick0_ = 0;
    std::uint64_t seg_pkts_ = 0;
    std::uint64_t traced_pkts_ = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals_;
    Clock::time_point phase_start_;
    int workers_used_ = 0;

    // Outputs and failures.
    std::uint64_t offered_ = 0, reaped_ = 0, ring_dropped_ = 0;
    std::uint64_t verdicts_wrong_ = 0, never_reaped_ = 0;
    std::vector<std::string> failures_;

    // Emulated window (the first emu_bursts timed bursts).
    bool emu_open_ = true;
    double emu_cycles_ = 0.0, emu_nodes_ = 0.0;
    std::uint64_t emu_pkts_ = 0;
    telemetry::LatencyHistogram emu_hist_;
    CacheCounts emu_cache_;
    std::map<std::string, std::uint64_t> tier_before_, tier_delta_;
    std::uint64_t emu_deploys_ = 0;
    std::optional<double> pending_prediction_;
    double window_cycles_ = 0.0;
    std::uint64_t window_pkts_ = 0;
    std::vector<double> pred_errors_;

    // Controller ticks after set-up.
    std::vector<double> tick_ms_, reopt_ms_, search_ms_, candidates_;
    std::vector<double> next_poll_us_;
    std::uint64_t plans_rejected_ = 0, verify_rejects_ = 0;
    bool time_next_poll_ = false;

    struct Metric {
        std::string name;
        double value;
        const char* unit;
        std::size_t n;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;  ///< printed with the metrics, not in JSON
};

void Run::burst(bool timed) {
    const std::uint64_t id = ++burst_id_;
    sc_.set_burst_id(id);
    SpanScope whole(log_, "burst", id);
    sim::Emulator& emu = sc_.emu();

    sim::PacketBatch batch;
    {
        SpanScope s(log_, "trafficgen.next_batch", id);
        batch = sc_.next_burst();
    }
    std::size_t expected_drops = 0;
    {
        SpanScope s(log_, "check.predict", id);
        expected_drops = sc_.deny().count(batch);
    }

    const auto t0 = Clock::now();
    sc_.before_dispatch();
    std::size_t accepted = 0;
    {
        SpanScope s(log_, "rss.dispatch_batch", id);
        accepted = sc_.io().dispatch_batch(batch, emu.now_seconds());
    }
    {
        SpanScope s(log_, "emulator.poll", id);
        const auto p0 = Clock::now();
        emu.poll(sc_.io(), out_);
        if (time_next_poll_) {
            next_poll_us_.push_back(
                std::chrono::duration<double, std::micro>(Clock::now() - p0)
                    .count());
            time_next_poll_ = false;
        }
    }
    std::uint64_t dropped = 0;
    double cycles = 0.0, nodes = 0.0;
    {
        SpanScope s(log_, "reap", id);
        const bool in_emu = emu_open_ && timed;
        for (const sim::ProcessResult& r : out_.results) {
            dropped += r.dropped ? 1 : 0;
            cycles += r.cycles;
            nodes += r.nodes_visited;
            if (in_emu) emu_hist_.record(r.cycles);
        }
    }
    const auto t1 = Clock::now();

    // Output checks: ring conservation, completion, policy verdicts.
    const std::size_t n = batch.size();
    offered_ += n;
    ring_dropped_ += n - accepted;
    reaped_ += out_.results.size();
    const std::size_t reaped = out_.results.size();
    never_reaped_ += accepted > reaped ? accepted - reaped : reaped - accepted;
    verdicts_wrong_ += dropped > expected_drops ? dropped - expected_drops
                                                : expected_drops - dropped;
    workers_used_ = std::max(workers_used_, out_.workers_used);
    window_cycles_ += cycles;
    window_pkts_ += out_.results.size();
    emu.advance_time(static_cast<double>(n) / perfbench::kVirtualPps);

    if (!timed) return;
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    burst_us_.push_back(ns / 1e3);
    round_ns_ += ns;
    round_pkts_ += n;
    seg_pkts_ += n;
    if (emu_open_) {
        emu_cycles_ += cycles;
        emu_nodes_ += nodes;
        emu_pkts_ += out_.results.size();
    }
    ++bursts_done_;
}

void Run::resolve_prediction() {
    if (pending_prediction_.has_value() && window_pkts_ > 0) {
        const double measured = window_cycles_ / static_cast<double>(window_pkts_);
        pred_errors_.push_back(std::fabs(*pending_prediction_ - measured) /
                               measured);
        pending_prediction_.reset();
    }
    window_cycles_ = 0.0;
    window_pkts_ = 0;
}

void Run::tick() {
    SpanScope span(log_, "runtime.tick", burst_id_);
    sim::Emulator& emu = sc_.emu();
    if (emu_open_) {
        // tick() starts a fresh counter window; bank this one first.
        const CacheCounts c = read_cache_counts(emu);
        emu_cache_.hits += c.hits;
        emu_cache_.misses += c.misses;
        emu_cache_.inserts_dropped += c.inserts_dropped;
        resolve_prediction();
    }
    const auto t0 = Clock::now();
    const runtime::TickResult r = sc_.controller().tick();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    tick_ms_.push_back(ms);
    if (r.searched && r.outcome.has_value()) {
        reopt_ms_.push_back(ms);
        search_ms_.push_back(r.outcome->search_seconds * 1e3);
        candidates_.push_back(static_cast<double>(r.outcome->candidates_evaluated));
        plans_rejected_ += r.outcome->plans_rejected;
        if (emu_open_) {
            if (r.deployed) {
                pending_prediction_ = r.outcome->predicted_latency;
            } else if (emu.program() == sc_.controller().original()) {
                pending_prediction_ = r.outcome->baseline_latency;
            }
        }
    }
    if (r.deployed) {
        time_next_poll_ = true;
        if (emu_open_) ++emu_deploys_;
    }
    if (r.verify_rejected) ++verify_rejects_;
}

void Run::close_emu_window() {
    sim::Emulator& emu = sc_.emu();
    const CacheCounts c = read_cache_counts(emu);
    emu_cache_.hits += c.hits;
    emu_cache_.misses += c.misses;
    emu_cache_.inserts_dropped += c.inserts_dropped;
    resolve_prediction();
    const auto after = read_tier_counts(emu);
    for (const auto& [name, v] : after) tier_delta_[name] = v - tier_before_[name];
    emu_open_ = false;
}

bool Run::enough_samples() const {
    if (seg_.mpps.size() < kMinSegments || seg_.reopt_p50.size() < kMinSegments ||
        emu_open_) {
        return false;
    }
    if (args_.trace) {
        // Both round kinds measured, and enough traced polls for poll.us_p99.
        if (round_mpps_[0].empty() || round_mpps_[1].empty()) return false;
        if (perfbench::samples_beyond(bursts_done_ / 2, 99.0) < 10) return false;
    }
    return true;
}

void Run::sample_host(bool now) {
    if (!now && seconds_since(last_host_probe_) < kHostProbeInterval) return;
    SpanScope s(log_, "host.probe", burst_id_);
    host_ns_.push_back(perfbench::host_probe_ns());
    const double f = host_ns_.back() / perfbench::kHostProbeNominalNs;
    const double around = last_f_ > 0.0 ? std::sqrt(last_f_ * f) : f;
    burst_f_.resize(burst_us_.size(), around);
    reopt_f_.resize(reopt_ms_.size(), around);
    last_f_ = f;
    last_host_probe_ = Clock::now();
}

void Run::add_reopt_segment(std::size_t first_tick) {
    for (Segments* s : {&seg_, &raw_seg_}) {
        std::vector<double> t =
            samples_from(reopt_ms_, first_tick, s == &seg_ ? &reopt_f_ : nullptr);
        s->reopt_p50.push_back(perfbench::percentile(t, 50.0));
        s->reopt_p90.push_back(perfbench::percentile(t, 90.0));
    }
}

bool Run::maybe_close_segment() {
    const std::size_t bursts = burst_us_.size() - seg_burst0_;
    const std::size_t ticks = reopt_ms_.size() - seg_tick0_;
    const bool ticking = sc_.shape().window_bursts > 0;
    if (seconds_since(seg_start_) < kSegmentSeconds ||
        perfbench::samples_beyond(bursts, 99.0) < 10 ||
        (ticking && perfbench::samples_beyond(ticks, 90.0) < 10)) {
        return false;
    }
    sample_host(true);  // every burst and tick of the segment gets its factor
    for (Segments* s : {&seg_, &raw_seg_}) {
        std::vector<double> b =
            samples_from(burst_us_, seg_burst0_, s == &seg_ ? &burst_f_ : nullptr);
        double us = 0.0;
        for (double v : b) us += v;
        s->mpps.push_back(static_cast<double>(seg_pkts_) / us);
        s->burst_p50.push_back(perfbench::percentile(b, 50.0));
        s->burst_p99.push_back(perfbench::percentile(b, 99.0));
    }
    if (ticking) add_reopt_segment(seg_tick0_);
    seg_start_ = Clock::now();
    seg_burst0_ = burst_us_.size();
    seg_tick0_ = reopt_ms_.size();
    seg_pkts_ = 0;
    return true;
}

void Run::timed_phase() {
    sim::Emulator& emu = sc_.emu();
    emu.begin_window();
    tier_before_ = read_tier_counts(emu);
    pending_prediction_ = sc_.setup_prediction();
    emu_deploys_ = sc_.setup_deploys();
    if (sc_.setup_deploys() > 0) next_poll_us_.push_back(sc_.setup_next_poll_us());

    const std::size_t window = sc_.shape().window_bursts;
    const std::size_t round_bursts = window > 0 ? window : kRoundBursts;
    sample_host(true);  // brackets the first bursts
    phase_start_ = Clock::now();
    seg_start_ = phase_start_;
    for (std::uint64_t round = 0;; ++round) {
        const bool traced = args_.trace && round % 2 == 1;
        log_.set_enabled(traced);
        telemetry::Tracer::global().set_enabled(traced);
        const std::uint64_t r0 = SpanLog::now();
        round_ns_ = 0.0;
        round_pkts_ = 0;
        for (std::size_t i = 0; i < round_bursts; ++i) {
            burst(true);
            if (traced) traced_pkts_ += sc_.shape().burst;
            if (window > 0 && bursts_done_ % window == 0) tick();
            if (emu_open_ && bursts_done_ == sc_.shape().emu_bursts) {
                close_emu_window();
            }
        }
        round_mpps_[traced ? 1 : 0].push_back(
            static_cast<double>(round_pkts_) / round_ns_ * 1e3);
        if (traced) {
            intervals_.push_back({r0, SpanLog::now()});
            harvest_tracer();
        }
        sample_host(false);
        if (maybe_close_segment() && window == 0 && !emu_open_) {
            probe_segment();
            seg_start_ = Clock::now();
        }
        const double elapsed = seconds_since(phase_start_);
        if (elapsed >= args_.seconds && enough_samples()) break;
        if (elapsed >= kMaxOvertime * args_.seconds) {
            std::fprintf(stderr,
                         "warning: timed phase stopped at %.0f s with %zu of "
                         "%zu segments\n",
                         elapsed, seg_.mpps.size(), kMinSegments);
            break;
        }
    }
    log_.set_enabled(false);
    telemetry::Tracer::global().set_enabled(false);
}

void Run::probe_segment() {
    // Every probe tick profiles one window and searches; none deploys, so
    // the probe measures the re-optimization decision without changing the
    // layout the timed segments run (deploy cost is nf_shift_churn's to
    // show).
    runtime::ControllerConfig& cfg = sc_.controller().config();
    cfg.reoptimize_on_change_only = false;
    cfg.min_relative_gain = std::numeric_limits<double>::infinity();
    sc_.emu().begin_window();
    log_.set_enabled(args_.trace);
    telemetry::Tracer::global().set_enabled(args_.trace);
    const std::uint64_t p0 = SpanLog::now();
    const std::size_t first = reopt_ms_.size();
    for (std::size_t i = 0; i < kProbeTicksPerSegment; ++i) {
        for (std::size_t p = 0; p < kProbeWindowPackets; p += sc_.shape().burst) {
            burst(false);
            if (args_.trace) traced_pkts_ += sc_.shape().burst;
        }
        tick();
        sample_host(false);
    }
    sample_host(true);
    add_reopt_segment(first);
    if (args_.trace) {
        intervals_.push_back({p0, SpanLog::now()});
        harvest_tracer();
    }
}

void Run::finish_checks() {
    if (ring_dropped_ > 0) failures_.push_back("RX ring overflow drops");
    if (offered_ != reaped_ + ring_dropped_) {
        failures_.push_back("conservation: offered != reaped + ring-dropped");
    }
    if (verdicts_wrong_ > 0) {
        failures_.push_back("policy drops differ from the deny-set prediction");
    }
    const sim::RingStats rs = sc_.io().stats();
    if (rs.offered() != sc_.io().next_seq() || rs.depth != 0) {
        failures_.push_back("ring accounting: backlog left or offered mismatch");
    }
    if (sc_.entry_ops().failed > 0) failures_.push_back("entry ops failed");
    sc_.final_checks(failures_);
}

void Run::tail_metric(const std::string& name, std::vector<double> v, double q,
                      double scale, const char* unit) {
    const std::size_t n = v.size();
    if (perfbench::samples_beyond(n, q) < 10) {
        std::fprintf(stderr,
                     "note: %s has %zu samples; the ten-beyond rule supports "
                     "p%g at most\n",
                     name.c_str(), n, perfbench::highest_supported_percentile(n));
    }
    metric(name, perfbench::percentile(v, q) * scale, unit, n);
}

void Run::print_end_to_end(const std::vector<double>& setup_s,
                           const std::vector<double>& setup_probe_ns) {
    constexpr double kNominal = perfbench::kHostProbeNominalNs;
    const std::size_t segs = seg_.mpps.size();
    metric("pkt_mpps", median(seg_.mpps), "Mpps", segs);
    metric("burst_us_p50", median(seg_.burst_p50), "us", segs);
    metric("burst_us_p99", median(seg_.burst_p99), "us", segs);
    metric("emu_cycles_per_pkt", ratio(emu_cycles_, static_cast<double>(emu_pkts_)),
           "cycles", emu_pkts_);
    metric("emu_cycles_p99", emu_hist_.p99(), "cycles", emu_hist_.count());
    metric("reopt_ms_p50", median(seg_.reopt_p50), "ms", seg_.reopt_p50.size());
    metric("reopt_ms_p90", median(seg_.reopt_p90), "ms", seg_.reopt_p90.size());
    metric("setup_s",
           perfbench::host_scaled_median(setup_s, setup_probe_ns, kNominal, false), "s",
           setup_s.size());
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    char note[256];
    std::snprintf(note, sizeof note,
                  "host probe %.3f ms (median of %zu; reference %.3f ms); unscaled "
                  "medians: %.4f Mpps, burst p50 %.2f us, p99 %.2f us, reopt p50 "
                  "%.4f ms, p90 %.4f ms, setup %.6f s",
                  median(host_ns_) / 1e6, host_ns_.size(), kNominal / 1e6,
                  median(raw_seg_.mpps), median(raw_seg_.burst_p50),
                  median(raw_seg_.burst_p99), median(raw_seg_.reopt_p50),
                  median(raw_seg_.reopt_p90), median(setup_s));
    notes_.push_back(note);
    emit();
}

void Run::print_per_layer() {
    std::vector<perfbench::Span> spans = log_.spans();
    spans.insert(spans.end(), internal_spans_.begin(), internal_spans_.end());
    if (!args_.trace_out.empty() &&
        !perfbench::write_chrome_trace(spans, args_.trace_out)) {
        std::fprintf(stderr, "warning: cannot write %s\n", args_.trace_out.c_str());
    }
    const perfbench::SpanReport rep = perfbench::reduce_spans(spans, intervals_);
    const double pkts = static_cast<double>(traced_pkts_);
    auto self_per_pkt = [&](const char* name) {
        auto it = rep.self_ns.find(name);
        return it == rep.self_ns.end() ? 0.0 : it->second / pkts;
    };
    auto durations = [&](const char* name) {
        auto it = rep.durations_ns.find(name);
        return it == rep.durations_ns.end() ? std::vector<double>{} : it->second;
    };
    const double emu_pkts = static_cast<double>(emu_pkts_);
    const double cache_lookups =
        static_cast<double>(emu_cache_.hits + emu_cache_.misses);
    const double tier_lookups = static_cast<double>(tier_delta_["tier.lookups"]);
    const sim::Emulator::ControlPlaneStats cs = sc_.emu().control_stats();

    metric("trafficgen.gen_ns_per_pkt", self_per_pkt("trafficgen.next_batch"), "ns");
    metric("rss.dispatch_ns_per_pkt", self_per_pkt("rss.dispatch_batch"), "ns");
    metric("rss.ring_dropped", static_cast<double>(ring_dropped_), "count");
    metric("poll.ns_per_pkt", self_per_pkt("emulator.poll"), "ns");
    tail_metric("poll.us_p50", durations("emulator.poll"), 50.0, 1e-3, "us");
    tail_metric("poll.us_p99", durations("emulator.poll"), 99.0, 1e-3, "us");
    metric("poll.workers_used", workers_used_, "count");
    metric("reap.ns_per_pkt", self_per_pkt("reap"), "ns");
    metric("emu.nodes_per_pkt", ratio(emu_nodes_, emu_pkts), "count");
    metric("cache.hit_ratio",
           ratio(static_cast<double>(emu_cache_.hits), cache_lookups), "ratio");
    metric("cache.misses", static_cast<double>(emu_cache_.misses), "count");
    metric("cache.inserts_dropped",
           static_cast<double>(emu_cache_.inserts_dropped), "count");
    metric("tier.sram_hit_ratio",
           ratio(static_cast<double>(tier_delta_["tier.sram_hits"]), tier_lookups),
           "ratio");
    metric("tier.dram_hit_ratio",
           ratio(static_cast<double>(tier_delta_["tier.dram_hits"]), tier_lookups),
           "ratio");
    metric("tier.miss_ratio",
           ratio(static_cast<double>(tier_delta_["tier.misses"]), tier_lookups),
           "ratio");
    metric("tier.promotions", static_cast<double>(tier_delta_["tier.promotions"]),
           "count");
    metric("tier.demotions", static_cast<double>(tier_delta_["tier.demotions"]),
           "count");
    metric("tier.dma_fetches", static_cast<double>(tier_delta_["tier.dma_fetches"]),
           "count");
    tail_metric("ctl.entry_op_us_p50", sc_.entry_ops().us, 50.0, 1.0, "us");
    tail_metric("ctl.entry_op_us_p99", sc_.entry_ops().us, 99.0, 1.0, "us");
    metric("ctl.ops_drained", static_cast<double>(cs.ops_drained), "count");
    metric("ctl.entry_op_fail", static_cast<double>(sc_.entry_ops().failed), "count");
    tail_metric("runtime.tick_ms_p50", tick_ms_, 50.0, 1.0, "ms");
    metric("runtime.deploys", static_cast<double>(emu_deploys_), "count");
    metric("runtime.verify_rejects", static_cast<double>(verify_rejects_), "count");
    metric("deploy.next_poll_us", median(next_poll_us_), "us", next_poll_us_.size());
    tail_metric("search.ms_p50", search_ms_, 50.0, 1.0, "ms");
    metric("search.candidates", median(candidates_), "count", candidates_.size());
    metric("search.plans_rejected", static_cast<double>(plans_rejected_), "count");
    metric("cost.pred_error", median(pred_errors_), "ratio", pred_errors_.size());
    tail_metric("profile.ms_p50", durations("controller.profile"), 50.0, 1e-6, "ms");
    tail_metric("verify.ms_p50", durations("controller.verify"), 50.0, 1e-6, "ms");
    metric("host.probe_us", median(host_ns_) / 1e3, "us", host_ns_.size());
    metric("trace.overhead_ratio",
           median(round_mpps_[0]) / median(round_mpps_[1]) - 1.0, "ratio");
    metric("trace.uncovered_ratio", 1.0 - ratio(rep.covered_ns, rep.wall_ns),
           "ratio");
    metric("pkt_fail_ratio",
           ratio(static_cast<double>(ring_dropped_ + never_reaped_ + verdicts_wrong_),
                 static_cast<double>(offered_)),
           "ratio");
    const std::uint64_t ops = sc_.entry_ops().submitted;
    metric("ctl_fail_ratio",
           ratio(static_cast<double>(sc_.entry_ops().failed), static_cast<double>(ops)),
           "ratio");
    if (telemetry::Tracer::global().dropped() > 0) {
        std::fprintf(stderr, "warning: the tracer dropped %llu spans\n",
                     static_cast<unsigned long long>(
                         telemetry::Tracer::global().dropped()));
    }
    if (rep.covered_ns < 0.95 * rep.wall_ns) {
        std::fprintf(stderr, "warning: spans cover only %.1f%% of traced time\n",
                     100.0 * rep.covered_ns / rep.wall_ns);
    }
    emit();
}

void Run::emit() {
    std::printf("workload %s seed %" PRIu64 " trace %d: %" PRIu64
                " timed bursts of %zu packets, %d workers\n",
                args_.workload.c_str(), args_.seed, args_.trace ? 1 : 0,
                bursts_done_, sc_.shape().burst, sc_.shape().workers);
    for (const Metric& m : metrics_) {
        if (m.n > 0) {
            std::printf("  %-28s %16.6f %-7s n=%zu\n", m.name.c_str(), m.value,
                        m.unit, m.n);
        } else {
            std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
        }
    }
    for (const std::string& n : notes_) std::printf("  %s\n", n.c_str());
    for (const std::string& f : failures_) std::printf("CHECK FAILED: %s\n", f.c_str());

    const std::uint64_t ops = sc_.entry_ops().submitted;
    const std::uint64_t attempted = offered_ + ops;
    const std::uint64_t failed = ring_dropped_ + never_reaped_ + verdicts_wrong_ +
                                 sc_.entry_ops().failed;
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                failures_.empty() ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(), v,
                    metrics_[i].unit);
    }
    std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench_e2e --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
        return 2;
    }
    pin_main_thread();
    // The traced run traces set-up too: its deploys are most workloads'
    // only verify spans.
    telemetry::Tracer::global().set_enabled(args.trace);
    std::unique_ptr<Scenario> sc;
    std::vector<double> setup_s, setup_probe_ns;
    double setup_total = 0.0;
    try {
        for (int rep = 0; rep < kMaxSetupReps; ++rep) {
            if (rep >= kMinSetupReps && setup_total >= kSetupBudgetS) break;
            sc.reset();
            const auto t0 = Clock::now();
            sc = perfbench::make_scenario(args.workload);
            if (!sc) {
                std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
                return 2;
            }
            sc->setup(args.seed);
            setup_s.push_back(seconds_since(t0));
            setup_total += setup_s.back();
            setup_probe_ns.push_back(perfbench::host_probe_ns());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "set-up failed: %s\n", e.what());
        return 2;
    }

    Run run(*sc, args);
    run.harvest_tracer();
    run.timed_phase();
    run.finish_checks();
    if (args.trace) {
        run.print_per_layer();
    } else {
        run.print_end_to_end(setup_s, setup_probe_ns);
    }
    return run.ok() ? 0 : 1;
}
