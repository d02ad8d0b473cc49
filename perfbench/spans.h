// perfbench/spans.h — the benchmark's own trace spans and their exporter.
//
// The benchmark records one span around each call it makes into a layer
// (next_batch, dispatch_batch, poll, reap, entry ops, tick), all spans of a
// burst sharing the burst's id. Spans stay in memory; at the end they are
// merged with the controller's internal spans (telemetry::Tracer), nested by
// time, and reduced to per-layer self time: a span's duration minus the part
// its child spans cover. Every span is recorded on the main thread, so
// spans are either nested or disjoint.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/trace.h"

namespace perfbench {

struct Span {
    const char* name = "";  ///< static string (literal or tracer name)
    std::uint64_t burst = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
};

/// In-memory span buffer. Timestamps share telemetry::Tracer's clock, so the
/// controller's spans interleave correctly with the benchmark's.
class SpanLog {
public:
    bool enabled() const { return enabled_; }
    void set_enabled(bool on) { enabled_ = on; }
    static std::uint64_t now() {
        return pipeleon::telemetry::Tracer::global().now_ns();
    }
    void add(const char* name, std::uint64_t burst, std::uint64_t start_ns,
             std::uint64_t end_ns) {
        spans_.push_back({name, burst, start_ns, end_ns});
    }
    const std::vector<Span>& spans() const { return spans_; }

private:
    bool enabled_ = false;
    std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) when the log is enabled.
class SpanScope {
public:
    SpanScope(SpanLog& log, const char* name, std::uint64_t burst)
        : log_(log), name_(name), burst_(burst),
          start_(log.enabled() ? SpanLog::now() : 0) {}
    ~SpanScope() {
        if (log_.enabled()) log_.add(name_, burst_, start_, SpanLog::now());
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    SpanLog& log_;
    const char* name_;
    std::uint64_t burst_;
    std::uint64_t start_;
};

/// Per-layer reduction of a set of spans.
struct SpanReport {
    /// Sum of self time (ns) per span name.
    std::map<std::string, double> self_ns;
    /// Every span's full duration (ns) per span name.
    std::map<std::string, std::vector<double>> durations_ns;
    /// Wall time of the measured intervals, and the part of it that some
    /// top-level span covers.
    double wall_ns = 0.0;
    double covered_ns = 0.0;
};

/// Nests `spans` by time (a span's parent is the innermost span containing
/// it) and reduces them. Self times and durations count every span;
/// coverage counts only top-level spans inside one of `intervals` ([start,
/// end) pairs), against the intervals' total length.
SpanReport reduce_spans(std::vector<Span> spans,
                        const std::vector<std::pair<std::uint64_t,
                                                    std::uint64_t>>& intervals);

/// Converts the tracer's buffered events into spans with no burst id.
std::vector<Span> tracer_spans();

/// Writes spans as chrome://tracing trace-event JSON ("ph":"X", times in
/// µs, the burst id under "args"). Returns false when the file cannot be
/// written.
bool write_chrome_trace(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
