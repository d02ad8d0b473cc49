#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

SpanReport reduce_spans(
    std::vector<Span> spans,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& intervals) {
    SpanReport report;
    for (const auto& [a, b] : intervals) {
        report.wall_ns += static_cast<double>(b - a);
    }
    auto interval_of = [&](const Span& s) -> const std::pair<std::uint64_t,
                                                             std::uint64_t>* {
        for (const auto& iv : intervals) {
            if (s.start_ns >= iv.first && s.end_ns <= iv.second) return &iv;
        }
        return nullptr;
    };

    // Parents sort before their children: earlier start first, and on a
    // tie the longer span first.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
        if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
        return a.end_ns > b.end_ns;
    });
    struct Open {
        std::size_t index;
        double child_ns;
    };
    std::vector<Open> stack;
    auto close = [&](const Open& o) {
        const Span& s = spans[o.index];
        const double dur = static_cast<double>(s.end_ns - s.start_ns);
        report.self_ns[s.name] += std::max(0.0, dur - o.child_ns);
        report.durations_ns[s.name].push_back(dur);
    };
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        while (!stack.empty() && spans[stack.back().index].end_ns <= s.start_ns) {
            close(stack.back());
            stack.pop_back();
        }
        const double dur = static_cast<double>(s.end_ns - s.start_ns);
        if (stack.empty()) {
            if (interval_of(s) != nullptr) report.covered_ns += dur;
        } else {
            stack.back().child_ns += dur;
        }
        stack.push_back({i, 0.0});
    }
    while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
    }
    return report;
}

std::vector<Span> tracer_spans() {
    std::vector<Span> out;
    for (const pipeleon::telemetry::TraceEvent& e :
         pipeleon::telemetry::Tracer::global().events()) {
        out.push_back({e.name, 0, e.ts_ns, e.ts_ns + e.dur_ns});
    }
    return out;
}

bool write_chrome_trace(const std::vector<Span>& spans, const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                     "\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                     "\"args\":{\"burst\":%llu}}",
                     i == 0 ? "" : ",", s.name,
                     static_cast<double>(s.start_ns) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                     static_cast<unsigned long long>(s.burst));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

}  // namespace perfbench
