// perfbench/test_perfbench.cpp — the benchmark's own unit tests, on small
// synthetic inputs: the percentile rule, the deny-set drop predictor and
// the span reduction. Run with `python3 perfbench/run.py --self-test`.
#include <cstdio>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
    if (!ok) {
        std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
        ++failures;
    }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

void test_percentile_rule() {
    using perfbench::highest_supported_percentile;
    using perfbench::samples_beyond;
    CHECK(samples_beyond(1000, 99.0) == 10);
    CHECK(samples_beyond(999, 99.0) == 9);
    CHECK(samples_beyond(100, 90.0) == 10);
    CHECK(samples_beyond(100, 99.0) == 1);
    CHECK(samples_beyond(0, 50.0) == 0);
    CHECK(highest_supported_percentile(10000) == 99.9);
    CHECK(highest_supported_percentile(1000) == 99.0);
    CHECK(highest_supported_percentile(999) == 90.0);
    CHECK(highest_supported_percentile(100) == 90.0);
    CHECK(highest_supported_percentile(99) == 50.0);
    CHECK(highest_supported_percentile(20) == 50.0);
    CHECK(highest_supported_percentile(19) == 0.0);
}

void test_nearest_rank_percentile() {
    std::vector<double> v;
    for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
    CHECK(perfbench::percentile(v, 50.0) == 50.0);
    CHECK(perfbench::percentile(v, 90.0) == 90.0);
    CHECK(perfbench::percentile(v, 99.0) == 99.0);
    CHECK(perfbench::percentile(v, 100.0) == 100.0);
    std::vector<double> one = {7.0};
    CHECK(perfbench::percentile(one, 99.0) == 7.0);
    std::vector<double> none;
    CHECK(perfbench::percentile(none, 50.0) == 0.0);
}

void test_host_scaled_median() {
    // Three segments; the second ran while the host was half as fast (its
    // probe took twice the reference time), the third 25% faster.
    const std::vector<double> probe = {100.0, 200.0, 80.0};
    const std::vector<double> mpps = {1.0, 0.5, 1.25};
    CHECK(perfbench::host_scaled_median(mpps, probe, 100.0, true) == 1.0);
    const std::vector<double> us = {10.0, 20.0, 8.0};
    CHECK(perfbench::host_scaled_median(us, probe, 100.0, false) == 10.0);
    // A faster reference host reads as a higher rate.
    CHECK(perfbench::host_scaled_median(mpps, probe, 50.0, true) == 2.0);
    // Nearest-rank median of an even count: the lower middle value.
    CHECK(perfbench::host_scaled_median({4.0, 1.0, 3.0, 2.0}, {1.0, 1.0, 1.0, 1.0},
                                        1.0, true) == 2.0);
    CHECK(perfbench::host_scaled_median({}, {}, 1.0, true) == 0.0);
}

void test_deny_predictor() {
    using pipeleon::sim::FieldTable;
    using pipeleon::sim::Packet;
    using pipeleon::sim::PacketBatch;
    FieldTable fields;
    const auto src = fields.intern("src_ip");
    const auto egress = fields.intern("egress_key");
    const auto ct = fields.intern("needs_conntrack");

    perfbench::DenyPredictor deny;
    // The guarded ACL only sees packets that skip conntrack.
    deny.add_rule(src, {10, 11}, ct, 0);
    deny.add_rule(egress, {3});

    auto packet = [&](std::uint64_t s, std::uint64_t e, std::uint64_t c) {
        Packet p;
        p.set(src, s);
        p.set(egress, e);
        p.set(ct, c);
        return p;
    };
    CHECK(deny.denies(packet(10, 0, 0)));
    CHECK(!deny.denies(packet(10, 0, 1)));  // guard fails
    CHECK(deny.denies(packet(10, 3, 1)));   // unguarded rule still drops
    CHECK(!deny.denies(packet(12, 4, 0)));
    CHECK(!deny.denies(Packet{}));          // unset fields read as 0

    PacketBatch batch;
    batch.push_back(packet(10, 0, 0));  // drop
    batch.push_back(packet(11, 3, 0));  // drop (both rules; counted once)
    batch.push_back(packet(11, 0, 1));  // pass
    batch.push_back(packet(1, 3, 1));   // drop
    batch.push_back(packet(1, 1, 0));   // pass
    CHECK(deny.count(batch) == 3);

    perfbench::DenyPredictor empty;
    CHECK(empty.count(batch) == 0);
}

void test_span_reduction() {
    using perfbench::Span;
    // One burst [0, 100): gen [0, 20), poll [30, 90) with an internal span
    // [40, 60) recorded by the program (no burst id); then a gap [100, 110); a tick
    // [110, 150). A span outside the interval counts, but not as coverage.
    std::vector<Span> spans = {
        {"poll", 1, 30, 90},   {"burst", 1, 0, 100}, {"gen", 1, 0, 20},
        {"inner", 0, 40, 60},  {"tick", 1, 110, 150}, {"late", 2, 500, 600},
    };
    const perfbench::SpanReport rep = perfbench::reduce_spans(spans, {{0, 150}});
    CHECK(rep.wall_ns == 150.0);
    CHECK(rep.covered_ns == 140.0);
    CHECK(rep.self_ns.at("burst") == 20.0);
    CHECK(rep.self_ns.at("gen") == 20.0);
    CHECK(rep.self_ns.at("poll") == 40.0);
    CHECK(rep.self_ns.at("inner") == 20.0);
    CHECK(rep.self_ns.at("tick") == 40.0);
    CHECK(rep.self_ns.at("late") == 100.0);
    CHECK(rep.durations_ns.at("poll").size() == 1);
    CHECK(rep.durations_ns.at("poll")[0] == 60.0);
}

}  // namespace

int main() {
    test_percentile_rule();
    test_nearest_rank_percentile();
    test_host_scaled_median();
    test_deny_predictor();
    test_span_reduction();
    if (failures == 0) std::printf("perfbench tests: all passed\n");
    return failures == 0 ? 0 : 1;
}
