/**
 * @file
 * Host-time benchmark program for the fbfly simulator (README.md in
 * this directory explains the workloads, metrics and traced run).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Every layer is timed from outside, through the library's public
 * API; nothing here reaches into src/.  Every time is in reference
 * seconds (see HostSpeed).  A run has three parts:
 *
 *  1. set-up: every Topology, RoutingAlgorithm, ChurnModel,
 *     Network::validate and Network construction a round performs,
 *     repeated for at least two seconds; the median repetition is
 *     `setup_s`;
 *  2. rounds: the workload's fixed list of sweep points, run through
 *     the harness one point at a time on this thread, repeated while
 *     `--seconds` allows.  Simulated results are identical in every
 *     round (the simulator is deterministic), so each point's time is
 *     the median over rounds and the rates are totals of those medians;
 *  3. with `--trace 1` only: one round, then the library's own batch
 *     call for the same points (which must give the same results),
 *     JSON serialization of the round's records and a replay of every
 *     point as a benchmark-driven tick+step loop that times the
 *     traffic and network layers cycle by cycle (this extra work over
 *     the round's time is the tracing overhead).
 *
 * The last stdout line is one JSON object: correct / attempted /
 * failed / metrics.  Earlier lines starting with '#' are for people;
 * the `meta` line carries host facts and the determinism digest.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/churn_model.h"
#include "harness/churn.h"
#include "harness/design_search.h"
#include "harness/experiment.h"
#include "harness/factory.h"
#include "harness/result_writer.h"
#include "harness/sweep.h"
#include "network/network.h"
#include "routing/min_adaptive.h"
#include "routing/switchable.h"
#include "routing/ugal.h"
#include "topology/flattened_butterfly.h"
#include "traffic/injection.h"
#include "traffic/traffic_pattern.h"

using namespace fbfly;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Time one call, adding its seconds to @p acc; returns its value. */
template <typename F>
auto
timed(double &acc, F &&f)
{
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
        f();
        acc += secondsSince(t0);
    } else {
        auto v = f();
        acc += secondsSince(t0);
        return v;
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated quantile @p q in [0, 1] of sorted @p v. */
double
quantile(const std::vector<double> &v, double q)
{
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/**
 * Host-speed sampler, and the scaling of host time to a reference speed.
 *
 * On a virtual machine whose cores are shared with other machines'
 * threads, the simulator's speed switches between states as those
 * threads come and go: the same work can take 1.5-1.7x as long in one
 * state as in another, and the states last from a fraction of a second
 * to minutes, so a run's mix of them decides its time.  The benchmark
 * therefore runs a sampler thread on the same CPU as the simulator (both
 * are pinned to it): every kPeriod it wakes, preempts the simulator,
 * times one fixed kernel (a pointer chase over a 256 KiB cycle, then
 * a hash map of 8,000 keys built and looked up; about 1.5 ms) and
 * sleeps again.  The kernel slows down with the simulator as the
 * host's state changes, and because it runs inside each unit of work,
 * not only around it, it sees state changes in the middle of a long
 * point.  Which half tracks the simulator better depends on the
 * host's state; together they were never far from the better one.
 * (Over forty equal 0.7-s simulator runs on a noisy 4-vCPU VM the
 * chase cut their quartile spread from 30% to 7%, the pair to 8%;
 * over 800 0.1-s runs in a noisier state, from 41% to 16% and 13-15%;
 * probes taken only before and after each run did about half as
 * well.)
 *
 * Every host time the benchmark reports is "reference seconds": the
 * measured seconds less the sampler's own time inside them, times
 * kReferenceS over the median kernel time of the samples inside them
 * (at least the last three samples), that is, the time the work would
 * take on a host where the kernel takes exactly kReferenceS.  The
 * kernel does not depend on the simulator's code, so a change to the
 * simulator moves reference seconds as it moves host seconds.
 */
class HostSpeed
{
  public:
    /** About one kernel run on an unloaded 4-vCPU Xeon VM, so
     *  reference seconds read close to host seconds there. */
    static constexpr double kReferenceS = 1.5e-3;
    static constexpr std::chrono::milliseconds kPeriod{20};

    HostSpeed() : t0_(Clock::now())
    {
        // One cycle through every slot, in a fixed shuffled order.
        std::vector<std::uint32_t> order(next_.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = static_cast<std::uint32_t>(i);
        std::uint64_t z = 0x70726f6265ULL;
        for (std::size_t i = order.size() - 1; i > 0; --i) {
            z = z * 6364136223846793005ULL + 1442695040888963407ULL;
            std::swap(order[i], order[(z >> 33) % (i + 1)]);
        }
        for (std::size_t i = 0; i < order.size(); ++i)
            next_[order[i]] = order[(i + 1) % order.size()];
        for (std::uint32_t &k : keys_) {
            z = z * 6364136223846793005ULL + 1442695040888963407ULL;
            k = static_cast<std::uint32_t>(z >> 32);
        }

        CPU_ZERO(&all_);
        pinned_ = sched_getaffinity(0, sizeof all_, &all_) == 0;
        if (pinned_) {
            CPU_ZERO(&one_);
            CPU_SET(sched_getcpu(), &one_);
            pinned_ = sched_setaffinity(0, sizeof one_, &one_) == 0;
        }
        for (int i = 0; i < 3; ++i)
            sample();
        // Created while this thread is pinned, so it runs on the same
        // CPU.
        sampler_ = std::thread([this] {
            while (!stop_.load(std::memory_order_relaxed)) {
                std::this_thread::sleep_for(kPeriod);
                sample();
            }
        });
    }

    ~HostSpeed()
    {
        stop_ = true;
        sampler_.join();
    }

    HostSpeed(const HostSpeed &) = delete;
    HostSpeed &operator=(const HostSpeed &) = delete;

    /**
     * Run @p f and return the factor that scales host seconds measured
     * inside it to reference seconds (it also takes out the sampler's
     * time).  Brackets may nest.
     */
    template <typename F>
    double bracket(F &&f)
    {
        const double a = now();
        f();
        const double b = now();
        std::lock_guard<std::mutex> lock(mu_);
        double busy = 0.0;
        std::vector<double> kernels;
        for (auto it = samples_.rbegin(); it != samples_.rend(); ++it) {
            if (it->end < a && kernels.size() >= 3)
                break;
            busy += std::max(0.0, std::min(it->end, b) -
                                      std::max(it->start, a));
            if (it->end <= b)
                kernels.push_back(it->end - it->start);
        }
        const double elapsed = b - a;
        const double own = elapsed > 0.0 ? (elapsed - busy) / elapsed : 1.0;
        return own * kReferenceS / median(std::move(kernels));
    }

    /** Run @p f on every CPU this process may use (for the sharded
     *  engine's threads, which inherit the caller's CPU set). */
    template <typename F>
    void unpinned(F &&f)
    {
        if (pinned_)
            sched_setaffinity(0, sizeof all_, &all_);
        f();
        if (pinned_)
            sched_setaffinity(0, sizeof one_, &one_);
    }

    /** Median kernel seconds over the run. */
    double medianKernel()
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<double> v;
        for (const Sample &s : samples_)
            v.push_back(s.end - s.start);
        return median(std::move(v));
    }

  private:
    struct Sample
    {
        double start;
        double end;
    };

    double now() const
    {
        return std::chrono::duration<double>(Clock::now() - t0_).count();
    }

    void sample()
    {
        const double start = now();
        std::uint32_t j = 0;
        for (int i = 0; i < 100000; ++i)
            j = next_[j];
        std::unordered_map<std::uint32_t, std::uint32_t> m;
        for (std::size_t i = 0; i < keys_.size(); ++i)
            m[keys_[i]] = static_cast<std::uint32_t>(i);
        for (std::size_t i = 0; i < keys_.size(); ++i)
            j += static_cast<std::uint32_t>(
                m.count(keys_[(i * 7) % keys_.size()]));
        sink_ = j;
        const double end = now();
        std::lock_guard<std::mutex> lock(mu_);
        samples_.push_back({start, end});
    }

    const Clock::time_point t0_;
    std::vector<std::uint32_t> next_ = std::vector<std::uint32_t>(65536);
    std::vector<std::uint32_t> keys_ = std::vector<std::uint32_t>(8000);
    cpu_set_t all_;
    cpu_set_t one_;
    bool pinned_ = false;
    std::mutex mu_;
    std::vector<Sample> samples_;
    std::atomic<bool> stop_{false};
    std::thread sampler_;
    volatile std::uint32_t sink_ = 0;
};

/** FNV-1a over the simulated results (never over wall-clock data). */
class Digest
{
  public:
    void bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    /** Bit pattern, so NaN and -0.0 hash reproducibly. */
    void f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ---------------------------------------------------------------------
// Per-point expectations and checks

/** What the benchmark expects of one sweep point. */
struct Expect
{
    /** Below saturation: the run must deliver and accepted
     *  throughput must track the offered load. */
    bool belowSaturation = true;
    /** Analytic upper bound on accepted throughput (NaN: none). */
    double bound = std::numeric_limits<double>::quiet_NaN();
    /** Churn points may lose labeled packets to repairs (accounted
     *  as expected drops by the oracle) or recover from a stall, but
     *  never saturate. */
    bool churn = false;
};

/**
 * Exact simulated cycles of a harness run, recovered from its
 * returned MetricsRegistry.  The ObsSampler emits one
 * obs.channel_util.mean value per window, equal to the window's
 * inter-router flits / (window cycles * arcs); every window but the
 * last spans exactly `window` cycles, and all windows together carry
 * obs.channel_flits_integrated flits.  So the last window's flit
 * count, and from it its length, follow exactly (each step is an
 * integer recovered from a double with error far below 0.5).
 * Returns 0 when the run carried no inter-router traffic in its last
 * window, which leaves its length undetermined.
 */
std::uint64_t
simulatedCycles(const MetricsRegistry &m, std::size_t arcs)
{
    const MetricsRegistry::Series *s =
        m.findSeries("obs.channel_util.mean");
    if (s == nullptr || s->values.empty() || arcs == 0)
        return 0;
    const double a = static_cast<double>(arcs);
    const double w = static_cast<double>(s->windowCycles);
    std::uint64_t fullFlits = 0;
    for (std::size_t i = 0; i + 1 < s->values.size(); ++i)
        fullFlits += static_cast<std::uint64_t>(
            std::llround(s->values[i] * a * w));
    const std::uint64_t total =
        m.counter("obs.channel_flits_integrated");
    const double last = s->values.back();
    if (last <= 0.0 || total < fullFlits)
        return 0;
    const auto lastCycles = static_cast<std::uint64_t>(std::llround(
        static_cast<double>(total - fullFlits) / (last * a)));
    return s->windowCycles * (s->values.size() - 1) + lastCycles;
}

/** Outcome of one harness point in one round. */
struct PointRun
{
    std::string label;
    double wall = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t flitHops = 0;
    std::uint64_t oracleTracked = 0;
    std::uint64_t churnEvents = 0;
    int recoveries = 0;
    /** Empty when every check passed. */
    std::string failure;
};

/**
 * Check one harness result and fold its simulated fields into @p d.
 * @p capacity bounds the flits that can still be inside the network
 * when the harness returns (background traffic keeps flowing during
 * the labeled-packet drain, so injected == ejected + dropped cannot be
 * asked of it; the benchmark's own replay checks that exactly).
 */
PointRun
checkPoint(const SweepPointRecord &rec, const Expect &ex,
           std::size_t arcs, std::uint64_t capacity, Digest &d)
{
    const LoadPointResult &r = rec.load;
    PointRun p;
    p.label = rec.series + " @" + std::to_string(r.offered);
    p.wall = rec.wallSeconds;
    p.recoveries = r.recoveries;
    p.oracleTracked = r.delivery.tracked;

    d.str(rec.series);
    d.u64(rec.seed);
    d.u64(static_cast<std::uint64_t>(r.status));
    for (const double v : {r.offered, r.accepted, r.avgLatency,
                           r.avgNetworkLatency, r.avgHops,
                           r.p99Latency})
        d.f64(v);
    for (const std::uint64_t v :
         {r.measuredPackets, r.measuredDropped, r.flitsDropped,
          r.delivery.tracked, r.delivery.delivered,
          r.delivery.outstanding, r.delivery.dropped,
          r.delivery.duplicates, r.delivery.reorders,
          r.delivery.corruptions})
        d.u64(v);
    d.u64(static_cast<std::uint64_t>(r.recoveries));
    d.str(rec.extraJson);

    std::string &why = p.failure;
    const auto fail = [&why](const std::string &s) {
        if (why.empty())
            why = s;
    };

    const LoadPointStatus st = r.status;
    // Churn points run far below saturation: labeled packets still
    // inside at the drain bound are stranded, not queued.
    const bool statusOk =
        st == LoadPointStatus::kDelivered ||
        (!ex.churn && !ex.belowSaturation &&
         st == LoadPointStatus::kSaturated) ||
        (ex.churn && (st == LoadPointStatus::kUnreachable ||
                      st == LoadPointStatus::kDeadlockRecovered));
    if (!statusOk)
        fail(std::string("status ") + toString(st));
    if (!r.deliveryChecked || !r.delivery.clean())
        fail("delivery oracle: " + r.delivery.summary());

    if (r.metrics == nullptr) {
        fail("no metrics registry");
        return p;
    }
    const MetricsRegistry &m = *r.metrics;
    for (const auto &[name, value] : m.counters()) {
        d.str(name);
        d.u64(value);
    }
    p.flitHops = m.counter("net.hops_ejected");
    p.churnEvents = m.hasCounter("churn.down_events")
                        ? m.counter("churn.down_events") +
                              m.counter("churn.repair_events")
                        : 0;
    p.cycles = simulatedCycles(m, arcs);
    if (p.cycles == 0)
        fail("simulated cycle count unresolved");

    const std::uint64_t inj = m.counter("net.flits_injected");
    const std::uint64_t out = m.counter("net.flits_ejected") +
                              m.counter("net.flits_dropped");
    if (out > inj || inj - out > capacity)
        fail("flit conservation: injected " + std::to_string(inj) +
             ", ejected+dropped " + std::to_string(out));

    if (ex.belowSaturation && std::isfinite(r.offered) &&
        r.offered > 0.0) {
        // The short windows leave a few percent of Bernoulli and
        // warm-up noise in accepted throughput.
        const double tol = 0.02 * r.offered + 0.01;
        if (!(std::abs(r.accepted - r.offered) <= tol))
            fail("accepted " + std::to_string(r.accepted) +
                 " vs offered " + std::to_string(r.offered));
    }
    if (std::isfinite(ex.bound) && r.valid() &&
        r.accepted > ex.bound * 1.01)
        fail("accepted " + std::to_string(r.accepted) +
             " above the analytic bound " + std::to_string(ex.bound));
    return p;
}

// ---------------------------------------------------------------------
// Per-layer accumulators

/** Set-up time by layer for one repetition. */
struct SetupTimes
{
    double topology = 0.0;
    double routing = 0.0;
    double churnModel = 0.0;
    double validate = 0.0;
    double build = 0.0;

    double total() const
    {
        return topology + routing + churnModel + validate + build;
    }

    void scale(double k)
    {
        for (double *v : {&topology, &routing, &churnModel, &validate,
                          &build})
            *v *= k;
    }
};

/** Replay (benchmark-driven tick+step loop) totals. */
struct ReplayTimes
{
    double validate = 0.0;
    double build = 0.0;
    double tick = 0.0;
    double step = 0.0;
    /** tick + step host time by harness phase. */
    double warmup = 0.0;
    double measure = 0.0;
    double drain = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t terminalCycles = 0;
    std::uint64_t components = 0;
    std::uint64_t flitHops = 0;
    std::uint64_t packetsInjected = 0;
    /** Digest of every replayed network's final NetworkStats. */
    std::uint64_t statsDigest = 0;
    int failures = 0;

    double total() const { return validate + build + tick + step; }

    /** Scale the time added since @p before by @p k. */
    void scaleSince(const ReplayTimes &before, double k)
    {
        for (double ReplayTimes::*f :
             {&ReplayTimes::validate, &ReplayTimes::build,
              &ReplayTimes::tick, &ReplayTimes::step,
              &ReplayTimes::warmup, &ReplayTimes::measure,
              &ReplayTimes::drain})
            this->*f = before.*f + (this->*f - before.*f) * k;
    }
};

/** Fold the simulated fields of @p st into @p d. */
void
digestStats(const NetworkStats &st, Digest &d)
{
    for (const RunningStats *s :
         {&st.packetLatency, &st.networkLatency, &st.hops}) {
        d.u64(s->count());
        d.f64(s->mean());
    }
    for (const std::uint64_t v :
         {st.flitsInjected, st.flitsEjected, st.hopsEjected,
          st.packetsEjected, st.measuredCreated, st.measuredEjected,
          st.flitsDropped, st.packetsUnreachable, st.measuredDropped,
          st.churnDownEvents, st.churnRepairEvents, st.churnFlitsLost,
          st.churnPacketsLost, st.churnMeasuredLost})
        d.u64(v);
    d.u64(static_cast<std::uint64_t>(st.pendingPackets));
    d.u64(static_cast<std::uint64_t>(st.midPacketTerminals));
}

/** Validate + construct one network, timing both. */
std::unique_ptr<Network>
buildNetwork(const Topology &topo, RoutingAlgorithm &algo,
             const TrafficPattern *pattern, NetworkConfig cfg,
             double &validate_s, double &build_s)
{
    cfg.numVcs = algo.numVcs();
    const ValidationReport rep = timed(
        validate_s, [&] { return Network::validate(topo, algo, cfg); });
    if (!rep.ok())
        return nullptr;
    return timed(build_s, [&] {
        return std::make_unique<Network>(topo, algo, pattern, cfg);
    });
}

/**
 * Replay one point as a tick+step loop with the harness's phasing:
 * warm-up, labeled measurement, then drain until every labeled packet
 * has left (or the drain bound).  Injection uses a stream of its own,
 * so the replay matches the harness in work, not bit for bit; its
 * checks are exact: the network's conservation invariants (every flit
 * injected is buffered, in flight, ejected or dropped) must hold when
 * it ends.  A fixed @p cycles > 0 replaces the drain rule (churn
 * points, whose labeled-packet load shape lives inside the harness):
 * the replay then runs unlabeled traffic for exactly that many cycles,
 * the ones past warm-up and measurement counting as drain.
 */
void
replayRaw(const Topology &topo, RoutingAlgorithm &algo,
          const TrafficPattern &pattern, NetworkConfig cfg,
          const ExperimentConfig &phasing, double offered,
          std::uint64_t seed, std::uint64_t cycles, ReplayTimes &t)
{
    cfg.seed = seed;
    std::unique_ptr<Network> net =
        buildNetwork(topo, algo, &pattern, cfg, t.validate, t.build);
    if (net == nullptr) {
        ++t.failures;
        return;
    }
    BernoulliInjection inj(offered, cfg.packetSize,
                           seed ^ 0x7265706c6179ULL);
    const ActiveSet &active = net->activeSet();
    const auto nodes = static_cast<std::uint64_t>(net->numNodes());
    const auto cycle = [&](bool measured, double &phase) {
        const auto t0 = Clock::now();
        inj.tick(*net, measured);
        const auto t1 = Clock::now();
        net->step();
        const auto t2 = Clock::now();
        t.tick += std::chrono::duration<double>(t1 - t0).count();
        t.step += std::chrono::duration<double>(t2 - t1).count();
        phase += std::chrono::duration<double>(t2 - t0).count();
        active.forEachIn(0, static_cast<std::uint32_t>(active.size()),
                         [&t](std::uint32_t) { ++t.components; });
        ++t.cycles;
        t.terminalCycles += nodes;
    };

    const bool labeled = cycles == 0;
    const std::uint64_t c0 = t.cycles;
    for (int c = 0; c < phasing.warmupCycles; ++c)
        cycle(false, t.warmup);
    for (int c = 0; c < phasing.measureCycles; ++c)
        cycle(labeled, t.measure);
    const NetworkStats &st = net->stats();
    if (labeled) {
        for (int c = 0; c < phasing.drainCycles &&
                        st.measuredEjected + st.measuredDropped <
                            st.measuredCreated;
             ++c)
            cycle(false, t.drain);
    } else {
        while (t.cycles - c0 < cycles)
            cycle(false, t.drain);
    }
    t.flitHops += st.hopsEjected;
    t.packetsInjected +=
        st.flitsInjected / static_cast<std::uint64_t>(cfg.packetSize);
    Digest d;
    d.u64(t.statsDigest);
    d.u64(t.cycles - c0);
    digestStats(st, d);
    t.statsDigest = d.value();
    const std::string bad = net->checkInvariants();
    if (!bad.empty()) {
        ++t.failures;
        std::printf("# replay invariant violation: %s\n", bad.c_str());
    }
}

/** replayRaw() in a host-speed bracket, its times in reference
 *  seconds. */
void
replayPoint(HostSpeed &hs, const Topology &topo, RoutingAlgorithm &algo,
            const TrafficPattern &pattern, const NetworkConfig &cfg,
            const ExperimentConfig &phasing, double offered,
            std::uint64_t seed, std::uint64_t cycles, ReplayTimes &t)
{
    const ReplayTimes before = t;
    const double k = hs.bracket([&] {
        replayRaw(topo, algo, pattern, cfg, phasing, offered, seed,
                  cycles, t);
    });
    t.scaleSince(before, k);
}

// ---------------------------------------------------------------------
// Workloads

/** One round's outcome; times in reference seconds. */
struct Round
{
    std::vector<PointRun> points;
    /** Every timed unit of the round: its points, plus churn models
     *  and design-search enumeration and bundle builds. */
    double wall = 0.0;
    /** Host seconds of the whole round, sampler and checks included. */
    double host = 0.0;
    /** Batch calls only (the traced run's cross-check): the call's
     *  host seconds minus its points' own, unscaled. */
    double sweepOverhead = 0.0;
    double enumerate = 0.0;
    double sweep = 0.0;
    std::uint64_t candidates = 0;
    std::uint64_t survivors = 0;
    std::uint64_t digest = 0;
    /** Kept for the traced run's JSON serialization timing. */
    std::vector<SweepPointRecord> records;
};

/** Per-layer values only the traced run measures. */
struct TracedExtras
{
    ReplayTimes replay;
    /** Replay step time on the sharded engine (flat3_32k at kShards;
     *  the same as replay.step elsewhere). */
    double stepSharded = 0.0;
    /** The one-shard step time stepSharded is compared with. */
    double stepOneShard = 0.0;
    double metricsOverhead = 0.0;
    /** The library's batch call for the round (SweepEngine,
     *  runChurnSweep, runDesignSearch) minus its points' own time. */
    double sweepOverhead = 0.0;
    bool ok = true;
};

/**
 * A workload runs its points one harness call at a time, each in a
 * host-speed bracket, so that every point's time is scaled by the
 * host speed during it; the traced run also makes the library's own
 * batch call once and checks that it reproduces the round.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Shards of the traced run's sharded replay (rounds use one). */
    virtual int tracedShards() const { return 1; }
    /** One repetition of every construction a round performs. */
    virtual void setupOnce(SetupTimes &t) = 0;
    virtual Round runRound(std::uint64_t seed, HostSpeed &hs) = 0;
    /** Traced run only: batch call, replays, metrics on/off probe. */
    virtual TracedExtras traceExtras(std::uint64_t seed,
                                     const Round &traced,
                                     HostSpeed &hs) = 0;
};

/** Check the library's batch call @p batch against the per-point
 *  round @p traced and record its overhead, scaled by @p k. */
void
checkBatch(const Round &batch, double k, const Round &traced,
           TracedExtras &x)
{
    x.sweepOverhead = batch.sweepOverhead * k;
    if (batch.digest != traced.digest) {
        x.ok = false;
        std::printf("# the batch call's results differ from the "
                    "per-point round's (digest %s != %s)\n",
                    hex(batch.digest).c_str(), hex(traced.digest).c_str());
    }
}

/** One queued load point with its expectations. */
struct LoadCase
{
    std::string series;
    const Topology *topo;
    RoutingAlgorithm *algo;
    const TrafficPattern *pattern;
    NetworkConfig netcfg;
    double offered;
    Expect expect;
};

/** Flits that may legitimately be inside the network at any time. */
std::uint64_t
networkCapacity(const Topology &topo, int num_vcs, int vc_depth)
{
    const auto lanes = static_cast<std::uint64_t>(
        topo.arcs().size() + 2 * static_cast<std::size_t>(
                                      topo.numNodes()));
    return lanes * static_cast<std::uint64_t>(num_vcs) *
           static_cast<std::uint64_t>(vc_depth + 2);
}

/** Harness phasing shared by a sweep's points; metrics stay on with
 *  one window per run, which costs a compare per cycle and returns
 *  the exact flit-hop and cycle counts. */
ExperimentConfig
phasing(int warmup, int measure, int drain)
{
    ExperimentConfig e;
    e.warmupCycles = warmup;
    e.measureCycles = measure;
    e.drainCycles = drain;
    e.obs.metricsEnabled = true;
    e.obs.metricsWindowCycles = std::uint64_t{1} << 40;
    return e;
}

/** checkPoint() with @p c's expectations and network capacity. */
PointRun
checkCase(const LoadCase &c, const SweepPointRecord &rec, Digest &d)
{
    return checkPoint(rec, c.expect, c.topo->arcs().size(),
                      networkCapacity(*c.topo, c.algo->numVcs(),
                                      c.netcfg.vcDepth),
                      d);
}

/**
 * Run @p cases one runLoadPoint() call at a time, each in a
 * host-speed bracket, with exactly the seeds and records a one-thread
 * SweepEngine gives them (runLoadCasesBatch() makes that call), and
 * check every point.
 */
Round
runLoadCases(const std::vector<LoadCase> &cases,
             const ExperimentConfig &expcfg, std::uint64_t seed,
             HostSpeed &hs)
{
    Round round;
    Digest d;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const LoadCase &c = cases[i];
        SweepPointRecord rec;
        rec.index = i;
        rec.series = c.series;
        rec.topology = c.topo->name();
        rec.routing = c.algo->name();
        rec.traffic = c.pattern->name();
        rec.seed = derivePointSeed(seed, i);
        ExperimentConfig e = expcfg;
        e.seed = rec.seed;
        const double k = hs.bracket([&] {
            rec.load = timed(rec.wallSeconds, [&] {
                return runLoadPoint(*c.topo, *c.algo, *c.pattern,
                                    c.netcfg, e, c.offered);
            });
        });
        PointRun p = checkCase(c, rec, d);
        p.wall *= k;
        round.wall += p.wall;
        round.points.push_back(std::move(p));
        round.records.push_back(std::move(rec));
    }
    round.digest = d.value();
    return round;
}

/** @p cases as one call of a one-thread SweepEngine, the library's
 *  batch path (traced run only); host seconds, unscaled. */
Round
runLoadCasesBatch(const std::vector<LoadCase> &cases,
                  const ExperimentConfig &expcfg, std::uint64_t seed)
{
    Round round;
    SweepEngine engine(SweepConfig{1, seed});
    for (const LoadCase &c : cases)
        engine.addLoadPoint(c.series, *c.topo, *c.algo, *c.pattern,
                            c.netcfg, expcfg, c.offered);
    timed(round.sweep, [&] { engine.run(); });
    Digest d;
    double pointSum = 0.0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        round.points.push_back(checkCase(cases[i], engine.records()[i], d));
        pointSum += round.points.back().wall;
    }
    round.sweepOverhead = round.sweep - pointSum;
    round.digest = d.value();
    return round;
}

/** runLoadCasesBatch() in a host-speed bracket, checked with
 *  checkBatch() against the per-point round @p traced. */
void
checkLoadBatch(const std::vector<LoadCase> &cases,
               const ExperimentConfig &expcfg, std::uint64_t seed,
               HostSpeed &hs, const Round &traced, TracedExtras &x)
{
    Round batch;
    const double k = hs.bracket(
        [&] { batch = runLoadCasesBatch(cases, expcfg, seed); });
    checkBatch(batch, k, traced, x);
}

/** Replay every case (traced run). */
void
replayCases(HostSpeed *hs, const std::vector<LoadCase> &cases,
            const ExperimentConfig &expcfg, std::uint64_t seed,
            int shards, ReplayTimes &t)
{
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const LoadCase &c = cases[i];
        NetworkConfig cfg = c.netcfg;
        cfg.shards = shards;
        if (hs != nullptr)
            replayPoint(*hs, *c.topo, *c.algo, *c.pattern, cfg, expcfg,
                        c.offered, derivePointSeed(seed, i), 0, t);
        else
            replayRaw(*c.topo, *c.algo, *c.pattern, cfg, expcfg,
                      c.offered, derivePointSeed(seed, i), 0, t);
    }
}

/**
 * obs.metrics_overhead: one load point run with the default metrics
 * window minus the same point with metrics off, as a share of the
 * latter (median of three alternating pairs).
 */
double
metricsOverhead(const LoadCase &c, ExperimentConfig e, std::uint64_t seed)
{
    e.seed = seed;
    std::vector<double> shares;
    for (int i = 0; i < 3; ++i) {
        double off = 0.0;
        double on = 0.0;
        e.obs = ObsConfig{};
        timed(off, [&] {
            runLoadPoint(*c.topo, *c.algo, *c.pattern, c.netcfg, e,
                         c.offered);
        });
        e.obs.metricsEnabled = true;
        timed(on, [&] {
            runLoadPoint(*c.topo, *c.algo, *c.pattern, c.netcfg, e,
                         c.offered);
        });
        shares.push_back(on / off - 1.0);
    }
    return median(shares);
}

/** Validate and build the network of every case in @p cases, as the
 *  harness does once per load point. */
void
timeCaseNetworks(const std::vector<LoadCase> &cases, SetupTimes &t)
{
    for (const LoadCase &c : cases)
        buildNetwork(*c.topo, *c.algo, c.pattern, c.netcfg, t.validate,
                     t.build);
}

// ---- paper_1k --------------------------------------------------------

/** The paper's 1,024-terminal 32-ary 2-flat (Fig. 4): UGAL and MIN AD
 *  under uniform random traffic, UGAL under the worst case. */
class Paper1k final : public Workload
{
  public:
    Paper1k()
        : topo_(32, 2), ugal_(topo_, false), minad_(topo_),
          ur_(topo_.numNodes()), wc_(topo_.numNodes(), 32)
    {
        const auto add = [this](const char *series,
                                RoutingAlgorithm &algo,
                                const TrafficPattern &pat,
                                std::vector<double> loads,
                                double sat_from) {
            NetworkConfig net;
            net.vcDepth = 32 / algo.numVcs(); // 32 flits per port
            for (const double l : loads) {
                Expect ex;
                ex.belowSaturation = l < sat_from;
                cases_.push_back(
                    {series, &topo_, &algo, &pat, net, l, ex});
            }
        };
        const std::vector<double> ur = {0.1, 0.5, 0.9};
        add("UGAL / uniform", ugal_, ur_, ur, 0.85);
        add("MIN AD / uniform", minad_, ur_, ur, 0.85);
        add("UGAL / worst-case", ugal_, wc_, {0.2, 0.45}, 0.42);
    }

    void setupOnce(SetupTimes &t) override
    {
        const auto topo = timed(t.topology, [] {
            return std::make_unique<FlattenedButterfly>(32, 2);
        });
        timed(t.routing, [&] {
            Ugal u(*topo, false);
            MinAdaptive m(*topo);
        });
        timeCaseNetworks(cases_, t);
    }

    Round runRound(std::uint64_t seed, HostSpeed &hs) override
    {
        return runLoadCases(cases_, expcfg_, seed, hs);
    }

    TracedExtras traceExtras(std::uint64_t seed, const Round &traced,
                             HostSpeed &hs) override
    {
        TracedExtras x;
        checkLoadBatch(cases_, expcfg_, seed, hs, traced, x);
        replayCases(&hs, cases_, expcfg_, seed, 1, x.replay);
        x.stepOneShard = x.stepSharded = x.replay.step;
        // UGAL, uniform random, 50% load.
        x.metricsOverhead = metricsOverhead(cases_[1], expcfg_, seed);
        return x;
    }

  private:
    FlattenedButterfly topo_;
    Ugal ugal_;
    MinAdaptive minad_;
    UniformRandom ur_;
    AdversarialNeighbor wc_;
    std::vector<LoadCase> cases_;
    /** bench/fig04_routing's phasing (bench_util.h defaultPhasing). */
    const ExperimentConfig expcfg_ = phasing(1000, 1000, 3000);
};

// ---- flat3_32k -------------------------------------------------------

/** The 32-ary 3-flat (32,768 terminals, radix-94 routers) at 1-5%
 *  load under MIN AD.  Rounds step on one shard:
 *  barrier waits of the sharded engine amplify host noise past the
 *  benchmark's bounds, so the traced run times kShards only there. */
class Flat3 final : public Workload
{
  public:
    static constexpr int kShards = 2;

    Flat3() : topo_(32, 3), minad_(topo_), ur_(topo_.numNodes())
    {
        NetworkConfig net;
        net.vcDepth = 4;
        for (const double l : {0.01, 0.03, 0.05})
            cases_.push_back({"MIN AD / uniform", &topo_, &minad_, &ur_,
                              net, l, Expect{}});
    }

    void setupOnce(SetupTimes &t) override
    {
        const auto topo = timed(t.topology, [] {
            return std::make_unique<FlattenedButterfly>(32, 3);
        });
        timed(t.routing, [&] { MinAdaptive m(*topo); });
        timeCaseNetworks(cases_, t);
    }

    Round runRound(std::uint64_t seed, HostSpeed &hs) override
    {
        return runLoadCases(cases_, expcfg_, seed, hs);
    }

    int tracedShards() const override { return kShards; }

    TracedExtras traceExtras(std::uint64_t seed, const Round &traced,
                             HostSpeed &hs) override
    {
        TracedExtras x;
        checkLoadBatch(cases_, expcfg_, seed, hs, traced, x);
        replayCases(&hs, cases_, expcfg_, seed, 1, x.replay);
        // The speedup compares host seconds on every CPU the process
        // may use, as a user would run the sharded engine.
        ReplayTimes one;
        ReplayTimes sharded;
        hs.unpinned([&] {
            replayCases(nullptr, cases_, expcfg_, seed, 1, one);
            replayCases(nullptr, cases_, expcfg_, seed, kShards, sharded);
        });
        x.stepOneShard = one.step;
        x.stepSharded = sharded.step;
        // The sharded engine is bit-identical to the sequential one at
        // any shard count: a shard race shows up as a difference here.
        x.ok = x.ok && sharded.failures == 0 &&
               sharded.cycles == x.replay.cycles &&
               sharded.flitHops == x.replay.flitHops &&
               sharded.packetsInjected == x.replay.packetsInjected &&
               sharded.statsDigest == x.replay.statsDigest;
        if (!x.ok)
            std::printf("# %d-shard replay differs from the 1-shard "
                        "replay\n",
                        kShards);
        x.metricsOverhead = metricsOverhead(cases_[0], expcfg_, seed);
        return x;
    }

  private:
    FlattenedButterfly topo_;
    MinAdaptive minad_;
    UniformRandom ur_;
    std::vector<LoadCase> cases_;
    /** bench/xscale_sweep's phasing for this network. */
    const ExperimentConfig expcfg_ = phasing(100, 200, 2000);
};

// ---- churn_service ---------------------------------------------------

/** runChurnSweep on the 8-ary 2-flat: a no-churn control plus three
 *  link MTBF cases, repeated over several seeds.  Router churn and
 *  link MTBF below 8000 cycles strand labeled packets on some seeds
 *  (README.md), so they are left out. */
class ChurnService final : public Workload
{
  public:
    static constexpr int kGroups = 5;

    ChurnService() : topo_(8, 2), ur_(topo_.numNodes())
    {
        net_.vcDepth = 8;
        cfg_.threads = 1;
        cfg_.run.warmupCycles = 500;
        cfg_.run.horizonCycles = 2500;
        cfg_.run.diurnalPeriod = 1250;
        cfg_.run.recoveryFraction = 0.95;
        for (int g = 0; g < kGroups; ++g) {
            for (const double mtbf : {0.0, 32000.0, 16000.0, 8000.0}) {
                const std::string name =
                    mtbf > 0.0 ? "link mtbf=" + std::to_string(
                                                    static_cast<int>(mtbf))
                               : "no churn";
                ChurnCase c;
                c.label = name + " #" + std::to_string(g);
                c.churn.linkMtbf = mtbf;
                c.churn.linkMttr = mtbf > 0.0 ? 400.0 : 0.0;
                cfg_.cases.push_back(c);
            }
        }
    }

    /** As runChurnSweep and runChurnPoint, once per case: a churn
     *  model, a SwitchableRouting, a validated network. */
    void setupOnce(SetupTimes &t) override
    {
        const auto topo = timed(t.topology, [] {
            return std::make_unique<FlattenedButterfly>(8, 2);
        });
        for (std::size_t i = 0; i < cfg_.cases.size(); ++i) {
            const ChurnConfig cc = churnConfig(i, 1);
            const auto model = timed(t.churnModel, [&] {
                return std::make_unique<ChurnModel>(*topo, cc);
            });
            const auto algo = timed(t.routing, [&] {
                return std::make_unique<SwitchableRouting>(*topo);
            });
            NetworkConfig net = net_;
            net.churn = model.get();
            buildNetwork(*topo, *algo, &ur_, net, t.validate, t.build);
        }
    }

    /** runChurnSweep's job for every case, one case at a time. */
    Round runRound(std::uint64_t seed, HostSpeed &hs) override
    {
        Round round;
        Digest d;
        for (std::size_t i = 0; i < cfg_.cases.size(); ++i) {
            SweepPointRecord rec;
            rec.index = i;
            rec.kind = SweepPointKind::kChurn;
            rec.series = cfg_.cases[i].label;
            rec.topology = topo_.name();
            rec.routing = "SWITCHABLE";
            rec.traffic = ur_.name();
            rec.seed = derivePointSeed(seed, i);
            ChurnRunConfig rc = cfg_.run;
            rc.seed = rec.seed;
            const ChurnConfig cc = churnConfig(i, seed);
            double model_s = 0.0;
            const double k = hs.bracket([&] {
                const auto model = timed(model_s, [&] {
                    return std::make_unique<ChurnModel>(topo_, cc);
                });
                const ChurnPointResult r = timed(rec.wallSeconds, [&] {
                    return runChurnPoint(topo_, ur_, model.get(), net_, rc);
                });
                rec.load = r.load;
                rec.extraJson = churnExtraJson(cc, r.churn);
            });
            PointRun p = check(rec, d);
            p.wall *= k;
            round.wall += p.wall + model_s * k;
            round.points.push_back(std::move(p));
            round.records.push_back(std::move(rec));
        }
        round.digest = d.value();
        return round;
    }

    TracedExtras traceExtras(std::uint64_t seed, const Round &traced,
                             HostSpeed &hs) override
    {
        TracedExtras x;
        ChurnSweepConfig cfg = cfg_;
        cfg.masterSeed = seed;
        Round batch;
        const double k = hs.bracket([&] {
            const std::vector<SweepPointRecord> records =
                timed(batch.sweep,
                      [&] { return runChurnSweep(topo_, ur_, net_, cfg); });
            Digest d;
            double pointSum = 0.0;
            for (const SweepPointRecord &rec : records) {
                batch.points.push_back(check(rec, d));
                pointSum += rec.wallSeconds;
            }
            batch.sweepOverhead = batch.sweep - pointSum;
            batch.digest = d.value();
        });
        checkBatch(batch, k, traced, x);

        // The diurnal triangle averages to the midpoint of its range;
        // the replay injects that mean load, under the harness's own
        // churn schedule, for the harness's exact cycle count.
        const double mean_load =
            0.5 * (cfg_.run.baseLoad + cfg_.run.peakLoad);
        const ExperimentConfig replayPhasing = phasing(
            cfg_.run.warmupCycles,
            static_cast<int>(cfg_.run.horizonCycles), 0);
        for (std::size_t i = 0; i < cfg_.cases.size(); ++i) {
            const ChurnModel model(topo_, churnConfig(i, seed));
            SwitchableRouting algo(topo_);
            NetworkConfig net = net_;
            net.churn = &model;
            replayPoint(hs, topo_, algo, ur_, net, replayPhasing,
                        mean_load, derivePointSeed(seed, i),
                        traced.points[i].cycles, x.replay);
        }
        x.stepOneShard = x.stepSharded = x.replay.step;
        SwitchableRouting algo(topo_);
        LoadCase c{"metrics probe", &topo_, &algo, &ur_, net_, mean_load,
                   Expect{}};
        x.metricsOverhead =
            metricsOverhead(c, phasing(500, 2500, 20000), seed);
        return x;
    }

  private:
    /** checkPoint() for churn record @p rec. */
    PointRun check(const SweepPointRecord &rec, Digest &d) const
    {
        Expect ex;
        ex.churn = true;
        // Only the control has a steady offered load to track.
        ex.belowSaturation = cfg_.cases[rec.index].churn.linkMtbf == 0.0;
        SwitchableRouting algo(topo_);
        return checkPoint(rec, ex, topo_.arcs().size(),
                          networkCapacity(topo_, algo.numVcs(),
                                          net_.vcDepth),
                          d);
    }

    /** The churn schedule runChurnSweep gives case @p i under master
     *  seed @p seed. */
    ChurnConfig churnConfig(std::size_t i, std::uint64_t seed) const
    {
        ChurnConfig cc = cfg_.cases[i].churn;
        cc.horizon = static_cast<Cycle>(cfg_.run.warmupCycles) +
                     cfg_.run.horizonCycles;
        cc.seed = derivePointSeed(seed, i) ^ 0x436875726e4d646cULL;
        return cc;
    }

    FlattenedButterfly topo_;
    UniformRandom ur_;
    NetworkConfig net_;
    ChurnSweepConfig cfg_;
};

// ---- design_search ---------------------------------------------------

/**
 * runDesignSearch's committed spec over all six families, run as its
 * public parts (enumerateDesignCandidates, makeNetworkBundle, one
 * SweepEngine over the survivors) so each point's host time is
 * visible.  The traced run calls runDesignSearch itself and checks
 * that its results equal these.
 */
class DesignSearch final : public Workload
{
  public:
    DesignSearch()
    {
        spec_.minTerminals = 60;
        spec_.maxTerminalFactor = 2.2; // terminals in [60, 132]
        spec_.loads = {0.2, 0.5, 0.9};
        spec_.expcfg = phasing(500, 500, 10000); // bench/design_search
    }

    void setupOnce(SetupTimes &t) override
    {
        const std::vector<DesignCandidate> cands =
            enumerateDesignCandidates(spec_);
        // Enumeration builds one bundle per grid point, the sweep one
        // per survivor plus a validated network per survivor load.
        std::string last;
        for (const DesignCandidate &c : cands) {
            if (c.topoSpec != last) {
                last = c.topoSpec;
                timed(t.topology, [&] {
                    makeNetworkBundle(c.topoSpec, c.routing);
                });
            }
            if (c.pruned)
                continue;
            const NetworkBundle b = timed(t.topology, [&] {
                return makeNetworkBundle(c.topoSpec, c.routing);
            });
            UniformRandom ur(b.topology->numNodes());
            for (std::size_t l = 0; l < spec_.loads.size(); ++l)
                buildNetwork(*b.topology, *b.routing, &ur,
                             candidateNet(c), t.validate, t.build);
        }
    }

    Round runRound(std::uint64_t seed, HostSpeed &hs) override
    {
        Round round;
        std::vector<DesignCandidate> cands;
        double enumerate_s = 0.0;
        const double ke = hs.bracket([&] {
            cands = timed(enumerate_s,
                          [&] { return enumerateDesignCandidates(spec_); });
        });
        round.enumerate = enumerate_s * ke;

        Digest d;
        std::vector<std::size_t> survivors;
        for (std::size_t i = 0; i < cands.size(); ++i) {
            const DesignCandidate &c = cands[i];
            d.str(c.topoSpec);
            d.str(c.routing);
            d.u64(c.channelPeriod);
            d.u64(static_cast<std::uint64_t>(c.vcDepth));
            d.f64(c.throughputBound);
            d.f64(c.costPerTerminal);
            d.f64(c.powerPerTerminal);
            d.str(c.pruneReason);
            if (!c.pruned)
                survivors.push_back(i);
        }
        round.candidates = cands.size();
        round.survivors = survivors.size();

        // As runDesignSearch: one bundle + traffic per survivor, one
        // load point per spec load, queued in candidate order.
        struct Swept
        {
            NetworkBundle bundle;
            std::unique_ptr<TrafficPattern> traffic;
        };
        std::vector<Swept> swept;
        swept.reserve(survivors.size());
        double bundles_s = 0.0;
        const double kb = hs.bracket([&] {
            timed(bundles_s, [&] {
                for (const std::size_t si : survivors) {
                    const DesignCandidate &c = cands[si];
                    Swept s;
                    s.bundle = makeNetworkBundle(c.topoSpec, c.routing);
                    s.traffic = std::make_unique<UniformRandom>(
                        s.bundle.topology->numNodes());
                    swept.push_back(std::move(s));
                }
            });
        });
        std::vector<LoadCase> cases;
        for (std::size_t j = 0; j < survivors.size(); ++j) {
            const DesignCandidate &c = cands[survivors[j]];
            const Swept &s = swept[j];
            const std::string series =
                std::string("design ") + toString(c.family) + " " +
                c.topoSpec + "/" + c.routing + " cp" +
                std::to_string(c.channelPeriod) + " vd" +
                std::to_string(c.vcDepth);
            for (const double load : spec_.loads) {
                Expect ex;
                // Well below the channel-load bound the network must
                // keep up with the offered load.
                ex.belowSaturation = load <= 0.6 * c.throughputBound;
                ex.bound = c.throughputBound;
                cases.push_back({series, s.bundle.topology.get(),
                                 s.bundle.routing.get(), s.traffic.get(),
                                 candidateNet(c), load, ex});
            }
        }
        Round sweep = runLoadCases(cases, spec_.expcfg, seed, hs);
        round.sweep = bundles_s * kb + sweep.wall;
        round.wall = round.enumerate + round.sweep;
        round.points = std::move(sweep.points);
        round.records = std::move(sweep.records);
        d.u64(sweep.digest);
        round.digest = d.value();
        return round;
    }

    TracedExtras traceExtras(std::uint64_t seed, const Round &traced,
                             HostSpeed &hs) override
    {
        TracedExtras x;
        // Cross-check: the library's own runDesignSearch must produce
        // exactly the point results the round assembled from its parts.
        // It reports no per-point times, so its overhead is its time
        // over the round's, both in reference seconds.
        DesignSearchResult res;
        double search_s = 0.0;
        const double ks = hs.bracket([&] {
            res = timed(search_s, [&] {
                return runDesignSearch(spec_, SweepConfig{1, seed});
            });
        });
        x.sweepOverhead = search_s * ks - traced.wall;
        std::size_t k = 0;
        for (const DesignPoint &pt : res.points) {
            for (const LoadPointResult &r : pt.loads) {
                const LoadPointResult &q = traced.records.at(k++).load;
                if (!(r.status == q.status &&
                      r.measuredPackets == q.measuredPackets &&
                      std::memcmp(&r.accepted, &q.accepted,
                                  sizeof(double)) == 0))
                    x.ok = false;
            }
            // The frontier's performance axis.
            if (std::isfinite(pt.satThroughput) &&
                pt.satThroughput >
                    res.candidates[pt.candidate].throughputBound * 1.01)
                x.ok = false;
        }
        if (k != traced.records.size())
            x.ok = false;
        if (!x.ok)
            std::printf("# runDesignSearch disagrees with the "
                        "assembled sweep\n");

        // Replay every survivor load point.
        const std::vector<DesignCandidate> cands =
            enumerateDesignCandidates(spec_);
        std::size_t idx = 0;
        for (const DesignCandidate &c : cands) {
            if (c.pruned)
                continue;
            const NetworkBundle b = makeNetworkBundle(c.topoSpec, c.routing);
            UniformRandom ur(b.topology->numNodes());
            for (const double load : spec_.loads)
                replayPoint(hs, *b.topology, *b.routing, ur,
                            candidateNet(c),
                            spec_.expcfg, load,
                            derivePointSeed(seed, idx++), 0, x.replay);
        }
        x.stepOneShard = x.stepSharded = x.replay.step;
        const NetworkBundle b = makeNetworkBundle("fbfly-8-2", "ugal");
        UniformRandom ur(b.topology->numNodes());
        NetworkConfig net;
        net.vcDepth = 8;
        LoadCase c{"metrics probe", b.topology.get(), b.routing.get(),
                   &ur, net, 0.5, Expect{}};
        x.metricsOverhead = metricsOverhead(c, spec_.expcfg, seed);
        return x;
    }

  private:
    static NetworkConfig candidateNet(const DesignCandidate &c)
    {
        NetworkConfig net;
        net.vcDepth = c.vcDepth;
        net.channelPeriod = c.channelPeriod;
        return net;
    }

    DesignSpec spec_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "paper_1k")
        return std::make_unique<Paper1k>();
    if (name == "flat3_32k")
        return std::make_unique<Flat3>();
    if (name == "churn_service")
        return std::make_unique<ChurnService>();
    if (name == "design_search")
        return std::make_unique<DesignSearch>();
    return nullptr;
}

// ---------------------------------------------------------------------
// Driver

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{paper_1k|flat3_32k|churn_service|design_search} "
                 "--seed N --seconds S --trace {0|1}\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
            if (*end != '\0')
                usage("--seed takes a whole number");
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &end);
            if (*end != '\0' || !(o.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace takes 0 or 1");
            o.trace = v[0] == '1';
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

double
peakRssMb()
{
    struct rusage ru
    {
    };
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
loadAverage1()
{
    double l[1] = {0.0};
    return getloadavg(l, 1) == 1 ? l[0] : -1.0;
}

int
cpusAvailable()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return static_cast<int>(std::thread::hardware_concurrency());
    return CPU_COUNT(&set);
}

/** Metric line of the result JSON. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i > 0 ? ", " : "", m.name.c_str(), v,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

/** Median over rounds of each point's host time. */
std::vector<double>
pointMedians(const std::vector<Round> &rounds)
{
    std::vector<double> out;
    for (std::size_t p = 0; p < rounds.front().points.size(); ++p) {
        std::vector<double> v;
        for (const Round &r : rounds)
            v.push_back(r.points[p].wall);
        out.push_back(median(v));
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    std::unique_ptr<Workload> w = makeWorkload(opt.workload);
    if (w == nullptr)
        usage(("unknown workload " + opt.workload).c_str());

    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    const int nproc = cpusAvailable();
    const double load0 = loadAverage1();
    if (opt.trace && w->tracedShards() > nproc)
        std::printf("# WARNING: %d shards exceed the %d available "
                    "CPUs\n",
                    w->tracedShards(), nproc);

    HostSpeed hs;

    // 1. Set-up: repeat until two seconds have passed (at least three
    //    repetitions), each in a host-speed bracket; report the
    //    median.
    std::vector<SetupTimes> reps;
    const auto s0 = Clock::now();
    while (reps.size() < 3 ||
           (secondsSince(s0) < 2.0 && reps.size() < 1000)) {
        SetupTimes t;
        t.scale(hs.bracket([&] { w->setupOnce(t); }));
        reps.push_back(t);
    }
    const auto setupMedian = [&reps](double SetupTimes::*field) {
        std::vector<double> v;
        for (const SetupTimes &t : reps)
            v.push_back(t.*field);
        return median(v);
    };
    std::vector<double> setupTotals;
    for (const SetupTimes &t : reps)
        setupTotals.push_back(t.total());
    const double setup_s = median(setupTotals);
    std::sort(setupTotals.begin(), setupTotals.end());
    std::printf("# %s: set-up %.4f s (median of %zu; min %.4f, q1 %.4f, "
                "q3 %.4f, max %.4f)\n",
                opt.workload.c_str(), setup_s, reps.size(),
                setupTotals.front(), quantile(setupTotals, 0.25),
                quantile(setupTotals, 0.75), setupTotals.back());

    // 2. Rounds: the plain run repeats them while they fit; the traced
    //    run times one, then does its extra work after it.
    std::vector<Round> rounds;
    bool correct = true;
    const auto t0 = Clock::now();
    double lastRound = 0.0;
    do {
        const auto r0 = Clock::now();
        Round r = w->runRound(opt.seed, hs);
        lastRound = secondsSince(r0);
        r.host = lastRound;
        if (!opt.trace)
            r.records.clear();
        rounds.push_back(std::move(r));
    } while (!opt.trace && secondsSince(t0) + lastRound <= opt.seconds);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const Round &r : rounds) {
        if (r.digest != rounds.front().digest) {
            correct = false;
            std::printf("# determinism: round digest %s != %s\n",
                        hex(r.digest).c_str(),
                        hex(rounds.front().digest).c_str());
        }
        for (const PointRun &p : r.points) {
            ++attempted;
            if (!p.failure.empty()) {
                ++failed;
                std::printf("# FAILED %s: %s\n", p.label.c_str(),
                            p.failure.c_str());
            }
        }
    }
    if (failed > 0)
        correct = false;

    const Round &first = rounds.front();
    const std::vector<double> pt = pointMedians(rounds);
    double pointSum = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t hops = 0;
    for (std::size_t p = 0; p < pt.size(); ++p) {
        pointSum += pt[p];
        cycles += first.points[p].cycles;
        hops += first.points[p].flitHops;
    }
    std::vector<double> sorted = pt;
    std::sort(sorted.begin(), sorted.end());
    // Tail: the highest whole percentile with at least ten points
    // beyond it (the median when there are fewer than twenty).
    const double n = static_cast<double>(sorted.size());
    const double tailQ =
        std::max(0.5, std::floor(100.0 * (1.0 - 10.0 / n)) / 100.0);
    std::vector<double> walls;
    for (const Round &r : rounds)
        walls.push_back(r.wall);

    for (std::size_t p = 0; p < pt.size(); ++p)
        std::printf("# point %-44s %8.4f s %7llu cycles\n",
                    first.points[p].label.c_str(), pt[p],
                    static_cast<unsigned long long>(
                        first.points[p].cycles));
    std::printf("# round walls, reference (host) s:");
    for (const Round &r : rounds)
        std::printf(" %.3f (%.3f)", r.wall, r.host);
    std::printf("\n");
    const double load1 = loadAverage1();
    std::printf("# %s: %zu round(s) of %zu points, failed_share %.4f, "
                "tail = p%.0f of %zu point medians\n",
                opt.workload.c_str(), rounds.size(), pt.size(),
                attempted > 0 ? static_cast<double>(failed) /
                                    static_cast<double>(attempted)
                              : 0.0,
                100.0 * tailQ, pt.size());
    std::printf("meta {\"workload\": \"%s\", \"seed\": %llu, "
                "\"digest\": \"%s\", \"nproc\": %d, "
                "\"hardware_concurrency\": %u, \"loadavg1_start\": "
                "%.2f, \"loadavg1_end\": %.2f, \"sweep_threads\": 1, "
                "\"shards\": 1, \"traced_shards\": %d, \"rounds\": %zu, "
                "\"points\": %zu, \"trace\": %d, \"kernel_ms_median\": "
                "%.4f}\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                hex(first.digest).c_str(), nproc,
                std::thread::hardware_concurrency(), load0, load1,
                w->tracedShards(), rounds.size(), pt.size(),
                opt.trace ? 1 : 0, 1e3 * hs.medianKernel());

    if (!opt.trace) {
        printResult(
            correct, attempted, failed,
            {
                {"setup_s", setup_s, "s"},
                {"wall_s", median(walls), "s"},
                {"ns_per_flit_hop", 1e9 * pointSum / hops, "ns"},
                {"cycles_per_s", static_cast<double>(cycles) / pointSum,
                 "1/s"},
                {"point_s_p50", quantile(sorted, 0.5), "s"},
                {"point_s_tail", quantile(sorted, tailQ), "s"},
                {"peak_rss_mb", peakRssMb(), "MB"},
            });
        return 0;
    }

    // 3. Traced run: JSON serialization of the round's records, then
    //    the batch call, replays and metrics probe.  All of it is work
    //    the plain run does not do; its share of the round's time is
    //    the tracing overhead.
    const Round &tr = first;
    double jsonS = 0.0;
    SweepRunMeta meta;
    meta.bench = "perfbench " + opt.workload;
    const double kj = hs.bracket([&] {
        timed(jsonS, [&] {
            return sweepResultsToJson(meta, tr.records, opt.seed, 1,
                                      tr.wall);
        });
    });
    jsonS *= kj;
    double extrasS = 0.0;
    TracedExtras x;
    const double kx = hs.bracket([&] {
        x = timed(extrasS, [&] { return w->traceExtras(opt.seed, tr, hs); });
    });
    extrasS *= kx;
    if (!x.ok || x.replay.failures > 0)
        correct = false;
    const ReplayTimes &rp = x.replay;
    std::printf("# replay host time by phase: warm-up %.3f s, "
                "measurement %.3f s, drain %.3f s\n",
                rp.warmup, rp.measure, rp.drain);
    double loadPointS = 0.0;
    double churnPointS = 0.0;
    std::uint64_t tracked = 0;
    std::uint64_t churnEvents = 0;
    int recoveries = 0;
    const bool churn = opt.workload == "churn_service";
    const bool design = opt.workload == "design_search";
    for (const PointRun &p : tr.points) {
        (churn ? churnPointS : loadPointS) += p.wall;
        tracked += p.oracleTracked;
        churnEvents += p.churnEvents;
        recoveries += p.recoveries;
    }
    // The harness's own time: its load-point calls minus the replay of
    // the same points.  Churn points are left out, as their replay runs
    // the diurnal ramp's mean load rather than the ramp itself.
    const double selfS = churn ? 0.0 : loadPointS - rp.total();
    const double step = rp.step;
    printResult(
        correct, attempted, failed,
        {
            {"network.step_s", step, "s"},
            {"network.step_ns_per_flit_hop",
             1e9 * step / static_cast<double>(rp.flitHops), "ns"},
            {"network.components_stepped",
             static_cast<double>(rp.components), "count"},
            {"network.step_ns_per_component",
             1e9 * step / static_cast<double>(rp.components), "ns"},
            {"network.validate_s", setupMedian(&SetupTimes::validate),
             "s"},
            {"network.build_s", setupMedian(&SetupTimes::build), "s"},
            {"network.step_s_shards1", x.stepOneShard, "s"},
            {"network.shard_speedup", x.stepOneShard / x.stepSharded, "x"},
            {"traffic.tick_s", rp.tick, "s"},
            {"traffic.tick_ns_per_terminal_cycle",
             1e9 * rp.tick / static_cast<double>(rp.terminalCycles),
             "ns"},
            {"traffic.packets_injected",
             static_cast<double>(rp.packetsInjected), "count"},
            {"topology.build_s", setupMedian(&SetupTimes::topology), "s"},
            {"routing.build_s", setupMedian(&SetupTimes::routing), "s"},
            {"churn.model_build_s", setupMedian(&SetupTimes::churnModel),
             "s"},
            {"churn.events", static_cast<double>(churnEvents), "count"},
            {"harness.load_point_s", loadPointS, "s"},
            {"harness.churn_point_s", churnPointS, "s"},
            {"harness.self_s", selfS, "s"},
            {"harness.sweep_overhead_s", x.sweepOverhead, "s"},
            {"harness.json_s", jsonS, "s"},
            {"design.enumerate_s", tr.enumerate, "s"},
            {"design.sweep_s", design ? tr.sweep : 0.0, "s"},
            {"design.candidates", static_cast<double>(tr.candidates),
             "count"},
            {"design.survivors", static_cast<double>(tr.survivors),
             "count"},
            {"obs.metrics_overhead", x.metricsOverhead, "share"},
            {"oracle.tracked", static_cast<double>(tracked), "count"},
            {"liveness.recoveries", static_cast<double>(recoveries),
             "count"},
            {"phase.warmup_s", rp.warmup, "s"},
            {"phase.measure_s", rp.measure, "s"},
            {"phase.drain_s", rp.drain, "s"},
            {"trace.overhead", (jsonS + extrasS) / tr.wall, "share"},
        });
    return 0;
}
