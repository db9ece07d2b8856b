/**
 * @file
 * Tests for the end-to-end delivery oracle (sim/delivery_oracle.h):
 * clean audits, detection of drops, duplicates, reorders, and
 * corrupted ejections, agreement with the map-based reference ledger
 * (reference_delivery_oracle.h), and a ledger bounded by the packets
 * in flight.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness/experiment.h"
#include "harness/factory.h"
#include "reference_delivery_oracle.h"
#include "sim/delivery_oracle.h"
#include "traffic/traffic_pattern.h"

namespace fbfly
{
namespace
{

Flit
makePacket(PacketId id, NodeId src, NodeId dst, Cycle create)
{
    Flit f;
    f.id = id;
    f.packet = id;
    f.src = src;
    f.dst = dst;
    f.createTime = create;
    f.packetSize = 4;
    f.head = f.tail = true;
    f.measured = true;
    return f;
}

TEST(DeliveryOracle, CleanExactlyOnceInOrderRun)
{
    DeliveryOracle oracle;
    const Flit a = makePacket(1, 0, 5, 10);
    const Flit b = makePacket(2, 0, 5, 11); // same flow as a
    const Flit c = makePacket(3, 3, 7, 12); // different flow
    oracle.onInject(a);
    oracle.onInject(b);
    oracle.onInject(c);
    oracle.onEject(a);
    oracle.onEject(c); // cross-flow order is unconstrained
    oracle.onEject(b);

    const OracleReport rep = oracle.report(0, true);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.tracked, 3u);
    EXPECT_EQ(rep.delivered, 3u);
    EXPECT_EQ(rep.outstanding, 0u);
    EXPECT_EQ(rep.dropped, 0u);
    EXPECT_NE(rep.summary().find("[clean]"), std::string::npos);
}

TEST(DeliveryOracle, DetectsSilentDrops)
{
    DeliveryOracle oracle;
    oracle.onInject(makePacket(1, 0, 5, 10));
    oracle.onInject(makePacket(2, 1, 6, 11));
    oracle.onEject(makePacket(1, 0, 5, 10));

    // Drained with no router-reported drops: packet 2 is a silent
    // loss.
    OracleReport rep = oracle.report(0, true);
    EXPECT_FALSE(rep.clean());
    EXPECT_EQ(rep.outstanding, 1u);
    EXPECT_EQ(rep.dropped, 1u);

    // The router layer accounted for one drop (e.g. unreachable
    // destination under a fault set): the loss is explained.
    rep = oracle.report(1, true);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.expectedDropped, 1u);
    EXPECT_EQ(rep.dropped, 0u);

    // A run cut off mid-flight (saturated/stalled) cannot classify
    // outstanding packets as drops.
    rep = oracle.report(0, false);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.outstanding, 1u);
    EXPECT_EQ(rep.dropped, 0u);
}

TEST(DeliveryOracle, DetectsDuplicates)
{
    DeliveryOracle oracle;
    const Flit a = makePacket(1, 0, 5, 10);
    oracle.onInject(a);
    oracle.onEject(a);
    oracle.onEject(a);
    const OracleReport rep = oracle.report(0, true);
    EXPECT_FALSE(rep.clean());
    EXPECT_EQ(rep.duplicates, 1u);
    EXPECT_EQ(rep.delivered, 1u);
}

TEST(DeliveryOracle, DetectsSameFlowReorder)
{
    DeliveryOracle oracle;
    const Flit a = makePacket(1, 0, 5, 10);
    const Flit b = makePacket(2, 0, 5, 11);
    oracle.onInject(a);
    oracle.onInject(b);
    oracle.onEject(b); // overtakes a
    oracle.onEject(a);

    // Under an order-enforcing routing algorithm the reorder is a
    // violation.
    const OracleReport rep =
        oracle.report(0, true, /*order_enforced=*/true);
    EXPECT_FALSE(rep.clean());
    EXPECT_TRUE(rep.orderEnforced);
    EXPECT_EQ(rep.reorders, 1u);
    EXPECT_EQ(rep.delivered, 2u);
    EXPECT_NE(rep.summary().find("order enforced"),
              std::string::npos);

    // Under adaptive / non-minimal routing the same reorder is
    // inherent multipath behavior: counted, but advisory.
    const OracleReport lax =
        oracle.report(0, true, /*order_enforced=*/false);
    EXPECT_TRUE(lax.clean());
    EXPECT_FALSE(lax.orderEnforced);
    EXPECT_EQ(lax.reorders, 1u);
    EXPECT_NE(lax.summary().find("order advisory"),
              std::string::npos);
}

TEST(DeliveryOracle, DetectsCorruptedEjections)
{
    DeliveryOracle oracle;
    const Flit a = makePacket(1, 0, 5, 10);
    oracle.onInject(a);

    // Identity field mangled in transit.
    Flit bad = a;
    bad.createTime ^= 64;
    oracle.onEject(bad);

    // Ejection of a packet never injected (mangled packet id).
    oracle.onEject(makePacket(99, 2, 3, 4));

    const OracleReport rep = oracle.report(0, true);
    EXPECT_FALSE(rep.clean());
    EXPECT_EQ(rep.corruptions, 2u);
    EXPECT_EQ(rep.delivered, 0u);
    EXPECT_NE(rep.summary().find("VIOLATIONS"), std::string::npos);

    // The pristine copy still audits as delivered afterwards.
    oracle.onEject(a);
    EXPECT_EQ(oracle.report(0, true).delivered, 1u);
}

::testing::AssertionResult
sameReport(const OracleReport &got, const OracleReport &want)
{
    const struct
    {
        const char *name;
        std::uint64_t got, want;
    } fields[] = {
        {"tracked", got.tracked, want.tracked},
        {"delivered", got.delivered, want.delivered},
        {"outstanding", got.outstanding, want.outstanding},
        {"expectedDropped", got.expectedDropped, want.expectedDropped},
        {"dropped", got.dropped, want.dropped},
        {"duplicates", got.duplicates, want.duplicates},
        {"reorders", got.reorders, want.reorders},
        {"corruptions", got.corruptions, want.corruptions},
        {"orderEnforced", got.orderEnforced, want.orderEnforced},
    };
    for (const auto &f : fields) {
        if (f.got != f.want)
            return ::testing::AssertionFailure()
                   << f.name << " " << f.got << " != reference "
                   << f.want;
    }
    return ::testing::AssertionSuccess();
}

TEST(DeliveryOracle, MatchesReferenceLedgerOnRandomStreams)
{
    // Few nodes and a small in-flight window: flows keep draining to
    // zero live packets and restarting, while random ejection order
    // reorders same-flow packets.  Every other operation is one of
    // the ways a ledger can be fed bad input.
    std::uint64_t reorders = 0, duplicates = 0, corruptions = 0,
                  restarts = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed);
        const std::size_t window = std::size_t{2} << (seed % 4);
        const auto nodes = static_cast<NodeId>(2 + seed % 3);
        DeliveryOracle oracle;
        oracletest::ReferenceDeliveryOracle ref;
        std::vector<Flit> inFlight, ejected;
        PacketId nextId = 0;
        std::uint64_t lost = 0;
        auto pick = [&](const std::vector<Flit> &v) -> const Flit & {
            return v[rng.nextBounded(v.size())];
        };
        auto inject = [&](const Flit &f) {
            oracle.onInject(f);
            ref.onInject(f);
            inFlight.push_back(f);
        };
        auto eject = [&](const Flit &f) {
            const std::size_t flows = oracle.liveFlows();
            oracle.onEject(f);
            ref.onEject(f);
            restarts += oracle.liveFlows() < flows;
        };
        for (int op = 0; op < 1500; ++op) {
            const std::uint64_t r = rng.nextBounded(100);
            std::string what;
            if (r < 40 && inFlight.size() < window) {
                what = "inject";
                // Id gaps stand for unmeasured packets.
                nextId += rng.nextBounded(3);
                Flit f = makePacket(
                    nextId++,
                    static_cast<NodeId>(rng.nextBounded(nodes)),
                    static_cast<NodeId>(rng.nextBounded(nodes)), op);
                f.packetSize = static_cast<int>(1 + rng.nextBounded(4));
                inject(f);
            } else if (r < 70 && !inFlight.empty()) {
                what = "eject";
                const std::size_t i = rng.nextBounded(2) == 0
                                          ? 0
                                          : rng.nextBounded(inFlight.size());
                const Flit f = inFlight[i];
                inFlight.erase(inFlight.begin() +
                               static_cast<std::ptrdiff_t>(i));
                eject(f);
                ejected.push_back(f);
            } else if (r < 75 && !ejected.empty()) {
                what = "duplicate eject";
                eject(pick(ejected));
            } else if (r < 82 && !inFlight.empty()) {
                what = "corrupted eject";
                Flit f = pick(inFlight);
                switch (rng.nextBounded(5)) {
                  case 0: f.createTime ^= 1; break;
                  case 1: f.src = (f.src + 1) % nodes; break;
                  case 2: f.dst = (f.dst + 1) % nodes; break;
                  case 3: f.packetSize += 1; break;
                  default: f.packet = pick(inFlight).packet ^ 1; break;
                }
                eject(f);
            } else if (r < 86) {
                what = "unknown-id eject";
                Flit f = makePacket(nextId + 1 + rng.nextBounded(1000), 0,
                                    0, op);
                if (rng.nextBounded(2) == 0)
                    f.packet = ~PacketId{0} - rng.nextBounded(4);
                eject(f);
            } else if (r < 92 && !(inFlight.empty() && ejected.empty())) {
                what = "re-inject";
                const bool live = ejected.empty() ||
                                  (!inFlight.empty() &&
                                   rng.nextBounded(2) == 0);
                Flit f = pick(live ? inFlight : ejected);
                if (rng.nextBounded(2) == 0) {
                    f.src = static_cast<NodeId>(rng.nextBounded(nodes));
                    f.dst = static_cast<NodeId>(rng.nextBounded(nodes));
                    f.createTime = static_cast<Cycle>(op);
                }
                inject(f);
            } else if (r < 96 && !inFlight.empty()) {
                what = "loss";
                const std::size_t i = rng.nextBounded(inFlight.size());
                inFlight.erase(inFlight.begin() +
                               static_cast<std::ptrdiff_t>(i));
                ++lost;
            } else {
                continue;
            }
            for (const bool drained : {false, true}) {
                for (const bool order : {false, true}) {
                    ASSERT_TRUE(
                        sameReport(oracle.report(lost, drained, order),
                                   ref.report(lost, drained, order)))
                        << "seed " << seed << " op " << op << " ("
                        << what << "), drained=" << drained
                        << " order_enforced=" << order;
                }
            }
        }
        const OracleReport rep = ref.report(lost, true, true);
        reorders += rep.reorders;
        duplicates += rep.duplicates;
        corruptions += rep.corruptions;
    }
    // The streams really exercised every category and flow restarts.
    EXPECT_GT(reorders, 0u);
    EXPECT_GT(duplicates, 0u);
    EXPECT_GT(corruptions, 0u);
    EXPECT_GT(restarts, 0u);
}

TEST(DeliveryOracle, LedgerIsBoundedByPacketsInFlight)
{
    // 2^20 packets over 128 x 128 = 16,384 flows, at most 256 in
    // flight and ejected in random order.
    constexpr PacketId kPackets = PacketId{1} << 20;
    constexpr std::size_t kWindow = 256;
    constexpr NodeId kNodes = 128;
    DeliveryOracle oracle;
    Rng rng(2007);
    std::vector<Flit> inFlight;
    std::vector<bool> flowSeen(kNodes * kNodes, false);
    PacketId nextId = 0;
    while (nextId < kPackets || !inFlight.empty()) {
        const bool inject =
            nextId < kPackets && inFlight.size() < kWindow &&
            (inFlight.empty() || rng.nextBounded(2) == 0);
        if (inject) {
            const Flit f = makePacket(
                nextId, static_cast<NodeId>(rng.nextBounded(kNodes)),
                static_cast<NodeId>(rng.nextBounded(kNodes)),
                static_cast<Cycle>(nextId));
            ++nextId;
            flowSeen[static_cast<std::size_t>(f.src * kNodes + f.dst)] =
                true;
            oracle.onInject(f);
            inFlight.push_back(f);
        } else {
            const std::size_t i = rng.nextBounded(inFlight.size());
            std::swap(inFlight[i], inFlight.back());
            oracle.onEject(inFlight.back());
            inFlight.pop_back();
        }
        const std::uint64_t live = oracle.report().outstanding;
        ASSERT_EQ(live, inFlight.size());
        ASSERT_LE(oracle.liveFlows(), live);
    }
    EXPECT_GE(std::count(flowSeen.begin(), flowSeen.end(), true), 10000);

    const OracleReport rep = oracle.report(0, true);
    EXPECT_EQ(rep.tracked, kPackets);
    EXPECT_EQ(rep.delivered, kPackets);
    EXPECT_EQ(rep.outstanding, 0u);
    EXPECT_EQ(oracle.liveFlows(), 0u);
    EXPECT_TRUE(rep.clean()) << rep.summary();
    // One bit per packet id, not one entry per packet.
    EXPECT_EQ(oracle.deliveredIdSpan(), kPackets);

    // A huge mangled id is a corruption and allocates nothing.
    Flit bad = makePacket(0, 1, 2, 3);
    bad.packet = ~PacketId{0} - 1;
    oracle.onEject(bad);
    EXPECT_EQ(oracle.report().corruptions, 1u);
    EXPECT_EQ(oracle.deliveredIdSpan(), kPackets);
}

TEST(DeliveryOracle, SilentOnCleanRunsAcrossTopologies)
{
    // Error-free guard against oracle false positives: on every
    // topology family the harness audits, a clean low-load run must
    // report exactly-once in-order delivery with zero violations.
    for (const char *spec :
         {"fbfly-4-2", "butterfly-4-2", "clos-64-8-4", "hypercube-4",
          "torus-4-2"}) {
        const auto bundle = makeNetworkBundle(spec, "default");
        UniformRandom pattern(bundle.topology->numNodes());
        NetworkConfig netcfg;
        netcfg.vcDepth = 8;
        netcfg.channelPeriod = bundle.channelPeriod;
        ExperimentConfig expcfg;
        expcfg.warmupCycles = 150;
        expcfg.measureCycles = 200;
        expcfg.drainCycles = 3000;
        expcfg.seed = 17;
        ASSERT_TRUE(expcfg.verifyDelivery); // audits are the default
        const auto r =
            runLoadPoint(*bundle.topology, *bundle.routing, pattern,
                         netcfg, expcfg, 0.2);
        ASSERT_EQ(r.status, LoadPointStatus::kDelivered) << spec;
        ASSERT_TRUE(r.deliveryChecked) << spec;
        EXPECT_TRUE(r.delivery.clean())
            << spec << ": " << r.delivery.summary();
        EXPECT_GT(r.delivery.tracked, 0u) << spec;
        EXPECT_EQ(r.delivery.delivered, r.delivery.tracked) << spec;
        EXPECT_EQ(r.delivery.tracked, r.measuredPackets) << spec;
        // The enforcement flag follows the routing algorithm's order
        // contract (destination-tag / e-cube / torus DOR enforce;
        // CLOS AD and the adaptive folded Clos are advisory).
        EXPECT_EQ(r.delivery.orderEnforced,
                  bundle.routing->preservesFlowOrder())
            << spec;
    }
}

TEST(DeliveryOracle, EnforcesOrderUnderDeterministicRouting)
{
    // DOR promises per-flow FIFO; the harness must run the oracle in
    // enforced mode and the run must audit clean — i.e. the network
    // actually delivers in order under deterministic routing.
    const auto bundle = makeNetworkBundle("fbfly-4-2", "dor");
    ASSERT_TRUE(bundle.routing->preservesFlowOrder());
    UniformRandom pattern(bundle.topology->numNodes());
    NetworkConfig netcfg;
    netcfg.vcDepth = 8;
    ExperimentConfig expcfg;
    expcfg.warmupCycles = 150;
    expcfg.measureCycles = 200;
    expcfg.drainCycles = 3000;
    expcfg.seed = 23;
    const auto r = runLoadPoint(*bundle.topology, *bundle.routing,
                                pattern, netcfg, expcfg, 0.2);
    ASSERT_EQ(r.status, LoadPointStatus::kDelivered);
    ASSERT_TRUE(r.deliveryChecked);
    EXPECT_TRUE(r.delivery.orderEnforced);
    EXPECT_EQ(r.delivery.reorders, 0u);
    EXPECT_TRUE(r.delivery.clean()) << r.delivery.summary();
}

} // namespace
} // namespace fbfly
