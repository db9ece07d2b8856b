/**
 * @file
 * Delivery oracle — end-to-end exactly-once delivery checking.
 *
 * The link-layer retry protocol (network/channel.h) claims that any
 * transient corruption or erasure on the wire is absorbed below the
 * network layer: every packet still arrives exactly once, in per-flow
 * FIFO order, with its payload intact.  The oracle checks that claim
 * end to end, independently of the mechanism under test: it
 * fingerprints every measured packet at injection and verifies each
 * ejection against the ledger, classifying failures as
 *
 *  - **drop**: a tracked packet never ejected (beyond the drops the
 *    router layer itself reported, e.g. unreachable destinations
 *    under a fail-stop fault set);
 *  - **duplicate**: the same packet ejected more than once;
 *  - **reorder**: a packet overtaking an earlier injection of the
 *    same (src, dst) flow.  Reorders are always *counted*, but they
 *    dirty the report only when the routing algorithm promises
 *    per-flow FIFO (RoutingAlgorithm::preservesFlowOrder) — adaptive
 *    and non-minimal algorithms (UGAL, VAL, adaptive Clos) reorder
 *    same-flow packets even at a zero error rate, inherently, by
 *    routing them through different intermediates;
 *  - **corruption**: an ejected packet whose identity fields no
 *    longer match its injection fingerprint (or an ejection that
 *    matches no tracked packet at all).
 *
 * A clean report from a run with nonzero error injection is the
 * acceptance evidence that the retry protocol works; a clean report
 * at zero error rate guards against oracle false positives.
 *
 * One oracle serves one Network (wired via NetworkConfig::oracle);
 * the sweep engine gives each load point its own network and oracle,
 * so there is no cross-thread sharing.
 */

#ifndef FBFLY_SIM_DELIVERY_ORACLE_H
#define FBFLY_SIM_DELIVERY_ORACLE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "network/flit.h"

namespace fbfly
{

/**
 * Outcome of an end-to-end delivery audit.
 */
struct OracleReport
{
    /** Packets fingerprinted at injection. */
    std::uint64_t tracked = 0;
    /** Tracked packets ejected exactly once with matching
     *  fingerprint. */
    std::uint64_t delivered = 0;
    /** Tracked packets never ejected (drain ended without them). */
    std::uint64_t outstanding = 0;
    /** Drops the router layer accounted for (unreachable /
     *  truncated packets under fail-stop faults). */
    std::uint64_t expectedDropped = 0;
    /** Outstanding packets *beyond* the expected drops — silent
     *  losses the network cannot explain. */
    std::uint64_t dropped = 0;
    /** Ejections of an already-delivered packet. */
    std::uint64_t duplicates = 0;
    /** Deliveries overtaking an earlier same-flow injection. */
    std::uint64_t reorders = 0;
    /** Fingerprint mismatches or ejections of unknown packets. */
    std::uint64_t corruptions = 0;
    /**
     * True when the run's routing algorithm promises per-flow FIFO
     * delivery (RoutingAlgorithm::preservesFlowOrder): reorders then
     * count as violations.  False for adaptive / non-minimal routing,
     * whose multipath reorders are inherent — still reported above,
     * but advisory.
     */
    bool orderEnforced = false;

    /** True when delivery was exactly-once and uncorrupted — and, if
     *  the routing promises order, in per-flow FIFO order. */
    bool clean() const
    {
        return dropped == 0 && duplicates == 0 && corruptions == 0 &&
               (!orderEnforced || reorders == 0);
    }

    /** One-line human-readable summary. */
    std::string summary() const;
};

/**
 * Packet ledger: fingerprints at injection, audits at ejection.
 *
 * The ledger keeps only what a later callback can still need, so its
 * memory is O(measured packets in flight) plus one bit per packet id:
 *
 *  - a live table: each tracked, undelivered packet's fingerprint,
 *    flow and injection order, erased when the packet is delivered;
 *  - a bitset over the packet-id range marking delivered ids, so a
 *    duplicate ejection is still told apart from an unknown id;
 *  - a flow table: the delivery watermark of each (src, dst) flow
 *    that has a live packet, dropped when its last one is delivered.
 *
 * Packet ids must be dense, as Network::nextPacketId draws them: the
 * bitset spans every id up to the highest one delivered.  Both tables
 * are flat open-addressing arrays, so no callback allocates per
 * entry.
 */
class DeliveryOracle
{
  public:
    DeliveryOracle() = default;

    /** Record a measured packet entering the network (head flit at
     *  the source terminal).  A re-injected id keeps its first
     *  entry. */
    void onInject(const Flit &head);

    /** Audit a measured packet leaving the network (tail flit at the
     *  destination terminal). */
    void onEject(const Flit &tail);

    /**
     * Final audit.
     *
     * @param expected_dropped measured packets the router layer
     *        reported dropping (NetworkStats::measuredDropped);
     *        that many missing packets are explained, anything
     *        beyond is a silent drop.
     * @param drained true when the run drained every measured packet
     *        out of the network (delivered or dropped).  When false
     *        (saturated or stalled runs cut off with packets still
     *        in flight) outstanding packets cannot be classified, so
     *        the `dropped` category reports 0 and only duplicates /
     *        reorders / corruptions remain meaningful.
     * @param order_enforced true when the routing algorithm promises
     *        per-flow FIFO (RoutingAlgorithm::preservesFlowOrder):
     *        reorders then dirty the report instead of being
     *        advisory.
     */
    OracleReport report(std::uint64_t expected_dropped = 0,
                        bool drained = true,
                        bool order_enforced = false) const;

    /** Packets tracked so far. */
    std::uint64_t tracked() const { return tracked_; }

    /** Flows the ledger holds: those with a live packet. */
    std::size_t liveFlows() const { return flows_.size(); }

    /** Packet ids the delivered-id bitset spans. */
    std::size_t deliveredIdSpan() const { return deliveredIds_.size(); }

  private:
    /** A tracked packet not yet delivered. */
    struct LivePacket
    {
        PacketId key = 0;
        std::uint64_t fingerprint = 0;
        /** The (src, dst) flow it was injected on (flowKey). */
        std::uint64_t flow = 0;
        /** Its injection order across all flows (1-based); 0 marks an
         *  empty slot. */
        std::uint64_t seq = 0;

        bool used() const { return seq != 0; }
    };

    /** A flow with at least one live packet. */
    struct LiveFlow
    {
        std::uint64_t key = 0;
        /** Highest seq delivered on the flow since it last had no
         *  live packet (0: none). */
        std::uint64_t watermark = 0;
        /** Its live packets; 0 marks an empty slot. */
        std::uint64_t live = 0;

        bool used() const { return live != 0; }
    };

    /**
     * Hash table stored as one flat slot array: linear probing at
     * most half full, backward-shift deletion (no tombstones).  Keys
     * hash through a mixer, because live packet ids are nearly
     * contiguous and identity hashing would pack them into one long
     * probe cluster.  `Slot` has a 64-bit `key`, `used()`, and a
     * default value that is unused.
     */
    template <typename Slot>
    class FlatTable
    {
      public:
        std::size_t size() const { return size_; }

        /** The slot holding `key`, or nullptr. */
        Slot *find(std::uint64_t key);

        /** Insert `slot` unless its key is present.  Returns the slot
         *  holding the key and whether it was inserted; the pointer
         *  is valid until the next insert or erase. */
        std::pair<Slot *, bool> insert(const Slot &slot);

        /** Remove the slot `s` (from find or insert) points at. */
        void erase(Slot *s);

      private:
        std::size_t home(std::uint64_t key) const;

        std::vector<Slot> slots_;
        std::size_t size_ = 0;
    };

    static std::uint64_t fingerprint(const Flit &f);
    static std::uint64_t flowKey(const Flit &f);

    bool wasDelivered(PacketId id) const;

    FlatTable<LivePacket> packets_;
    FlatTable<LiveFlow> flows_;
    /** Bit `id` is set once packet `id` has been delivered. */
    std::vector<bool> deliveredIds_;

    std::uint64_t tracked_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t duplicates_ = 0;
    std::uint64_t reorders_ = 0;
    std::uint64_t corruptions_ = 0;
};

} // namespace fbfly

#endif // FBFLY_SIM_DELIVERY_ORACLE_H
