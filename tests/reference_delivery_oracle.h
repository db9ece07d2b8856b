/**
 * @file
 * Test-only reference model of the delivery oracle's ledger: the
 * straightforward map-based design that sim/delivery_oracle.h
 * replaced.
 *
 * It keeps every packet it ever tracked and every flow's counters
 * forever, and numbers each packet within its (src, dst) flow.  That
 * makes it easy to check by reading and unbounded in memory.  The
 * production oracle erases delivered packets and drained flows and
 * orders injections globally; test_delivery_oracle.cc drives both
 * with the same random operation streams and requires identical
 * OracleReports after every operation.
 */

#ifndef FBFLY_TESTS_REFERENCE_DELIVERY_ORACLE_H
#define FBFLY_TESTS_REFERENCE_DELIVERY_ORACLE_H

#include <cstdint>
#include <unordered_map>

#include "network/flit.h"
#include "sim/delivery_oracle.h"

namespace fbfly::oracletest
{

class ReferenceDeliveryOracle
{
  public:
    void onInject(const Flit &head)
    {
        const std::uint64_t flow = flowKey(head);
        Entry e;
        e.fingerprint = fingerprint(head);
        e.flow = flow;
        e.flowSeq = flowInjected_[flow]++;
        // A re-injected id keeps its first entry.
        packets_.emplace(head.packet, e);
        ++tracked_;
    }

    void onEject(const Flit &tail)
    {
        const auto it = packets_.find(tail.packet);
        if (it == packets_.end()) {
            ++corruptions_;
            return;
        }
        Entry &e = it->second;
        if (e.delivered) {
            ++duplicates_;
            return;
        }
        if (fingerprint(tail) != e.fingerprint) {
            ++corruptions_;
            return;
        }
        e.delivered = true;
        ++delivered_;
        // The watermark holds 1 + the highest flowSeq delivered so
        // far; a delivery below it was overtaken on its flow.
        auto &watermark = flowWatermark_[e.flow];
        if (e.flowSeq < watermark)
            ++reorders_;
        else
            watermark = e.flowSeq + 1;
    }

    OracleReport report(std::uint64_t expected_dropped, bool drained,
                        bool order_enforced) const
    {
        OracleReport rep;
        rep.orderEnforced = order_enforced;
        rep.tracked = tracked_;
        rep.delivered = delivered_;
        rep.duplicates = duplicates_;
        rep.reorders = reorders_;
        rep.corruptions = corruptions_;
        rep.expectedDropped = expected_dropped;
        for (const auto &[id, e] : packets_) {
            if (!e.delivered)
                ++rep.outstanding;
        }
        rep.dropped = drained && rep.outstanding > expected_dropped
                          ? rep.outstanding - expected_dropped
                          : 0;
        return rep;
    }

  private:
    struct Entry
    {
        std::uint64_t fingerprint = 0;
        std::uint64_t flowSeq = 0;
        std::uint64_t flow = 0;
        bool delivered = false;
    };

    static std::uint64_t mix64(std::uint64_t z)
    {
        z += 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    static std::uint64_t fingerprint(const Flit &f)
    {
        std::uint64_t h = mix64(f.packet ^ 0x6f7261636c65ULL);
        h = mix64(h ^ static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(f.src)));
        h = mix64(h ^ (static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(f.dst))
                       << 1));
        h = mix64(h ^ f.createTime);
        h = mix64(h ^ static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(f.packetSize)));
        return h;
    }

    static std::uint64_t flowKey(const Flit &f)
    {
        return (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(f.src))
                << 32) |
               static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(f.dst));
    }

    std::unordered_map<PacketId, Entry> packets_;
    std::unordered_map<std::uint64_t, std::uint64_t> flowInjected_;
    std::unordered_map<std::uint64_t, std::uint64_t> flowWatermark_;

    std::uint64_t tracked_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t duplicates_ = 0;
    std::uint64_t reorders_ = 0;
    std::uint64_t corruptions_ = 0;
};

} // namespace fbfly::oracletest

#endif // FBFLY_TESTS_REFERENCE_DELIVERY_ORACLE_H
