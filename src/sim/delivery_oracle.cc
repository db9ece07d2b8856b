#include "sim/delivery_oracle.h"

#include <algorithm>
#include <sstream>

namespace fbfly
{

namespace
{

/** SplitMix64-style finalizer for fingerprint mixing. */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

std::string
OracleReport::summary() const
{
    std::ostringstream os;
    os << "delivery oracle: tracked=" << tracked
       << " delivered=" << delivered << " outstanding=" << outstanding
       << " (expected_dropped=" << expectedDropped << ")"
       << " dropped=" << dropped << " duplicates=" << duplicates
       << " reorders=" << reorders
       << (orderEnforced ? " (order enforced)" : " (order advisory)")
       << " corruptions=" << corruptions
       << (clean() ? " [clean]" : " [VIOLATIONS]");
    return os.str();
}

std::uint64_t
DeliveryOracle::fingerprint(const Flit &f)
{
    // Identity fields shared by every flit of a packet; any
    // corruption that survives the link layer perturbs at least one
    // of them (or the packet id used to look the entry up).
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

std::uint64_t
DeliveryOracle::flowKey(const Flit &f)
{
    return (static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(f.src))
            << 32) |
           static_cast<std::uint64_t>(
               static_cast<std::uint32_t>(f.dst));
}

template <typename Slot>
std::size_t
DeliveryOracle::FlatTable<Slot>::home(std::uint64_t key) const
{
    return static_cast<std::size_t>(mix64(key)) & (slots_.size() - 1);
}

template <typename Slot>
Slot *
DeliveryOracle::FlatTable<Slot>::find(std::uint64_t key)
{
    if (slots_.empty())
        return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
        Slot &s = slots_[i];
        if (!s.used())
            return nullptr;
        if (s.key == key)
            return &s;
    }
}

template <typename Slot>
std::pair<Slot *, bool>
DeliveryOracle::FlatTable<Slot>::insert(const Slot &slot)
{
    if (2 * (size_ + 1) > slots_.size()) {
        std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
        old.swap(slots_);
        size_ = 0;
        for (const Slot &s : old) {
            if (s.used())
                insert(s);
        }
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(slot.key);; i = (i + 1) & mask) {
        Slot &s = slots_[i];
        if (!s.used()) {
            s = slot;
            ++size_;
            return {&s, true};
        }
        if (s.key == slot.key)
            return {&s, false};
    }
}

template <typename Slot>
void
DeliveryOracle::FlatTable<Slot>::erase(Slot *s)
{
    // Shift later members of the probe run back into the hole, so
    // every remaining key stays reachable from its home slot.  A
    // member may move only if the hole lies on its own probe path,
    // i.e. it sits at least as far from its home as from the hole.
    const std::size_t mask = slots_.size() - 1;
    auto hole = static_cast<std::size_t>(s - slots_.data());
    for (std::size_t i = (hole + 1) & mask; slots_[i].used();
         i = (i + 1) & mask) {
        if (((i - home(slots_[i].key)) & mask) >= ((i - hole) & mask)) {
            slots_[hole] = slots_[i];
            hole = i;
        }
    }
    slots_[hole] = Slot{};
    --size_;
}

bool
DeliveryOracle::wasDelivered(PacketId id) const
{
    return id < deliveredIds_.size() && deliveredIds_[id];
}

void
DeliveryOracle::onInject(const Flit &head)
{
    const std::uint64_t seq = ++tracked_;
    // A re-injected id keeps its first entry, live or delivered.
    if (wasDelivered(head.packet))
        return;
    const std::uint64_t flow = flowKey(head);
    if (!packets_.insert({head.packet, fingerprint(head), flow, seq})
             .second)
        return;
    const auto [f, fresh] = flows_.insert({flow, 0, 1});
    if (!fresh)
        ++f->live;
}

void
DeliveryOracle::onEject(const Flit &tail)
{
    LivePacket *p = packets_.find(tail.packet);
    if (p == nullptr) {
        // Not live: either delivered before, or an ejection that
        // matches nothing we injected — its packet id (or measured
        // flag) was mangled in transit.
        if (wasDelivered(tail.packet))
            ++duplicates_;
        else
            ++corruptions_;
        return;
    }
    if (fingerprint(tail) != p->fingerprint) {
        ++corruptions_;
        return;
    }
    const LivePacket e = *p;
    packets_.erase(p);
    if (e.key >= deliveredIds_.size())
        deliveredIds_.resize(e.key + 1);
    deliveredIds_[e.key] = true;
    ++delivered_;

    // In-order per flow: the watermark holds the highest seq
    // delivered on the flow; a delivery below it was overtaken by a
    // later injection of the same (src, dst) flow.
    LiveFlow *f = flows_.find(e.flow);
    if (e.seq < f->watermark)
        ++reorders_;
    else
        f->watermark = e.seq;
    // With no live packet left, every later injection on the flow is
    // newer than all it delivered and can be overtaken only by
    // another later one, so restarting the flow with watermark 0
    // leaves every reorder count unchanged.
    if (--f->live == 0)
        flows_.erase(f);
}

OracleReport
DeliveryOracle::report(std::uint64_t expected_dropped, bool drained,
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
    rep.outstanding = packets_.size();
    rep.dropped = drained && rep.outstanding > expected_dropped
                      ? rep.outstanding - expected_dropped
                      : 0;
    return rep;
}

} // namespace fbfly
