/** @file Tests for the SNIC assembly: dispatch, concat, backpressure. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/link.hh"
#include "snic/snic.hh"

using namespace netsparse;

namespace {

struct RecordingSink : PacketSink
{
    void
    receivePacket(Packet &&pkt, std::uint32_t) override
    {
        packets.push_back(std::move(pkt));
    }

    std::vector<Packet> packets;
};

struct SnicHarness
{
    EventQueue eq;
    ProtocolParams proto;
    RecordingSink wire;
    std::unique_ptr<Snic> snic;
    std::unique_ptr<Link> egress;

    explicit SnicHarness(std::uint32_t units = 4)
    {
        SnicConfig cfg;
        cfg.numRigUnits = units;
        cfg.proto = proto;
        cfg.concat.proto = proto;
        cfg.concat.delay = 100 * ticks::ns;
        snic = std::make_unique<Snic>(
            eq, cfg, 0,
            [](PropIdx idx) { return static_cast<NodeId>(idx % 4); },
            1 << 16, "snic");
        egress = std::make_unique<Link>(eq, LinkConfig{}, proto, &wire, 0,
                                        "up");
        snic->attachEgress(egress.get());
    }
};

Packet
readPacket(std::initializer_list<PropIdx> idxs, NodeId dest = 0)
{
    Packet p;
    p.dest = dest;
    p.type = PrType::Read;
    p.concatenated = true;
    for (auto idx : idxs) {
        PropertyRequest pr;
        pr.type = PrType::Read;
        pr.src = 2;
        pr.srcTid = 1;
        pr.idx = idx;
        pr.propBytes = 64;
        p.prs.push_back(pr);
    }
    p.stampSizes(ProtocolParams{});
    return p;
}

} // namespace

TEST(Snic, ServesIncomingReadsThroughServerUnits)
{
    SnicHarness h;
    h.snic->receivePacket(readPacket({4, 8, 12}), 0);
    h.eq.run();

    EXPECT_EQ(h.snic->rxReads(), 3u);
    RigServerStats st = h.snic->aggregateServerStats();
    EXPECT_EQ(st.readsServed, 3u);
    EXPECT_EQ(st.bytesFetched, 3u * 64u);

    // Responses leave concatenated toward the requester (node 2).
    ASSERT_EQ(h.wire.packets.size(), 1u);
    const Packet &out = h.wire.packets[0];
    EXPECT_EQ(out.dest, 2u);
    EXPECT_EQ(out.type, PrType::Response);
    ASSERT_EQ(out.prs.size(), 3u);
    for (const auto &pr : out.prs) {
        EXPECT_EQ(pr.payloadBytes, 64u);
        EXPECT_EQ(pr.checksum, propertyChecksum(pr.idx));
        EXPECT_EQ(pr.srcTid, 1u); // requester's tid preserved
    }
}

TEST(Snic, QControlRoundRobinsAcrossServerUnits)
{
    SnicHarness h(8); // 4 servers
    h.snic->receivePacket(readPacket({4, 8, 12, 16, 20, 24, 28, 32}), 0);
    h.eq.run();
    // With 1 PR/cycle pipelining per unit and round-robin dispatch,
    // all reads are served; per-unit stats exist only in aggregate, so
    // check the total and that responses arrived promptly.
    EXPECT_EQ(h.snic->aggregateServerStats().readsServed, 8u);
}

TEST(Snic, ResponseForUnknownTidPanics)
{
    SnicHarness h;
    Packet p;
    p.dest = 0;
    p.type = PrType::Response;
    p.concatenated = true;
    PropertyRequest pr;
    pr.type = PrType::Response;
    pr.src = 0;
    pr.srcTid = 60; // no such client unit
    pr.idx = 1;
    p.prs.push_back(pr);
    p.stampSizes(ProtocolParams{});
    EXPECT_THROW(h.snic->receivePacket(std::move(p), 0),
                 std::logic_error);
}

TEST(Snic, RxCountersTrackTraffic)
{
    SnicHarness h;
    Packet p = readPacket({4, 8});
    std::uint64_t wire_bytes = p.wireBytes;
    h.snic->receivePacket(std::move(p), 0);
    h.eq.run();
    EXPECT_EQ(h.snic->rxPackets(), 1u);
    EXPECT_EQ(h.snic->rxBytes(), wire_bytes);
    EXPECT_EQ(h.snic->rxPayloadBytes(), 0u);
}

TEST(Snic, BackpressureReflectsEgressQueueAndConcatOccupancy)
{
    SnicHarness h;
    EXPECT_FALSE(h.snic->txBackpressured());
    // Stuff the egress link far beyond the 2 MB Tx buffer.
    for (int i = 0; i < 3000; ++i) {
        Packet p;
        p.dest = 1;
        p.type = PrType::Response;
        p.concatenated = false;
        PropertyRequest pr;
        pr.type = PrType::Response;
        pr.payloadBytes = 1024;
        pr.propBytes = 1024;
        p.prs.push_back(pr);
        p.stampSizes(h.proto);
        h.egress->send(std::move(p));
    }
    EXPECT_TRUE(h.snic->txBackpressured());
    h.eq.run();
    EXPECT_FALSE(h.snic->txBackpressured());
}

TEST(Snic, NeedsAtLeastTwoUnits)
{
    EventQueue eq;
    SnicConfig cfg;
    cfg.numRigUnits = 1;
    EXPECT_THROW(Snic(eq, cfg, 0, [](PropIdx) { return NodeId{0}; }, 16,
                      "bad"),
                 std::logic_error);
}

TEST(Snic, ConfigureForKernelClearsTheFilter)
{
    SnicHarness h;
    h.snic->idxFilter().set(100);
    EXPECT_TRUE(h.snic->idxFilter().test(100));
    h.snic->configureForKernel();
    EXPECT_FALSE(h.snic->idxFilter().test(100));
}
