/** @file Tests for the 2-layer NetSparse wire protocol (Figure 6). */

#include <gtest/gtest.h>

#include "net/protocol.hh"

using namespace netsparse;

namespace {

PropertyRequest
pr(PrType type, std::uint32_t payload)
{
    PropertyRequest p;
    p.type = type;
    p.payloadBytes = payload;
    p.propBytes = payload ? payload : 64;
    return p;
}

} // namespace

TEST(Protocol, PaperHeaderArithmetic)
{
    // Section 6.1.1: without concatenation a PR packet needs
    // 50+10+18 = 78 B of headers; with concatenation, N PRs share
    // 50+12 B and add 18 B each.
    ProtocolParams proto;
    EXPECT_EQ(proto.soloWireBytes(pr(PrType::Read, 0)), 78u);
    EXPECT_EQ(proto.concatBaseBytes(), 62u);
    EXPECT_EQ(proto.prWireBytes(pr(PrType::Read, 0)), 18u);
    EXPECT_EQ(proto.prWireBytes(pr(PrType::Response, 64)), 82u);
}

TEST(Protocol, ConcatenatedPacketWireBytes)
{
    ProtocolParams proto;
    Packet pkt;
    pkt.concatenated = true;
    pkt.type = PrType::Response;
    for (int i = 0; i < 5; ++i)
        pkt.prs.push_back(pr(PrType::Response, 64));
    pkt.stampSizes(proto);
    // 62 + 5 * (18 + 64).
    EXPECT_EQ(pkt.wireBytes, 62u + 5u * 82u);
    EXPECT_EQ(pkt.payloadBytes, 5u * 64u);
}

TEST(Protocol, SoloPacketWireBytes)
{
    ProtocolParams proto;
    Packet pkt;
    pkt.concatenated = false;
    pkt.prs.push_back(pr(PrType::Response, 512));
    pkt.stampSizes(proto);
    EXPECT_EQ(pkt.wireBytes, 78u + 512u);
    EXPECT_EQ(pkt.payloadBytes, 512u);
}

TEST(Protocol, ConcatenationBreaksEvenImmediately)
{
    // The paper's argument: from N = 2 on, N concatenated PRs cost
    // less than N solo packets (62 + 18N < 78N). A lone PR pays 2 B
    // for the richer concatenation header (80 vs 78).
    ProtocolParams proto;
    EXPECT_EQ(proto.concatBaseBytes() + proto.prHeaderBytes, 80u);
    for (std::uint32_t n = 2; n <= 79; ++n) {
        std::uint64_t solo = static_cast<std::uint64_t>(n) * 78u;
        std::uint64_t concat = 62u + static_cast<std::uint64_t>(n) * 18u;
        EXPECT_LT(concat, solo) << "n=" << n;
    }
}

TEST(Protocol, ChecksumIsDeterministicPerIdx)
{
    EXPECT_EQ(propertyChecksum(123), propertyChecksum(123));
    EXPECT_NE(propertyChecksum(123), propertyChecksum(124));
    // Differs from the raw splitmix of the idx (domain-separated).
    EXPECT_NE(propertyChecksum(123), splitmix64(123));
}
