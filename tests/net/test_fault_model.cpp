/**
 * @file
 * Unit tests for the deterministic fault-injection model: the --faults
 * spec parser, shard-stable per-link fault streams, and the per-class
 * verdict semantics (drop, corrupt, down, degrade).
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/fault_model.hh"

using namespace netsparse;

namespace {

Packet
responsePacket(std::size_t num_prs = 1)
{
    Packet p;
    p.src = 0;
    p.dest = 1;
    p.type = PrType::Response;
    p.concatenated = num_prs > 1;
    for (std::size_t i = 0; i < num_prs; ++i) {
        PropertyRequest pr;
        pr.type = PrType::Response;
        pr.idx = static_cast<PropIdx>(i);
        pr.propBytes = 64;
        pr.payloadBytes = 64;
        pr.checksum = propertyChecksum(pr.idx);
        p.prs.push_back(pr);
    }
    p.stampSizes(ProtocolParams{});
    return p;
}

Packet
readPacket()
{
    Packet p;
    p.src = 0;
    p.dest = 1;
    p.type = PrType::Read;
    PropertyRequest pr;
    pr.type = PrType::Read;
    pr.idx = 7;
    pr.propBytes = 64;
    p.prs.push_back(pr);
    p.stampSizes(ProtocolParams{});
    return p;
}

} // namespace

TEST(FaultModel, ParsesAFullSpec)
{
    FaultConfig cfg = FaultConfig::parse(
        "drop:1e-4,corrupt:1e-5,down:1e-6,downUs:5,degrade:1e-5,"
        "degradeUs:20,degradeFactor:0.25,seed:42");
    EXPECT_DOUBLE_EQ(cfg.dropRate, 1e-4);
    EXPECT_DOUBLE_EQ(cfg.corruptRate, 1e-5);
    EXPECT_DOUBLE_EQ(cfg.linkDownRate, 1e-6);
    EXPECT_EQ(cfg.linkDownTicks, 5 * ticks::us);
    EXPECT_DOUBLE_EQ(cfg.degradeRate, 1e-5);
    EXPECT_EQ(cfg.degradeTicks, 20 * ticks::us);
    EXPECT_DOUBLE_EQ(cfg.degradeFactor, 0.25);
    EXPECT_EQ(cfg.seed, 42u);
    EXPECT_TRUE(cfg.enabled());
}

TEST(FaultModel, EmptySpecDisablesEverything)
{
    FaultConfig cfg = FaultConfig::parse("");
    EXPECT_FALSE(cfg.enabled());
    EXPECT_DOUBLE_EQ(cfg.dropRate, 0.0);
}

TEST(FaultModel, ParserRejectsGarbage)
{
    EXPECT_THROW(FaultConfig::parse("warp:0.5"), std::runtime_error);
    EXPECT_THROW(FaultConfig::parse("drop"), std::runtime_error);
    EXPECT_THROW(FaultConfig::parse("drop:lots"), std::runtime_error);
    EXPECT_THROW(FaultConfig::parse("drop:1.5"), std::runtime_error);
    EXPECT_THROW(FaultConfig::parse("degradeFactor:0"),
                 std::runtime_error);
}

TEST(FaultModel, FaultStreamIsAPureFunctionOfSeedAndOrderingId)
{
    FaultConfig cfg;
    cfg.dropRate = 0.1;
    cfg.corruptRate = 0.05;
    cfg.seed = 5;
    LinkFaultInjector a(cfg, 17), b(cfg, 17), other(cfg, 18);
    bool diverged = false;
    for (int i = 0; i < 2000; ++i) {
        Packet pa = responsePacket(), pb = responsePacket();
        Packet pc = responsePacket();
        auto va = a.onSend(pa, 0);
        auto vb = b.onSend(pb, 0);
        auto vc = other.onSend(pc, 0);
        // Identical (seed, orderingId, seq) -> identical verdicts.
        EXPECT_EQ(va.dropOnWire, vb.dropOnWire);
        EXPECT_EQ(va.corrupted, vb.corrupted);
        if (va.dropOnWire != vc.dropOnWire ||
            va.corrupted != vc.corrupted)
            diverged = true;
    }
    EXPECT_EQ(a.stats().randomDrops, b.stats().randomDrops);
    EXPECT_EQ(a.stats().corruptedPrs, b.stats().corruptedPrs);
    // A different orderingId yields an independent stream.
    EXPECT_TRUE(diverged);
}

TEST(FaultModel, DropRateIsStatisticallyHonored)
{
    FaultConfig cfg;
    cfg.dropRate = 0.1;
    cfg.seed = 9;
    LinkFaultInjector inj(cfg, 0);
    for (int i = 0; i < 10000; ++i) {
        Packet p = responsePacket();
        inj.onSend(p, 0);
    }
    // Binomial(10000, 0.1): mean 1000, sigma ~30. Generous 5-sigma
    // bounds keep this deterministic test honest about the rate.
    EXPECT_GT(inj.stats().randomDrops, 850u);
    EXPECT_LT(inj.stats().randomDrops, 1150u);
}

TEST(FaultModel, LinkDownWindowDiscardsBeforeTheWire)
{
    FaultConfig cfg;
    cfg.linkDownRate = 0.999; // the first send opens a window
    cfg.linkDownTicks = 5 * ticks::us;
    LinkFaultInjector inj(cfg, 3);
    Packet p = responsePacket();
    auto v0 = inj.onSend(p, 0);
    EXPECT_TRUE(v0.dropBeforeWire);
    EXPECT_EQ(inj.stats().downWindows, 1u);
    // Inside the window everything dies; no new window is drawn.
    Packet q = responsePacket();
    auto v1 = inj.onSend(q, 2 * ticks::us);
    EXPECT_TRUE(v1.dropBeforeWire);
    EXPECT_EQ(inj.stats().downWindows, 1u);
    EXPECT_EQ(inj.stats().linkDownDrops, 2u);
    EXPECT_EQ(inj.stats().linkDownTicks, 5 * ticks::us);
}

TEST(FaultModel, CorruptionFlipsExactlyOneResponseChecksum)
{
    FaultConfig cfg;
    cfg.corruptRate = 0.999;
    LinkFaultInjector inj(cfg, 1);

    // Reads are pure headers: never corrupted.
    Packet r = readPacket();
    auto vr = inj.onSend(r, 0);
    EXPECT_FALSE(vr.corrupted);
    EXPECT_EQ(inj.stats().corruptedPrs, 0u);

    // A concatenated response loses exactly one PR's integrity.
    Packet p = responsePacket(8);
    auto vp = inj.onSend(p, 0);
    ASSERT_TRUE(vp.corrupted);
    std::size_t bad = 0;
    for (const auto &pr : p.prs)
        if (pr.checksum != propertyChecksum(pr.idx))
            ++bad;
    EXPECT_EQ(bad, 1u);
    EXPECT_EQ(inj.stats().corruptedPrs, 1u);
}

TEST(FaultModel, DegradeWindowScalesBandwidthWithoutLoss)
{
    FaultConfig cfg;
    cfg.degradeRate = 0.999;
    cfg.degradeTicks = 20 * ticks::us;
    cfg.degradeFactor = 0.25;
    LinkFaultInjector inj(cfg, 2);
    Packet p = responsePacket();
    auto v = inj.onSend(p, 0);
    EXPECT_FALSE(v.dropBeforeWire);
    EXPECT_FALSE(v.dropOnWire);
    EXPECT_DOUBLE_EQ(v.bandwidthFactor, 0.25);
    EXPECT_EQ(inj.stats().degradeWindows, 1u);
    // Past the window the link runs at full rate again.
    Packet q = responsePacket();
    // (degrade may re-trigger; with rate ~1 it will, opening a second
    // window - both verdicts still carry the degraded factor.)
    auto v2 = inj.onSend(q, 25 * ticks::us);
    EXPECT_DOUBLE_EQ(v2.bandwidthFactor, 0.25);
    EXPECT_EQ(inj.stats().degradeWindows, 2u);
}
