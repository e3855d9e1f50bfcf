/**
 * @file
 * The NetSparse two-layer network protocol (Section 6.1.1, Figure 6).
 *
 * NetSparse packets ride on top of RDMA ("upper layers", 50 B of header).
 * The concatenation layer (12 B) carries the PR type, destination,
 * property length and PR count; the PR layer (18 B per PR) carries each
 * PR's source node, source RIG-unit id, property idx and request id.
 * Read PRs have no payload; response PRs carry the property value.
 *
 * Without concatenation, a lone PR instead uses a 10 B single-PR layer
 * under the upper layers, giving the paper's 50+10+18 = 78 B header.
 */

#ifndef NETSPARSE_NET_PROTOCOL_HH
#define NETSPARSE_NET_PROTOCOL_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "sim/types.hh"

namespace netsparse {

/** The two PR types of the protocol. */
enum class PrType : std::uint8_t
{
    Read,
    Response,
};

/** One Property Request: a fine-grained remote read or its response. */
struct PropertyRequest
{
    PrType type = PrType::Read;
    /** Node that issued the original read. */
    NodeId src = invalidNode;
    /** RIG unit (thread) id within the source SNIC. */
    std::uint16_t srcTid = 0;
    /**
     * Tenant (job) id of the issuing virtual SNIC slice. Rides the PR
     * with zero wire-size cost - the real header's QP number already
     * identifies the tenant - and keys per-tenant cache partitions,
     * fair-queueing lanes and SLO accounting. 0 on single-job runs.
     */
    std::uint16_t tenant = 0;
    /** Property index (the nonzero's cid). */
    PropIdx idx = 0;
    /** Per-unit request identifier. */
    std::uint32_t reqId = 0;
    /**
     * The kernel's property size in bytes (the concatenation-layer "Len"
     * field). Lets an in-switch cache hit turn a read into a response.
     */
    std::uint32_t propBytes = 0;
    /** Payload bytes: 0 for reads, K*4 for responses. */
    std::uint32_t payloadBytes = 0;
    /** Deterministic checksum of the property data (responses). */
    std::uint64_t checksum = 0;
    /**
     * Skip the in-switch Property Cache for this read (a header flag
     * bit, no wire-size cost). Set on corruption refetches so a
     * poisoned cache entry cannot satisfy them.
     */
    bool bypassCache = false;

    // --- PR latency lifecycle stamps (observability only) ---
    // Simulation-side metadata like bypassCache: the stamps ride the
    // struct with zero wire-size cost and are ignored by every
    // component except the stampers below and the latency collector
    // at the requesting client (net/pr_latency.hh). Zero means "not
    // stamped" (e.g. the ToR stamp on a run without the NetSparse
    // middle pipes). On a retransmitted PR the stamps describe the
    // attempt whose response was accepted.
    /** RIG client issued the read (RigClientUnit::sendReadPr). */
    Tick issueTick = 0;
    /** The read left the SNIC onto the NIC egress link. */
    Tick egressTick = 0;
    /** The read entered the requester's ToR middle pipe. */
    Tick torIngressTick = 0;
    /** The property was produced: ToR cache hit or remote fetch done. */
    Tick fetchTick = 0;
    /** The response was manufactured by a ToR Property Cache hit. */
    bool servedByCache = false;

    /**
     * Causal span id (sim/span.hh), assigned at issue time to PRs the
     * span tracer records; 0 (the default) means "not traced". Like
     * the lifecycle stamps it is simulation-side metadata with zero
     * wire cost, and it survives the in-place read->response rewrite
     * at the server or the ToR cache, so response-path hops attribute
     * to the same span.
     */
    std::uint64_t spanId = 0;
};

/** Header-size and MTU parameters (paper Table 5 defaults). */
struct ProtocolParams
{
    /** RDMA and below ("upper layers"). */
    std::uint32_t upperHeaderBytes = 50;
    /** Concatenation-layer header. */
    std::uint32_t concatHeaderBytes = 12;
    /** Per-PR header. */
    std::uint32_t prHeaderBytes = 18;
    /** Single-PR layer used when concatenation is disabled. */
    std::uint32_t soloHeaderBytes = 10;
    /** Maximum transmission unit. */
    std::uint32_t mtuBytes = 1500;

    /** Fixed per-packet overhead of a concatenated packet. */
    std::uint32_t
    concatBaseBytes() const
    {
        return upperHeaderBytes + concatHeaderBytes;
    }

    /** Wire size of one PR inside a concatenated packet. */
    std::uint32_t
    prWireBytes(const PropertyRequest &pr) const
    {
        return prHeaderBytes + pr.payloadBytes;
    }

    /** Wire size of a lone, unconcatenated PR packet. */
    std::uint32_t
    soloWireBytes(const PropertyRequest &pr) const
    {
        return upperHeaderBytes + soloHeaderBytes + prHeaderBytes +
               pr.payloadBytes;
    }
};

/**
 * A network packet: one or more PRs of the same type headed to the same
 * destination node (concatenated), or a single PR (vanilla).
 */
struct Packet
{
    NodeId src = invalidNode;
    NodeId dest = invalidNode;
    PrType type = PrType::Read;
    /** True when the packet uses the concatenation layer. */
    bool concatenated = false;
    /** Tenant id of the PRs inside (see PropertyRequest::tenant). */
    std::uint16_t tenant = 0;
    /**
     * Background-traffic packet: it carries no PRs, occupies exactly
     * wireBytes on the wire, skips the NetSparse middle pipes, and is
     * discarded at the destination node. False for every protocol
     * packet.
     */
    bool raw = false;
    /**
     * True when at least one PR inside carries a span id. Set at the
     * concatenation point that built the packet; links and switches
     * test this single flag before scanning prs for span hops, so a
     * run with spans disabled pays one always-false branch per packet.
     */
    bool spanned = false;
    /**
     * Total bytes on the wire, headers included, and the payload
     * (useful property data) bytes carried. Stamped once by whoever
     * builds the packet - a concatenation point knows both from its
     * running byte count - so links and SNICs never walk the PRs.
     */
    std::uint32_t wireBytes = 0;
    std::uint32_t payloadBytes = 0;
    std::vector<PropertyRequest> prs;

    /**
     * Stamp wireBytes and payloadBytes by summing over prs: the sizes
     * a packet built by hand carries. Concatenation points stamp the
     * same sums from their running counts.
     */
    void
    stampSizes(const ProtocolParams &proto)
    {
        wireBytes = concatenated ? proto.concatBaseBytes() : 0;
        payloadBytes = 0;
        for (const auto &pr : prs) {
            wireBytes += concatenated ? proto.prWireBytes(pr)
                                      : proto.soloWireBytes(pr);
            payloadBytes += pr.payloadBytes;
        }
    }
};

/** The deterministic "property value" checksum for end-to-end checking. */
constexpr std::uint64_t
propertyChecksum(PropIdx idx)
{
    return splitmix64(idx ^ 0x0e75ea5eULL);
}

/**
 * Tenant-salted variant: concurrent jobs gather from different
 * matrices, so the same idx names different property data per tenant.
 * Salting the checksum makes a cross-tenant mixup detectable end to
 * end, exactly like corruption. Idxs are 32-bit in practice, so the
 * salt occupies otherwise-clear high bits and tenant 0 reproduces the
 * single-job checksum bit for bit.
 */
constexpr std::uint64_t
propertyChecksum(PropIdx idx, std::uint16_t tenant)
{
    return propertyChecksum(
        idx ^ (static_cast<std::uint64_t>(tenant) << 40));
}

} // namespace netsparse

#endif // NETSPARSE_NET_PROTOCOL_HH
