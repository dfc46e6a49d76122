/**
 * @file
 * Per-server RPC-tree engine for service-graph workloads.
 *
 * Each server in a graph fleet owns one `RpcEngine`, installed into
 * its `ServerSim` as the `GraphHooks` implementation. The engine
 * tracks every live RPC-tree node resident on the server in an
 * id-ordered map: a root node per front-tier arrival, plus a child
 * node per inbound `GraphCall`. When a node's service invocation hits
 * its first I/O call site (sync tiers), the engine fans out child
 * RPCs into the next tier — same-server children loop back through
 * the NIC, cross-server children are queued in an outbox the fleet
 * coordinator exchanges at its conservative-window barriers — and the
 * request stays blocked until every child reports `GraphDone`. A node
 * finishes when its own segments have run *and* its subtree has
 * drained; finishing the root records the end-to-end tree latency.
 *
 * Determinism: child routing is a pure hash of the parent's salt and
 * the child index over the shared `GraphRouting` table — no RNG, no
 * dependence on arrival interleaving — so results are bit-identical
 * across fleet worker counts and across checkpoint-resume.
 *
 * Bounded footprint: a VM holding `maxLiveNodesPerVm` live nodes
 * sheds new work (roots at admission, child calls on arrival, both
 * accounted in shed counters and answered with an immediate
 * `GraphDone` so the parent tree still drains). A finished node is
 * erased, so resident state tracks the live tree population, not the
 * run's history.
 */

#ifndef HH_SVC_RPC_ENGINE_H
#define HH_SVC_RPC_ENGINE_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/server.h"
#include "net/packet.h"
#include "sim/time.h"
#include "stats/histogram.h"
#include "svc/graph_spec.h"

namespace hh::svc {

/** A live node of some request's RPC tree, resident on this server. */
struct RpcNode
{
    static constexpr std::uint32_t kNoParent = ~0u;

    std::uint64_t id = 0;      //!< Engine-local stable node id.
    std::uint32_t vm = 0;      //!< Hosting VM slot.
    std::uint32_t tier = 0;
    std::uint64_t salt = 0;    //!< Deterministic child-routing salt.

    /** Reply-to triple; parentServer == kNoParent marks a root. */
    std::uint32_t parentServer = kNoParent;
    std::uint32_t parentVm = 0;
    std::uint64_t parentNode = 0;

    /** Live request id while the invocation runs; 0 afterwards. */
    std::uint64_t reqId = 0;

    hh::sim::Cycles arrival = 0;   //!< Tree-node start time.
    hh::sim::Cycles blockedAt = 0; //!< When it parked at its call site.

    std::uint32_t childrenOutstanding = 0;
    bool localDone = false; //!< Own segments have all run.
    bool fannedOut = false; //!< Children were issued (at most once).
    bool waiting = false;   //!< Parked at its call site on children.

    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(id);
        ar.io(vm);
        ar.io(tier);
        ar.io(salt);
        ar.io(parentServer);
        ar.io(parentVm);
        ar.io(parentNode);
        ar.io(reqId);
        ar.io(arrival);
        ar.io(blockedAt);
        ar.io(childrenOutstanding);
        ar.io(localDone);
        ar.io(fannedOut);
        ar.io(waiting);
    }
};

/**
 * A cross-server message awaiting the fleet coordinator's exchange.
 * `Packet` does not carry the destination server — routing is the
 * coordinator's job — so the outbox entry does.
 */
struct OutMsg
{
    unsigned dstServer = 0;
    hh::net::Packet pkt;
    hh::sim::Cycles sendTime = 0;
};

/**
 * The per-server engine. Implements the `GraphHooks` seam; owned by
 * `FleetSim`, which installs it with `ServerSim::setGraphHooks`.
 */
class RpcEngine : public hh::cluster::GraphHooks
{
  public:
    /**
     * @param spec        The (validated) graph topology.
     * @param routing     Shared tier→(server, vm) slot table.
     * @param serverIndex This server's fleet index.
     * @param server      The hosting server simulation.
     * @param cfg         Its system configuration (budgets, warmup).
     */
    RpcEngine(const ServiceGraphSpec &spec,
              std::shared_ptr<const GraphRouting> routing,
              unsigned serverIndex, hh::cluster::ServerSim &server,
              const hh::cluster::SystemConfig &cfg);

    /** @name GraphHooks (called by ServerSim) @{ */
    bool admitRoot(std::uint32_t vm) override;
    void onRootArrival(std::uint32_t vm, std::uint64_t reqId) override;
    bool onCallSite(std::uint64_t reqId) override;
    void onComplete(std::uint64_t reqId) override;
    void onGraphPacket(const hh::net::Packet &pkt) override;
    void serialize(hh::snap::Archive &ar) override;
    std::optional<std::string> auditInvariant() override;
    std::uint64_t footprintBytes() const override;
    /** @} */

    /** @name Fleet coordinator interface @{ */

    /** Drain the cross-server outbox (exchanged at barriers). */
    std::vector<OutMsg> takeOutbox();

    /** Every front-tier root on this server arrived and resolved. */
    bool rootsFinished() const
    {
        return roots_done_ + roots_shed_ >= roots_expected_;
    }

    std::size_t liveNodes() const { return nodes_.size(); }
    std::size_t peakLiveNodes() const { return peak_nodes_; }
    /** @} */

    /** @name Statistics @{ */
    std::uint64_t rootsDone() const { return roots_done_; }
    std::uint64_t rootsShed() const { return roots_shed_; }
    std::uint64_t wireSent() const { return wire_sent_; }
    const std::vector<std::uint64_t> &tierSheds() const
    {
        return tier_sheds_;
    }
    const std::vector<std::uint64_t> &tierNodes() const
    {
        return tier_nodes_;
    }
    const std::vector<hh::stats::LogHistogram> &tierHists() const
    {
        return tier_hist_us_;
    }
    const hh::stats::LogHistogram &e2eHist() const
    {
        return e2e_hist_us_;
    }
    /** @} */

  private:
    /** Create a node under the next node id. */
    RpcNode &createNode();

    /** Live node @p id, or nullptr. */
    RpcNode *findNode(std::uint64_t id);

    /** Issue all child RPCs of @p id into the next tier. */
    void fanOut(std::uint64_t id);

    /** Finish @p id if locally done with a drained subtree. */
    void maybeFinishNode(std::uint64_t id);

    /** Route a packet: same-server loops back, else to the outbox. */
    void send(unsigned dstServer, const hh::net::Packet &pkt);

    /** Immediate GraphDone for a shed child (tree still drains). */
    void ackShed(const hh::net::Packet &call);

    const ServiceGraphSpec spec_;
    std::shared_ptr<const GraphRouting> routing_;
    const unsigned self_;
    hh::cluster::ServerSim &server_;

    std::map<std::uint64_t, RpcNode> nodes_;
    std::size_t peak_nodes_ = 0;
    std::uint64_t next_node_id_ = 1;
    std::unordered_map<std::uint64_t, std::uint64_t> req_to_node_;

    std::vector<std::uint32_t> vm_live_;      //!< Live nodes per VM.
    std::vector<std::uint64_t> vm_roots_done_; //!< Warmup gating.

    std::uint64_t roots_expected_ = 0;
    std::uint64_t roots_done_ = 0;
    std::uint64_t roots_shed_ = 0;
    unsigned warmup_skip_ = 0;

    std::vector<std::uint64_t> tier_sheds_; //!< Shed work per tier.
    std::vector<std::uint64_t> tier_nodes_; //!< Finished nodes per tier.
    std::vector<hh::stats::LogHistogram> tier_hist_us_;
    hh::stats::LogHistogram e2e_hist_us_;

    std::uint64_t wire_sent_ = 0; //!< Cross-server messages issued.
    std::vector<OutMsg> outbox_;
};

} // namespace hh::svc

#endif // HH_SVC_RPC_ENGINE_H
