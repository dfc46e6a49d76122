#include "svc/rpc_engine.h"

#include <algorithm>

#include "sim/log.h"
#include "snapshot/archive.h"

namespace hh::svc {

namespace {

/** SplitMix64-style mixer: deterministic, interleaving-independent. */
std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

RpcEngine::RpcEngine(const ServiceGraphSpec &spec,
                     std::shared_ptr<const GraphRouting> routing,
                     unsigned serverIndex,
                     hh::cluster::ServerSim &server,
                     const hh::cluster::SystemConfig &cfg)
    : spec_(spec), routing_(std::move(routing)), self_(serverIndex),
      server_(server)
{
    const auto &plan = server_.graphPlan();
    if (!plan.enabled)
        hh::sim::panic("RpcEngine: server ", self_,
                       " has no graph plan");
    vm_live_.assign(plan.vms.size(), 0);
    vm_roots_done_.assign(plan.vms.size(), 0);
    unsigned fronts = 0;
    for (const auto &gp : plan.vms)
        fronts += gp.used && gp.front ? 1 : 0;
    roots_expected_ =
        static_cast<std::uint64_t>(fronts) * cfg.requestsPerVm;
    warmup_skip_ = static_cast<unsigned>(
        cfg.warmupFraction * static_cast<double>(cfg.requestsPerVm));

    tier_sheds_.assign(spec_.depth(), 0);
    tier_nodes_.assign(spec_.depth(), 0);
    tier_hist_us_.assign(spec_.depth(), hh::stats::LogHistogram());
}

RpcNode &
RpcEngine::createNode()
{
    const std::uint64_t id = next_node_id_++;
    RpcNode &n = nodes_[id];
    n.id = id;
    peak_nodes_ = std::max(peak_nodes_, nodes_.size());
    return n;
}

RpcNode *
RpcEngine::findNode(std::uint64_t id)
{
    const auto it = nodes_.find(id);
    return it == nodes_.end() ? nullptr : &it->second;
}

bool
RpcEngine::admitRoot(std::uint32_t vm)
{
    if (vm_live_[vm] >= spec_.maxLiveNodesPerVm) {
        // Accounted shed: the arrival budget is spent either way, so
        // rootsFinished() still converges.
        ++roots_shed_;
        ++tier_sheds_[0];
        return false;
    }
    return true;
}

void
RpcEngine::onRootArrival(std::uint32_t vm, std::uint64_t reqId)
{
    RpcNode &n = createNode();
    n.vm = vm;
    n.tier = 0;
    // Root salt: a pure function of (server, node id) — no RNG, so
    // the whole tree's routing is fixed at the root's creation.
    n.salt = mix(mix(0x5EAF00D5EAF00D5EULL, self_), n.id);
    n.parentServer = RpcNode::kNoParent;
    n.reqId = reqId;
    n.arrival = server_.now();
    ++vm_live_[vm];
    req_to_node_[reqId] = n.id;
}

bool
RpcEngine::onCallSite(std::uint64_t reqId)
{
    const auto it = req_to_node_.find(reqId);
    if (it == req_to_node_.end())
        hh::sim::panic("RpcEngine: call site of unknown request ",
                       reqId);
    RpcNode *n = findNode(it->second);
    if (!n)
        hh::sim::panic("RpcEngine: request ", reqId,
                       " maps to dead node");
    const TierSpec &tier = spec_.tiers[n->tier];
    if (!tier.sync || tier.fanout == 0 || n->fannedOut)
        return false; // let the synthetic backend model this call
    n->waiting = true;
    n->blockedAt = server_.now();
    fanOut(n->id);
    return true;
}

void
RpcEngine::onComplete(std::uint64_t reqId)
{
    const auto it = req_to_node_.find(reqId);
    if (it == req_to_node_.end())
        hh::sim::panic("RpcEngine: completion of unknown request ",
                       reqId);
    const std::uint64_t id = it->second;
    req_to_node_.erase(it);
    RpcNode *n = findNode(id);
    if (!n)
        hh::sim::panic("RpcEngine: request ", reqId,
                       " completed on dead node");
    n->localDone = true;
    n->reqId = 0;
    // Async tiers (and sync invocations whose plan happened to have
    // no I/O call site) fan out at completion instead.
    if (!n->fannedOut && spec_.tiers[n->tier].fanout > 0)
        fanOut(id);
    maybeFinishNode(id);
}

void
RpcEngine::onGraphPacket(const hh::net::Packet &pkt)
{
    using hh::net::PacketKind;
    if (pkt.kind == PacketKind::GraphCall) {
        const std::uint32_t vm = pkt.dstVm;
        if (vm >= vm_live_.size())
            hh::sim::panic("RpcEngine: GraphCall to bad vm ", vm);
        if (vm_live_[vm] >= spec_.maxLiveNodesPerVm) {
            // Bounded queue: shed the child but keep the tree
            // correct — the parent gets its GraphDone immediately.
            ++tier_sheds_[pkt.tier];
            ackShed(pkt);
            return;
        }
        const std::uint64_t reqId = server_.graphInjectRequest(vm);
        RpcNode &n = createNode();
        n.vm = vm;
        n.tier = pkt.tier;
        n.salt = pkt.salt;
        n.parentServer = pkt.srcServer;
        n.parentVm = pkt.srcVm;
        n.parentNode = pkt.nodeRef;
        n.reqId = reqId;
        n.arrival = server_.now();
        ++vm_live_[vm];
        req_to_node_[reqId] = n.id;
        return;
    }
    if (pkt.kind == PacketKind::GraphDone) {
        RpcNode *n = findNode(pkt.nodeRef);
        if (!n)
            hh::sim::panic("RpcEngine: GraphDone for unknown node ",
                           pkt.nodeRef);
        if (n->childrenOutstanding == 0)
            hh::sim::panic("RpcEngine: GraphDone underflow on node ",
                           pkt.nodeRef);
        --n->childrenOutstanding;
        if (n->childrenOutstanding > 0)
            return;
        if (n->waiting) {
            // Subtree drained: resume the parked invocation with the
            // real wait attributed as its I/O time.
            n->waiting = false;
            server_.graphUnblock(n->vm, n->reqId, n->blockedAt);
        } else {
            maybeFinishNode(n->id);
        }
        return;
    }
    hh::sim::panic("RpcEngine: unexpected packet kind");
}

void
RpcEngine::fanOut(std::uint64_t id)
{
    RpcNode *n = findNode(id);
    const std::uint32_t t = n->tier;
    const unsigned fanout = spec_.tiers[t].fanout;
    const auto &slots = routing_->tierSlots[t + 1];
    n->childrenOutstanding = fanout;
    n->fannedOut = true;
    for (unsigned j = 0; j < fanout; ++j) {
        const auto [dstServer, dstVm] =
            slots[mix(n->salt, j) % slots.size()];
        hh::net::Packet pkt;
        pkt.kind = hh::net::PacketKind::GraphCall;
        pkt.dstVm = dstVm;
        pkt.srcServer = self_;
        pkt.srcVm = n->vm;
        pkt.nodeRef = id;
        pkt.salt = mix(n->salt ^ 0xC2B2AE3D27D4EB4FULL, j);
        pkt.tier = t + 1;
        pkt.arrival = server_.now();
        send(dstServer, pkt);
    }
}

void
RpcEngine::maybeFinishNode(std::uint64_t id)
{
    RpcNode *n = findNode(id);
    if (!n)
        hh::sim::panic("RpcEngine: finish of unknown node ", id);
    if (!n->localDone || n->waiting || n->childrenOutstanding > 0)
        return;

    const std::uint32_t vm = n->vm;
    const std::uint32_t tier = n->tier;
    const bool root = n->parentServer == RpcNode::kNoParent;
    const double us =
        hh::sim::cyclesToUs(server_.now() - n->arrival);
    tier_hist_us_[tier].add(us);
    ++tier_nodes_[tier];

    if (root) {
        ++roots_done_;
        ++vm_roots_done_[vm];
        // Same warmup gate as the classic per-request stats: early
        // roots complete but do not pollute the latency record.
        if (vm_roots_done_[vm] > warmup_skip_) {
            e2e_hist_us_.add(us);
            server_.graphRecordE2e(us);
        }
    } else {
        hh::net::Packet pkt;
        pkt.kind = hh::net::PacketKind::GraphDone;
        pkt.dstVm = n->parentVm;
        pkt.srcServer = self_;
        pkt.srcVm = vm;
        pkt.nodeRef = n->parentNode;
        pkt.salt = n->salt;
        pkt.tier = tier;
        pkt.arrival = server_.now();
        send(n->parentServer, pkt);
    }
    --vm_live_[vm];
    nodes_.erase(id);
}

void
RpcEngine::send(unsigned dstServer, const hh::net::Packet &pkt)
{
    if (dstServer == self_) {
        server_.graphLoopback(pkt);
        return;
    }
    ++wire_sent_;
    outbox_.push_back(OutMsg{dstServer, pkt, server_.now()});
}

void
RpcEngine::ackShed(const hh::net::Packet &call)
{
    hh::net::Packet done;
    done.kind = hh::net::PacketKind::GraphDone;
    done.dstVm = call.srcVm;
    done.srcServer = self_;
    done.srcVm = call.dstVm;
    done.nodeRef = call.nodeRef;
    done.salt = call.salt;
    done.tier = call.tier;
    done.arrival = server_.now();
    send(call.srcServer, done);
}

std::vector<OutMsg>
RpcEngine::takeOutbox()
{
    std::vector<OutMsg> out;
    out.swap(outbox_);
    return out;
}

void
RpcEngine::serialize(hh::snap::Archive &ar)
{
    // The nodes as a vector of id-sorted records, then the peak.
    std::vector<RpcNode> nodes;
    if (ar.saving()) {
        nodes.reserve(nodes_.size());
        for (const auto &kv : nodes_)
            nodes.push_back(kv.second);
    }
    ar.io(nodes);
    if (ar.loading()) {
        nodes_.clear();
        for (const RpcNode &n : nodes)
            nodes_.emplace(n.id, n);
    }
    std::uint64_t peak = peak_nodes_;
    ar.io(peak);
    peak_nodes_ = static_cast<std::size_t>(peak);
    ar.io(next_node_id_);
    ar.io(req_to_node_);
    ar.io(vm_live_);
    ar.io(vm_roots_done_);
    ar.io(roots_expected_);
    ar.io(roots_done_);
    ar.io(roots_shed_);
    ar.io(tier_sheds_);
    ar.io(tier_nodes_);
    for (auto &h : tier_hist_us_)
        h.serialize(ar);
    e2e_hist_us_.serialize(ar);
    ar.io(wire_sent_);
    // Checkpoints happen only at fleet barriers, where every outbox
    // has been exchanged; a non-empty one here is a coordinator bug.
    std::uint64_t pending = outbox_.size();
    ar.io(pending);
    if (pending != 0)
        ar.fail("RpcEngine: outbox not empty at snapshot");
}

std::optional<std::string>
RpcEngine::auditInvariant()
{
    std::vector<std::uint32_t> live(vm_live_.size(), 0);
    for (const auto &[id, n] : nodes_) {
        if (n.vm >= live.size())
            return "svc: node " + std::to_string(n.id) +
                   " on out-of-range vm";
        ++live[n.vm];
        if (n.childrenOutstanding >
            spec_.tiers[n.tier].fanout)
            return "svc: node " + std::to_string(n.id) +
                   " has more outstanding children than its fanout";
        if (n.waiting) {
            if (n.reqId == 0 || !server_.requestBlocked(n.reqId))
                return "svc: node " + std::to_string(n.id) +
                       " waits on children but its request is not "
                       "blocked";
        }
    }
    for (std::size_t vm = 0; vm < live.size(); ++vm) {
        if (live[vm] != vm_live_[vm])
            return "svc: vm " + std::to_string(vm) + " live-count " +
                   std::to_string(vm_live_[vm]) +
                   " != node population " + std::to_string(live[vm]);
    }
    for (const auto &[reqId, id] : req_to_node_) {
        RpcNode *n = findNode(id);
        if (!n || n->reqId != reqId)
            return "svc: request " + std::to_string(reqId) +
                   " maps to a dead or mismatched node";
    }
    return std::nullopt;
}

std::uint64_t
RpcEngine::footprintBytes() const
{
    // A tree node holds its key/value pair, three links and a colour
    // word; a hash node its pair, a next link and the cached hash.
    std::uint64_t bytes =
        nodes_.size() * (sizeof(decltype(nodes_)::value_type) +
                         sizeof(void *) * 4);
    bytes += req_to_node_.size() *
             (sizeof(std::uint64_t) * 2 + sizeof(void *) * 2);
    bytes += vm_live_.capacity() * sizeof(std::uint32_t);
    bytes += vm_roots_done_.capacity() * sizeof(std::uint64_t);
    bytes += (tier_sheds_.capacity() + tier_nodes_.capacity()) *
             sizeof(std::uint64_t);
    for (const auto &h : tier_hist_us_)
        bytes += h.numBuckets() * sizeof(std::uint64_t);
    bytes += e2e_hist_us_.numBuckets() * sizeof(std::uint64_t);
    bytes += outbox_.capacity() * sizeof(OutMsg);
    return bytes;
}

} // namespace hh::svc
