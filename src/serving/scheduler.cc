#include "serving/scheduler.hh"

#include <algorithm>

#include "common/log.hh"

namespace gpulat {

std::size_t
pickNextLaunch(ServePolicy policy,
               const std::vector<QueuedLaunch> &queue,
               const std::vector<TenantSchedState> &tenants,
               unsigned rr_cursor)
{
    if (queue.empty())
        return kNoPick;
    switch (policy) {
    case ServePolicy::Fifo:
        // Strict arrival order: an inadmissible head blocks the line.
        return queue.front().admissible ? 0 : kNoPick;

    case ServePolicy::Rr: {
        const auto num_tenants = static_cast<unsigned>(tenants.size());
        for (unsigned step = 0; step < num_tenants; ++step) {
            const unsigned t = (rr_cursor + step) % num_tenants;
            for (std::size_t i = 0; i < queue.size(); ++i) {
                if (queue[i].tenant != t)
                    continue;
                if (queue[i].admissible)
                    return i;
                break; // head-of-line within the tenant
            }
        }
        return kNoPick;
    }

    case ServePolicy::SjfEst: {
        std::size_t best = kNoPick;
        for (std::size_t i = 0; i < queue.size(); ++i) {
            if (!queue[i].admissible)
                continue;
            // Strict < keeps the earliest entry on cost ties.
            if (best == kNoPick ||
                queue[i].estCost < queue[best].estCost)
                best = i;
        }
        return best;
    }

    case ServePolicy::FairShare: {
        std::size_t best = kNoPick;
        double best_key = 0.0;
        std::vector<bool> seen(tenants.size(), false);
        for (std::size_t i = 0; i < queue.size(); ++i) {
            const QueuedLaunch &q = queue[i];
            if (seen[q.tenant])
                continue; // head-of-line within the tenant
            seen[q.tenant] = true;
            if (!q.admissible)
                continue;
            const TenantSchedState &t = tenants[q.tenant];
            const double key =
                t.attained / std::max(t.weight, 1e-12);
            // Strict < keeps the earliest entry on attained ties.
            if (best == kNoPick || key < best_key) {
                best = i;
                best_key = key;
            }
        }
        return best;
    }
    }
    return kNoPick;
}

LaunchQueueScheduler::LaunchQueueScheduler(
    Gpu &gpu, std::vector<TenantPlan> plans,
    std::vector<ArrivalStream> streams, ServingMetrics &metrics)
    : gpu_(gpu), plans_(std::move(plans)),
      streams_(std::move(streams)), metrics_(metrics)
{
    GPULAT_ASSERT(plans_.size() == streams_.size(),
                  "one arrival stream per tenant plan");
    GPULAT_ASSERT(!plans_.empty(), "serving needs at least one tenant");
    for (const auto &p : plans_) {
        GPULAT_ASSERT(!p.shapes.empty(), "tenant with no launch shapes");
        GPULAT_ASSERT(p.weight > 0.0, "tenant weight must be positive");
    }
    const GpuConfig &cfg = gpu_.config();
    if (cfg.serving.partition == ServePartition::Static &&
        plans_.size() > cfg.numSms)
        fatal("static partitioning needs >= 1 SM per tenant (",
              plans_.size(), " tenants, ", cfg.numSms, " SMs)");
    tenants_.resize(plans_.size());
    for (std::size_t t = 0; t < plans_.size(); ++t)
        tenants_[t].weight = plans_[t].weight;
    tenantArrivals_.assign(plans_.size(), 0);
    smBusy_.assign(cfg.numSms, false);
}

std::vector<unsigned>
LaunchQueueScheduler::candidateSms(unsigned tenant) const
{
    const auto &sv = gpu_.config().serving;
    const unsigned num_sms = gpu_.config().numSms;
    std::vector<unsigned> out;
    if (sv.partition == ServePartition::Static) {
        // MPS-style static share: the tenant's fixed SM slice,
        // available only as a whole (so a tenant runs one launch
        // at a time and never touches a neighbour's slice).
        const auto t_count = static_cast<unsigned>(plans_.size());
        const unsigned lo = tenant * num_sms / t_count;
        const unsigned hi = (tenant + 1) * num_sms / t_count;
        for (unsigned s = lo; s < hi; ++s) {
            if (smBusy_[s])
                return {};
            out.push_back(s);
        }
        return out;
    }
    // Dynamic best effort: lowest-indexed free SMs, a fixed demand
    // per launch so admission never depends on queue contents.
    const unsigned demand =
        sv.smsPerLaunch != 0 ? sv.smsPerLaunch
                             : std::max(1u, num_sms / sv.maxConcurrent);
    for (unsigned s = 0; s < num_sms && out.size() < demand; ++s)
        if (!smBusy_[s])
            out.push_back(s);
    if (out.size() < demand)
        return {};
    return out;
}

void
LaunchQueueScheduler::refreshAdmissibility(
    std::vector<QueuedLaunch> &queue) const
{
    for (auto &q : queue)
        q.admissible = !candidateSms(q.tenant).empty();
}

void
LaunchQueueScheduler::reapCompletions(Cycle now)
{
    for (std::size_t i = 0; i < active_.size();) {
        if (!gpu_.launchDone(active_[i].id)) {
            ++i;
            continue;
        }
        const ActiveLaunch al = std::move(active_[i]);
        active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
        gpu_.retireLaunch(al.id);
        for (const unsigned s : al.sms)
            smBusy_[s] = false;
        tenants_[al.tenant].attained +=
            static_cast<double>(now - al.admit) *
            static_cast<double>(al.sms.size());
        metrics_.record({al.tenant, al.seq, al.arrival, al.admit, now,
                         static_cast<unsigned>(al.sms.size())});
        streams_[al.tenant].onCompletion(now);
        ++completed_;
    }
}

void
LaunchQueueScheduler::collectArrivals(Cycle now)
{
    for (unsigned t = 0; t < streams_.size(); ++t) {
        // kNoCycle (all-ones) is never <= now.
        while (streams_[t].nextArrivalAt() <= now) {
            QueuedLaunch q;
            q.tenant = t;
            q.seq = nextSeq_++;
            q.arrival = streams_[t].pop();
            q.shape = tenantArrivals_[t]++;
            const auto &shapes = plans_[t].shapes;
            q.estCost = shapes[q.shape % shapes.size()].estCost;
            queue_.push_back(q);
            ++arrivals_;
        }
    }
}

void
LaunchQueueScheduler::admitLaunches(Cycle now)
{
    const auto &sv = gpu_.config().serving;
    while (active_.size() < sv.maxConcurrent && !queue_.empty()) {
        refreshAdmissibility(queue_);
        const std::size_t pick =
            pickNextLaunch(sv.policy, queue_, tenants_, rrCursor_);
        if (pick == kNoPick)
            break;
        const QueuedLaunch q = queue_[pick];
        std::vector<unsigned> sms = candidateSms(q.tenant);
        GPULAT_ASSERT(!sms.empty(), "picked an inadmissible launch");
        for (const unsigned s : sms)
            smBusy_[s] = true;
        const auto &shapes = plans_[q.tenant].shapes;
        const LaunchShape &sh = shapes[q.shape % shapes.size()];
        ActiveLaunch al;
        al.tenant = q.tenant;
        al.seq = q.seq;
        al.arrival = q.arrival;
        al.admit = now;
        al.sms = sms;
        al.id = gpu_.beginLaunch(*sh.kernel, sh.numBlocks,
                                 sh.threadsPerBlock, sh.params,
                                 std::move(sms));
        active_.push_back(std::move(al));
        if (sv.policy == ServePolicy::Rr)
            rrCursor_ = (q.tenant + 1) %
                        static_cast<unsigned>(plans_.size());
        queue_.erase(queue_.begin() +
                     static_cast<std::ptrdiff_t>(pick));
        ++admitted_;
    }
}

void
LaunchQueueScheduler::tick(Cycle now)
{
    // The BlockDispatcher ticks before this component, so a launch
    // admitted here receives its first blocks next cycle.
    reapCompletions(now);
    collectArrivals(now);
    admitLaunches(now);
}

Cycle
LaunchQueueScheduler::nextEventAt(Cycle now) const
{
    // A launch to reap right now?
    for (const auto &al : active_)
        if (gpu_.launchDone(al.id))
            return now;
    // Next arrival over all streams (kNoCycle when dry/waiting).
    Cycle next = kNoCycle;
    for (const auto &s : streams_)
        next = std::min(next, s.nextArrivalAt());
    if (next <= now)
        return now;
    // Could an already-queued launch be admitted right now? Mirror
    // the actual pick on a snapshot so the promise and the tick
    // agree in every fast-forward mode.
    const auto &sv = gpu_.config().serving;
    if (!queue_.empty() &&
        active_.size() < sv.maxConcurrent) {
        std::vector<QueuedLaunch> snapshot = queue_;
        refreshAdmissibility(snapshot);
        if (pickNextLaunch(sv.policy, snapshot, tenants_,
                           rrCursor_) != kNoPick)
            return now;
    }
    // Otherwise sleep to the next arrival; in-flight completions
    // re-wake us through the SM wake edges. kNoCycle when dry.
    return next;
}

bool
LaunchQueueScheduler::finished() const
{
    if (!queue_.empty() || !active_.empty())
        return false;
    for (const auto &s : streams_)
        if (!s.exhausted())
            return false;
    return true;
}

} // namespace gpulat
