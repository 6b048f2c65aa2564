#include "serving/serving.hh"

#include <bit>
#include <cmath>

#include "common/log.hh"
#include "workloads/compute_stream.hh"

namespace gpulat {

ServingSession::ServingSession(Gpu &gpu,
                               std::vector<TenantSpec> specs)
    : gpu_(gpu), specs_(std::move(specs))
{
    GPULAT_ASSERT(!specs_.empty(), "serving session with no tenants");

    std::vector<TenantPlan> plans;
    std::vector<ArrivalStream> streams;
    for (unsigned t = 0; t < specs_.size(); ++t) {
        const TenantSpec &spec = specs_[t];
        GPULAT_ASSERT(spec.n > 0 && spec.buffers > 0 &&
                          spec.threadsPerBlock > 0,
                      "malformed tenant spec");
        // Each tenant's kernel bears its own name in stall reports.
        Kernel kernel = ComputeStream::buildKernel(spec.fmaDepth);
        kernel.name = "serve_t" + std::to_string(t);
        kernels_.push_back(std::make_unique<Kernel>(std::move(kernel)));

        const std::uint64_t bytes = spec.n * 8;
        deviceX_.push_back(gpu_.alloc(bytes));
        std::vector<double> x(spec.n);
        for (auto &v : x)
            v = gpu_.rng().uniform();
        gpu_.copyToDevice(deviceX_.back(), x.data(), bytes);
        hostX_.push_back(std::move(x));

        deviceY_.emplace_back();
        for (unsigned j = 0; j < spec.buffers; ++j)
            deviceY_.back().push_back(gpu_.alloc(bytes));

        const unsigned tpb = spec.threadsPerBlock;
        const auto blocks = static_cast<unsigned>(
            (spec.n + tpb - 1) / tpb);
        TenantPlan plan;
        plan.weight = spec.weight;
        for (unsigned j = 0; j < spec.buffers; ++j) {
            LaunchShape shape;
            shape.kernel = kernels_.back().get();
            shape.numBlocks = blocks;
            shape.threadsPerBlock = tpb;
            shape.params = {deviceX_.back(), deviceY_.back()[j],
                            std::bit_cast<RegValue>(ComputeStream::kCoef),
                            spec.n};
            // Work estimate for sjf-est: threads x chain length
            // (+ fixed per-thread overhead).
            shape.estCost = static_cast<double>(blocks) * tpb *
                            (spec.fmaDepth + 8.0);
            plan.shapes.push_back(std::move(shape));
        }
        plans.push_back(std::move(plan));
        streams.emplace_back(spec.traffic, gpu_.config().seed, t);
    }

    sched_ = std::make_unique<LaunchQueueScheduler>(
        gpu_, std::move(plans), std::move(streams), metrics_);

    // Register on the core clock in the coordinator group (the
    // scheduler mutates cross-SM state, exactly like the block
    // dispatcher), after the dispatcher, with wake edges both ways:
    // its tick binds launches to SMs, and an SM's tick can complete
    // a launch the scheduler must reap.
    ClockDomain *core = gpu_.engine().findDomain("core");
    GPULAT_ASSERT(core, "gpu engine has no core domain");
    gpu_.engine().add(*core, *sched_);
    for (unsigned s = 0; s < gpu_.config().numSms; ++s) {
        gpu_.engine().link(*sched_, gpu_.sm(s));
        gpu_.engine().link(gpu_.sm(s), *sched_);
    }
}

WorkloadResult
ServingSession::run()
{
    // The watchdog signature folds in scheduler progress, so a long
    // but healthy queue drain never trips it.
    const LaunchResult run = gpu_.run(
        [this] { return sched_->finished(); }, "serving",
        [this] { return sched_->progressSignature(); });

    WorkloadResult result;
    std::vector<double> weights;
    for (const auto &spec : specs_)
        weights.push_back(spec.weight);
    result.metrics =
        metrics_.finalize(run.startCycle, run.endCycle, weights);
    result.correct = verify();
    return result;
}

bool
ServingSession::verify() const
{
    for (unsigned t = 0; t < specs_.size(); ++t) {
        const TenantSpec &spec = specs_[t];
        // Shape j serves arrivals j, j+buffers, ...; with every
        // arrival served by run()'s drain condition, buffer j was
        // written iff j < min(buffers, launches). Writes are
        // idempotent (same input, same chain), so repeated or
        // serialized-vs-parallel service leaves identical bytes.
        const unsigned used = std::min(
            spec.buffers, spec.traffic.launches);
        std::vector<double> y(spec.n);
        for (unsigned j = 0; j < used; ++j) {
            gpu_.copyFromDevice(y.data(), deviceY_[t][j], spec.n * 8);
            for (std::uint64_t i = 0; i < spec.n; ++i)
                if (y[i] != ComputeStream::expected(hostX_[t][i],
                                                    spec.fmaDepth))
                    return false;
        }
    }
    return true;
}

std::string
ServingWorkload::name() const
{
    switch (opts_.profile) {
    case Profile::Mixed: return "serve.mixed";
    case Profile::Uniform: return "serve.uniform";
    case Profile::Closed: return "serve.closed";
    }
    return "serve";
}

WorkloadResult
ServingWorkload::run(Gpu &gpu)
{
    checkParam(opts_.tenants > 0, name(), "tenants", "must be > 0");
    checkParam(opts_.launches > 0, name(), "launches", "must be > 0");
    checkParam(opts_.buffers > 0, name(), "buffers", "must be > 0");
    checkParam(opts_.load > 0.0, name(), "load", "must be > 0 (got ",
               opts_.load, ")");
    checkParam(opts_.thinkCycles >= 0.0, name(), "think",
               "must not be negative (got ", opts_.thinkCycles, ")");

    std::vector<ServingSession::TenantSpec> specs;
    for (unsigned t = 0; t < opts_.tenants; ++t) {
        ServingSession::TenantSpec spec;
        spec.buffers = opts_.buffers;
        spec.traffic.launches = opts_.launches;
        switch (opts_.profile) {
        case Profile::Mixed:
            // Three launch classes cycled over the tenants; higher
            // load shrinks the inter-arrival gaps.
            switch (t % 3) {
            case 0: // small
                spec.n = 1024;
                spec.fmaDepth = 8;
                spec.threadsPerBlock = 128;
                spec.traffic.meanGapCycles = 2500.0 / opts_.load;
                break;
            case 1: // medium
                spec.n = 4096;
                spec.fmaDepth = 16;
                spec.threadsPerBlock = 128;
                spec.traffic.meanGapCycles = 6000.0 / opts_.load;
                break;
            default: // heavy, double fair-share weight
                spec.n = 8192;
                spec.fmaDepth = 24;
                spec.threadsPerBlock = 256;
                spec.weight = 2.0;
                spec.traffic.meanGapCycles = 14000.0 / opts_.load;
                break;
            }
            spec.traffic.kind = ArrivalKind::Poisson;
            break;
        case Profile::Uniform:
            spec.traffic.kind = ArrivalKind::Fixed;
            spec.traffic.meanGapCycles = 5000.0 / opts_.load;
            break;
        case Profile::Closed:
            spec.traffic.kind = ArrivalKind::ClosedLoop;
            spec.traffic.thinkCycles = opts_.thinkCycles;
            break;
        }
        specs.push_back(spec);
    }

    ServingSession session(gpu, std::move(specs));
    return session.run();
}

} // namespace gpulat
