#include "api/parallel_runner.hh"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "api/key.hh"

namespace gpulat {

std::size_t
parseJobs(const std::string &text, const char *flag)
{
    return parseValue<std::size_t>(flag, text);
}

std::size_t
resolveJobs(std::size_t jobs)
{
    if (jobs != 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ParallelRunner::ParallelRunner(std::size_t jobs)
    : jobs_(jobs ? jobs : 1)
{
}

namespace {

/** Run one cell, trapping its exceptions into the outcome. */
JobOutcome
runOne(const ExperimentSpec &spec, std::size_t index,
       const ParallelRunner::Inspect &inspect)
{
    JobOutcome outcome;
    try {
        auto hook = inspect
            ? std::function<void(Gpu &, const ExperimentRecord &)>(
                  [&](Gpu &gpu, const ExperimentRecord &rec) {
                      inspect(index, gpu, rec);
                  })
            : std::function<void(Gpu &, const ExperimentRecord &)>{};
        outcome.record = runExperiment(spec, hook);
    } catch (const std::exception &e) {
        outcome.failed = true;
        outcome.error = e.what();
    }
    return outcome;
}

} // namespace

std::vector<JobOutcome>
ParallelRunner::run(const std::vector<ExperimentSpec> &specs,
                    const Inspect &inspect, const Commit &commit) const
{
    std::vector<JobOutcome> outcomes(specs.size());
    const std::size_t workers = std::min(jobs_, specs.size());

    if (workers <= 1) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            outcomes[i] = runOne(specs[i], i, inspect);
            if (commit)
                commit(i, outcomes[i]);
        }
        return outcomes;
    }

    // Work-stealing by index: workers pull the next unclaimed spec;
    // the caller's thread commits results in spec order as soon as
    // every earlier index has completed, so sink output streams in
    // deterministic order while later cells are still simulating.
    std::atomic<std::size_t> next{0};
    std::vector<char> done(specs.size(), 0); // guarded by mu
    std::mutex mu;
    std::condition_variable cv;

    auto worker = [&]() {
        while (true) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= specs.size())
                return;
            JobOutcome outcome = runOne(specs[i], i, inspect);
            {
                std::lock_guard<std::mutex> lock(mu);
                outcomes[i] = std::move(outcome);
                done[i] = 1;
            }
            cv.notify_one();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
        pool.emplace_back(worker);

    try {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return done[i] != 0; });
            if (commit) {
                // Commit without the lock: the callback may be
                // slow (file I/O) and this slot is no longer
                // written to.
                lock.unlock();
                commit(i, outcomes[i]);
            }
        }
    } catch (...) {
        // A throwing commit must not leave joinable threads behind
        // (std::terminate); workers drain the remaining indices on
        // their own, so joining here is deadlock-free.
        for (std::thread &t : pool)
            t.join();
        throw;
    }

    for (std::thread &t : pool)
        t.join();
    return outcomes;
}

} // namespace gpulat
