#include "mem/dram.hh"

#include <algorithm>

#include "common/log.hh"

namespace gpulat {

DramChannel::DramChannel(std::string name, const DramParams &params,
                         StatRegistry *stats)
    : name_(std::move(name)), params_(params)
{
    banks_.resize(static_cast<std::size_t>(params_.ranks) *
                  params_.banks);
    ranks_.resize(params_.ranks);
    for (Rank &r : ranks_) {
        r.groupActAt.assign(params_.bankGroups, 0);
        r.groupActValid.assign(params_.bankGroups, false);
    }

    GPULAT_ASSERT(stats != nullptr, "dram needs stats");
    rowHits_ = &stats->counter(name_ + ".row_hits");
    rowMisses_ = &stats->counter(name_ + ".row_misses");
    rowClosed_ = &stats->counter(name_ + ".row_closed");
    static const char *const kOutcome[3] = {"row_hits", "row_misses",
                                           "row_closed"};
    for (int o = 0; o < 3; ++o) {
        rdOutcome_[o] =
            &stats->counter(name_ + ".rd_" + kOutcome[o]);
        wrOutcome_[o] =
            &stats->counter(name_ + ".wr_" + kOutcome[o]);
    }
    if (params_.ddr.tRRDL > 0) {
        for (int o = 0; o < 3; ++o) {
            for (unsigned g = 0; g < params_.bankGroups; ++g) {
                bgOutcome_[o].push_back(&stats->counter(
                    name_ + ".bg" + std::to_string(g) + "." +
                    kOutcome[o]));
            }
        }
    }
    if (params_.ddr.tREFI > 0) {
        refreshes_ = &stats->counter(name_ + ".refreshes");
        refreshStall_ =
            &stats->counter(name_ + ".refresh_stall_cycles");
    }
}

DramCoord
DramChannel::coordOf(Addr line_addr) const
{
    return mapDramAddress(params_.geometry(), line_addr);
}

std::uint64_t
DramChannel::refreshStallCycles() const
{
    return refreshStall_ ? refreshStall_->value() : 0;
}

DramChannel::RowOutcome
DramChannel::classify(const Bank &bank, const DramCoord &c,
                      bool is_write)
{
    RowOutcome outcome;
    if (bank.rowOpen && bank.openRow == c.row) {
        outcome = RowOutcome::Hit;
        rowHits_->inc();
    } else if (bank.rowOpen) {
        outcome = RowOutcome::Conflict;
        rowMisses_->inc();
    } else {
        outcome = RowOutcome::Closed;
        rowClosed_->inc();
    }
    const int o = static_cast<int>(outcome);
    (is_write ? wrOutcome_[o] : rdOutcome_[o])->inc();
    if (!bgOutcome_[o].empty())
        bgOutcome_[o][c.group]->inc();
    return outcome;
}

void
DramChannel::catchUpRefresh(unsigned rank_id, Cycle now)
{
    const Cycle trefi = params_.ddr.tREFI;
    if (trefi == 0)
        return;
    Rank &rank = ranks_[rank_id];
    const std::uint64_t due = now / trefi; // epochs started by now
    if (due <= rank.refreshEpochs)
        return;

    // All banks precharge for refresh: every row in the rank closes
    // and the first access afterwards pays a fresh activate.
    const std::size_t base =
        static_cast<std::size_t>(rank_id) * params_.banks;
    for (unsigned b = 0; b < params_.banks; ++b)
        banks_[base + b].rowOpen = false;

    refreshes_->inc(due - rank.refreshEpochs);
    rank.refreshEpochs = due;
    rank.refreshBusyUntil =
        std::max(rank.refreshBusyUntil, due * trefi + params_.ddr.tRFC);
}

Cycle
DramChannel::schedule(const DramCoord &c, bool is_write, Cycle now)
{
    Bank &bank = banks_[c.flatBank];
    Rank &rank = ranks_[c.rank];
    const DramTiming &t = params_.timing;
    const DdrTiming &d = params_.ddr;

    catchUpRefresh(c.rank, now);

    // Earliest cycle the bank could take a command ignoring
    // refresh; the refresh clamp on top of that is the stall the
    // REF command caused.
    const Cycle nominal = std::max(now, bank.readyAt);
    const Cycle start = std::max(nominal, rank.refreshBusyUntil);
    if (start > nominal)
        refreshStall_->inc(start - nominal);

    Cycle first_data;
    if (classify(bank, c, is_write) == RowOutcome::Hit) {
        // Open row: the column command issues immediately.
        first_data = start + t.tCAS;
    } else {
        // PRE (if a row is open) then ACT then the column command.
        Cycle act_ready = start;
        if (bank.rowOpen) {
            // The open row must have been active for tRAS before it
            // may be precharged.
            Cycle pre_at = start;
            if (bank.actValid)
                pre_at = std::max(pre_at, bank.actAt + d.tRAS);
            act_ready = pre_at + t.tRP;
        }

        // ACT-to-ACT spacing: tRRD_S to any bank of the rank,
        // tRRD_L within the same bank group, and at most four
        // activates per rank inside any tFAW window.
        Cycle act_at = act_ready;
        if (rank.lastActValid)
            act_at = std::max(act_at, rank.lastActAt + d.tRRDS);
        if (rank.groupActValid[c.group]) {
            act_at = std::max(act_at,
                              rank.groupActAt[c.group] + d.tRRDL);
        }
        if (rank.actWindow.size() >= 4) {
            act_at = std::max(
                act_at,
                rank.actWindow[rank.actWindow.size() - 4] + d.tFAW);
        }

        bank.actAt = act_at;
        bank.actValid = true;
        rank.lastActAt = act_at;
        rank.lastActValid = true;
        rank.groupActAt[c.group] = act_at;
        rank.groupActValid[c.group] = true;
        rank.actWindow.push_back(act_at);
        if (rank.actWindow.size() > 4)
            rank.actWindow.pop_front();

        first_data = act_at + t.tRCD + t.tCAS;
    }

    // Shared data bus + read/write turnaround: switching the bus
    // direction costs tWTR (write -> read) or tRTW (read -> write)
    // measured from the previous burst's end.
    Cycle burst_start = std::max(first_data, busFreeAt_);
    if (is_write && lastReadValid_)
        burst_start = std::max(burst_start, lastReadEnd_ + d.tRTW);
    if (!is_write && lastWriteValid_)
        burst_start = std::max(burst_start, lastWriteEnd_ + d.tWTR);

    const Cycle burst_end = burst_start + t.tBurst;
    const Cycle done = burst_end + t.tExtra;
    busFreeAt_ = burst_end;
    if (is_write) {
        lastWriteEnd_ = burst_end;
        lastWriteValid_ = true;
    } else {
        lastReadEnd_ = burst_end;
        lastReadValid_ = true;
    }

    if (params_.page == DramPagePolicy::Closed) {
        // Auto-precharge: the row closes once the burst is done and
        // tRAS is satisfied; the bank re-opens with a fresh ACT.
        Cycle pre_at = burst_end;
        if (bank.actValid)
            pre_at = std::max(pre_at, bank.actAt + d.tRAS);
        bank.rowOpen = false;
        bank.readyAt = pre_at + t.tRP;
    } else {
        // The bank can take its next column command once the burst
        // is off the sense amps; approximating with the burst end
        // keeps banks pipelined but serialized per bank.
        bank.rowOpen = true;
        bank.openRow = c.row;
        bank.readyAt = burst_end;
    }
    return done;
}

} // namespace gpulat
