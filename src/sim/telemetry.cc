#include "sim/telemetry.hh"

#include <algorithm>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace netsparse {

TelemetryProbe::TelemetryProbe(Tick interval)
    : interval_(interval), next_(interval)
{
    ns_assert(interval_ > 0, "telemetry interval must be positive");
}

void
TelemetryProbe::addEntity(std::size_t order, std::string id,
                          std::string kind,
                          std::vector<std::string> seriesNames,
                          Sampler sampler)
{
    TelemetryEntity e;
    e.order = order;
    e.id = std::move(id);
    e.kind = std::move(kind);
    e.series.resize(seriesNames.size());
    e.seriesNames = std::move(seriesNames);
    entities_.push_back(std::move(e));
    samplers_.push_back(std::move(sampler));
}

void
TelemetryProbe::attachTo(EventQueue &eq)
{
    eq_ = &eq;
    eq.attachProbe(this, next_);
}

void
TelemetryProbe::sampleAt(Tick boundary)
{
    for (std::size_t i = 0; i < entities_.size(); ++i) {
        scratch_.clear();
        samplers_[i](boundary, scratch_);
        TelemetryEntity &e = entities_[i];
        ns_assert(scratch_.size() == e.series.size(),
                  "sampler of ", e.id, " produced ", scratch_.size(),
                  " values for ", e.series.size(), " series");
        for (std::size_t s = 0; s < scratch_.size(); ++s)
            e.series[s].push_back(scratch_[s]);
    }
    std::uint64_t executed = eq_ ? eq_->executedEvents() : 0;
    events_.push_back(static_cast<double>(executed - lastExecuted_));
    lastExecuted_ = executed;
    ++numSamples_;
}

Tick
TelemetryProbe::onBoundary(Tick eventTick)
{
    // Every boundary <= eventTick separates "executed" from "pending":
    // all events with tick < boundary have run, none at or past it
    // have. Sample them all with the current state.
    while (next_ <= eventTick) {
        sampleAt(next_);
        next_ += interval_;
    }
    return next_;
}

void
TelemetryProbe::flushUntil(Tick finalTick)
{
    while (next_ <= finalTick) {
        sampleAt(next_);
        next_ += interval_;
    }
}

void
buildTelemetryRun(TelemetryRun &run,
                  const std::vector<TelemetryProbe *> &probes,
                  Tick finalTick)
{
    ns_assert(!probes.empty(), "telemetry merge without probes");
    // Boundaries past a shard's last event never fired in its dispatch
    // loop; sample them against the global final tick so every probe
    // ends with the same timeline.
    for (TelemetryProbe *p : probes)
        p->flushUntil(finalTick);
    const std::size_t samples = probes[0]->numSamples();
    run.intervalTicks = probes[0]->interval();
    run.finalTick = finalTick;
    for (std::size_t i = 1; i <= samples; ++i)
        run.sampleTicks.push_back(i * run.intervalTicks);
    // Per-shard event throughput is the one inherently shard-dependent
    // series; the document carries the cluster-wide sum as a single
    // trailing "sim" entity. These sums, like the slice fold's, add
    // integer counts far below 2^53, so they are exact in any order.
    TelemetryEntity sim;
    sim.id = "sim";
    sim.kind = "sim";
    sim.seriesNames = {"events"};
    sim.series.emplace_back(samples, 0.0);
    std::vector<TelemetryEntity> slices;
    for (TelemetryProbe *p : probes) {
        ns_assert(p->numSamples() == samples,
                  "telemetry probes disagree on the sample count");
        for (TelemetryEntity &e : p->takeEntities())
            slices.push_back(std::move(e));
        for (std::size_t i = 0; i < samples; ++i)
            sim.series[0][i] += p->eventsPerInterval()[i];
    }
    std::stable_sort(slices.begin(), slices.end(),
                     [](const TelemetryEntity &a, const TelemetryEntity &b) {
                         return a.order < b.order;
                     });
    for (TelemetryEntity &e : slices) {
        if (run.entities.empty() || run.entities.back().order != e.order) {
            run.entities.push_back(std::move(e));
            continue;
        }
        TelemetryEntity &whole = run.entities.back();
        ns_assert(whole.id == e.id && whole.series.size() == e.series.size(),
                  "telemetry entities ", whole.id, " and ", e.id,
                  " share order key ", e.order);
        for (std::size_t s = 0; s < e.series.size(); ++s)
            for (std::size_t k = 0; k < samples; ++k)
                whole.series[s][k] += e.series[s][k];
    }
    sim.order = run.entities.empty() ? 0 : run.entities.back().order + 1;
    run.entities.push_back(std::move(sim));
}

void
RunFormat<TelemetryRun>::write(std::ostream &os, const TelemetryRun &run)
{
    os << ",\"intervalTicks\":" << run.intervalTicks
       << ",\"finalTick\":" << run.finalTick << ",\n\"sampleTicks\":[";
    for (std::size_t k = 0; k < run.sampleTicks.size(); ++k)
        os << (k ? "," : "") << run.sampleTicks[k];
    os << "],\n\"entities\":[";
    for (std::size_t e = 0; e < run.entities.size(); ++e) {
        const TelemetryEntity &ent = run.entities[e];
        os << (e ? "," : "") << "\n{\"id\":\"" << jsonEscape(ent.id)
           << "\",\"kind\":\"" << jsonEscape(ent.kind)
           << "\",\"series\":{";
        for (std::size_t s = 0; s < ent.seriesNames.size(); ++s) {
            os << (s ? "," : "") << '"' << jsonEscape(ent.seriesNames[s])
               << "\":[";
            const std::vector<double> &vals = ent.series[s];
            for (std::size_t k = 0; k < vals.size(); ++k) {
                os << (k ? "," : "");
                writeJsonNumber(os, vals[k]);
            }
            os << ']';
        }
        os << "}}";
    }
    os << "\n]";
}

} // namespace netsparse
