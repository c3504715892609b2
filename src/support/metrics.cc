#include "support/metrics.hh"

#include <algorithm>
#include <cmath>
#include <string_view>

namespace ilp::metrics {

namespace {

/** Render a double the way the JSON writer does: integral values
 *  without a fraction, everything else with enough digits. */
std::string
renderNumber(double v)
{
    return Json(v).dump();
}

void
sampleLine(std::string &out, const std::string &name,
           const std::string &labels, double value)
{
    out += name;
    out += labels;
    out += ' ';
    out += renderNumber(value);
    out += '\n';
}

/** The ceil(q * n)-th smallest of `sorted` (nearest rank). */
double
nearestRank(const std::vector<double> &sorted, double q)
{
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    if (rank == 0)
        rank = 1;
    return sorted[rank - 1];
}

} // namespace

// ------------------------------------------------------------ Registry

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

Counter &
Registry::counter(const std::string &name, const std::string &help)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &c : counters_) {
        if (c->name() == name)
            return *c;
    }
    counters_.push_back(std::make_unique<Counter>(name, help));
    return *counters_.back();
}

std::vector<const Counter *>
Registry::counters() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<const Counter *> out;
    for (const auto &c : counters_)
        out.push_back(c.get());
    return out;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &c : counters_)
        c->reset();
}

// ------------------------------------------------------------- Summary

Summary
Summary::of(std::vector<double> samples)
{
    Summary s;
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.count = samples.size();
    for (double v : samples)
        s.sum += v;
    s.p50 = nearestRank(samples, 0.50);
    s.p90 = nearestRank(samples, 0.90);
    s.p99 = nearestRank(samples, 0.99);
    return s;
}

// ------------------------------------------------------------ Snapshot

void
Snapshot::counter(const std::string &name, const std::string &help,
                  std::uint64_t value)
{
    entries_.push_back(
        {name, help, "counter", static_cast<double>(value), {}});
}

void
Snapshot::gauge(const std::string &name, const std::string &help,
                double value)
{
    entries_.push_back({name, help, "gauge", value, {}});
}

void
Snapshot::summary(const std::string &name, const std::string &help,
                  const Summary &value)
{
    entries_.push_back({name, help, "summary", 0.0, value});
}

void
Snapshot::add(const Registry &registry)
{
    for (const Counter *c : registry.counters())
        counter(c->name(), c->help(), c->value());
}

Json
Snapshot::json() const
{
    Json root = Json::object();
    for (const Entry &e : entries_) {
        Json entry = Json::object();
        entry.set("type", Json(e.type));
        entry.set("help", Json(e.help));
        if (std::string_view(e.type) == "summary") {
            Json v = Json::object();
            v.set("count", Json(e.summary.count));
            v.set("sum", Json(e.summary.sum));
            v.set("p50", Json(e.summary.p50));
            v.set("p90", Json(e.summary.p90));
            v.set("p99", Json(e.summary.p99));
            entry.set("value", std::move(v));
        } else {
            entry.set("value", Json(e.value));
        }
        root.set(e.name, std::move(entry));
    }
    return root;
}

std::string
Snapshot::prometheus() const
{
    std::string out;
    for (const Entry &e : entries_) {
        if (!e.help.empty()) {
            out += "# HELP ";
            out += e.name;
            out += ' ';
            out += e.help;
            out += '\n';
        }
        out += "# TYPE ";
        out += e.name;
        out += ' ';
        out += e.type;
        out += '\n';
        if (std::string_view(e.type) != "summary") {
            sampleLine(out, e.name, "", e.value);
            continue;
        }
        sampleLine(out, e.name, "{quantile=\"0.5\"}", e.summary.p50);
        sampleLine(out, e.name, "{quantile=\"0.9\"}", e.summary.p90);
        sampleLine(out, e.name, "{quantile=\"0.99\"}", e.summary.p99);
        sampleLine(out, e.name + "_sum", "", e.summary.sum);
        sampleLine(out, e.name + "_count", "",
                   static_cast<double>(e.summary.count));
    }
    return out;
}

} // namespace ilp::metrics
